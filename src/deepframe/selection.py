"""Ranking candidate architectures by minimized frame potential.

The score of an architecture is the smallest normalized off-diagonal Gram
energy its parameters can reach, found by :mod:`deepframe.minimize`. It
is comparable across architectures of different sizes, so a set of
candidates can be ordered before any training data exists. Each candidate
is evaluated once, by that minimization: the coherence reported beside the
score is the one it measured at the winning parameters. Ranking is pure
bookkeeping on already-evaluated candidates; the evaluation itself lives in
:func:`evaluate_candidate` so batch drivers can parallelize it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .archspec import ArchitectureSpec, param_count
from .minimize import MinimizeOptions, MinimizeResult, minimize_deep_frame_potential


class SelectionError(ValueError):
    """No candidates survive, or candidates are not comparable."""


@dataclass(frozen=True)
class Candidate:
    """One architecture with its minimization result.

    The ``mutual_coherence`` column is ``result.mu``, the coherence the
    descent measured at the minimizing parameters, not at a random draw,
    so it can sit next to the score in the same table.
    """

    spec: ArchitectureSpec
    result: MinimizeResult
    param_count: int

    @property
    def name(self) -> str:
        return self.spec.name or ""

    @property
    def score(self) -> float:
        return self.result.objective

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "param_count": self.param_count,
            "score": self.score,
            "mutual_coherence": self.result.mu,
            "seed": self.result.seed,
            "iterations": self.result.iterations,
        }


def evaluate_candidate(spec: ArchitectureSpec,
                       options: MinimizeOptions | None = None) -> Candidate:
    """Minimize one architecture's potential and bundle the result."""
    opts = MinimizeOptions() if options is None else options
    result = minimize_deep_frame_potential(spec, opts)
    return Candidate(spec=spec, result=result,
                     param_count=result.frame.structure.param_count)


@dataclass(frozen=True)
class RankingReport:
    """Candidates in score order, plus the constraint that filtered them.

    Ordering is total and deterministic: ascending score, then ascending
    parameter count, then name. ``max_params`` is None when no budget
    constraint was applied.
    """

    candidates: tuple[Candidate, ...]
    max_params: int | None

    def to_dict(self) -> dict:
        return {
            "constraint": {"max_params": self.max_params},
            "candidates": [
                {"rank": i + 1, **c.to_dict()}
                for i, c in enumerate(self.candidates)
            ],
        }

    def csv_rows(self) -> list[list[str]]:
        head = ["name", "param_count", "score", "mutual_coherence"]
        body = [
            [c.name, str(c.param_count), repr(c.score), repr(c.result.mu)]
            for c in self.candidates
        ]
        return [head, *body]


def rank(candidates, max_params: int | None = None) -> RankingReport:
    """Order candidates by score under an optional parameter budget.

    Candidates must have been evaluated with identical minimizer options
    for their scores to be comparable; this function trusts the caller
    on that and checks only verifiable facts (a recomputed parameter
    count must match the stored one).
    """
    pool = list(candidates)
    if not pool:
        raise SelectionError("no candidates to rank")
    for c in pool:
        actual = param_count(c.spec)
        if actual != c.param_count:
            raise SelectionError(
                f"candidate {c.name!r} claims {c.param_count} parameters "
                f"but its spec has {actual}"
            )
    if max_params is not None:
        pool = [c for c in pool if c.param_count <= max_params]
        if not pool:
            raise SelectionError(
                f"no candidate fits within max_params={max_params}"
            )
    pool.sort(key=lambda c: (c.score, c.param_count, c.name))
    return RankingReport(candidates=tuple(pool), max_params=max_params)


__all__ = [
    "Candidate",
    "RankingReport",
    "SelectionError",
    "evaluate_candidate",
    "rank",
]
