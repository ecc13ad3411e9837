"""Empirical minimization of the normalized frame potential.

The score of an architecture is the mean squared off-diagonal entry of its
normalized Gram matrix over the structurally nonzero positions. That
value is minimized over the learnable block parameters with plain
gradient descent plus backtracking; identity blocks never move. Columns
are re-normalized inside every evaluation, so the objective is invariant
to per-column rescaling of the raw parameters and no manifold machinery
is needed.

The gradient threads through the normalization analytically: with E the
off-diagonal part of the normalized Gram matrix, the derivative with
respect to the normalized operator is 4*B_n*E / count, each column is then
projected onto the tangent of its unit sphere and divided by its raw norm,
and the resulting global-matrix gradient is scattered back into dense
blocks (transposed and negated for couplings) and convolution filter taps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .archspec import ArchitectureSpec
from .framebuild import (MATERIALIZE_COL_LIMIT, FrameBuildError, FrameStructure,
                         GlobalFrame, NormalizationError, frame_structure)


class MinimizeError(RuntimeError):
    """All restarts failed to produce a finite objective."""


@dataclass(frozen=True)
class MinimizeOptions:
    """Settings for :func:`minimize_deep_frame_potential`."""

    seed: int = 0
    max_iters: int = 5000
    step: float = 1e-2
    tol: float = 1e-9
    tol_window: int = 50
    restarts: int = 5

    def __post_init__(self):
        if self.max_iters < 1 or self.tol_window < 1 or self.restarts < 1:
            raise ValueError("iteration counts and restarts must be positive")
        if self.step <= 0 or self.tol <= 0:
            raise ValueError("step and tolerance must be positive")


@dataclass
class MinimizeResult:
    """Outcome of the restarted descent.

    ``objective`` is the best normalized potential found and ``frame``
    the raw frame achieving it, built on the structure the descent
    compiled. ``trajectories`` holds one (iteration, objective,
    coherence) list per successful restart, in restart order;
    ``failed_restarts`` records (seed, reason) pairs for aborted ones.
    """

    objective: float
    mu: float
    frame: GlobalFrame
    trajectories: list[list[tuple[int, float, float]]]
    iterations: int
    seed: int
    failed_restarts: list[tuple[int, str]] = field(default_factory=list)

    @property
    def params(self) -> dict[tuple[int, int], np.ndarray]:
        """The raw block parameters of the best frame."""
        return self.frame.params

    @property
    def raw_frame_potential(self) -> float:
        """The un-normalized ||G||_F^2 implied by the objective."""
        return self.objective * self.frame.structure.offdiag_count + self.frame.shape[1]


def _compile(spec: ArchitectureSpec) -> FrameStructure:
    st = frame_structure(spec)
    rows, cols = st.shape
    if cols > MATERIALIZE_COL_LIMIT:
        raise FrameBuildError(
            f"refusing to minimize a {rows}x{cols} operator (limit "
            f"{MATERIALIZE_COL_LIMIT} columns): the descent materializes it"
        )
    if st.offdiag_count == 0:
        raise ValueError(
            "this structure has no off-diagonal Gram entries; orthogonality "
            "is attainable and there is nothing to minimize"
        )
    return st


def _evaluate(st: FrameStructure, params) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Objective, coherence, normalized matrix, and column norms."""
    B = st.build(params=params).materialize()
    norms = np.linalg.norm(B, axis=0)
    if np.any(norms == 0.0):
        raise NormalizationError("zero global column during optimization")
    Bn = B / norms
    E = Bn.T @ Bn
    np.fill_diagonal(E, 0.0)
    obj = float(np.sum(E * E)) / st.offdiag_count
    mu = float(np.max(np.abs(E))) if E.size else 0.0
    return obj, mu, Bn, norms


def _gradient_from_state(st: FrameStructure, Bn: np.ndarray, norms: np.ndarray):
    E = Bn.T @ Bn
    np.fill_diagonal(E, 0.0)
    gt = (4.0 / st.offdiag_count) * (Bn @ E)
    radial = np.einsum("ij,ij->j", Bn, gt)
    gb = (gt - Bn * radial) / norms
    grads: dict[tuple[int, int], np.ndarray] = {}
    for b in st.learnable:
        key = (b.row, b.col)
        sub = gb[st.row_off[b.row]:st.row_off[b.row + 1],
                 st.col_off[b.col]:st.col_off[b.col + 1]]
        if b.form == "conv":
            rows, cols, taps, _ = st.conv_entries[key]
            if b.is_diagonal:
                weights = sub[rows, cols]
            else:
                weights = -sub[cols, rows]
            flat = np.bincount(taps, weights=weights,
                               minlength=int(np.prod(b.shape)))
            grads[key] = flat.reshape(b.shape)
        elif b.is_diagonal:
            grads[key] = sub.copy()
        else:
            grads[key] = -sub.T
    return grads


def potential_gradient(params: dict[tuple[int, int], np.ndarray],
                       spec: ArchitectureSpec) -> dict[tuple[int, int], np.ndarray]:
    """Gradient of the normalized potential with respect to raw parameters.

    Returns one array per learnable block, matching ``params`` shapes.
    Verified against central finite differences in the test suite.
    """
    st = _compile(spec)
    _, _, Bn, norms = _evaluate(st, params)
    return _gradient_from_state(st, Bn, norms)


def _grad_norm_sq(grads) -> float:
    return sum(float(np.sum(g * g)) for g in grads.values())


def _descend(st: FrameStructure, seed: int, opts: MinimizeOptions):
    """One restart: returns (objective, mu, params, trajectory, iterations)."""
    params = {k: v.copy() for k, v in st.build(seed=seed).params.items()}
    obj, mu, Bn, norms = _evaluate(st, params)
    trajectory = [(0, obj, mu)]
    step = opts.step
    history = [obj]
    iters_done = 0
    for it in range(1, opts.max_iters + 1):
        grads = _gradient_from_state(st, Bn, norms)
        gnorm_sq = _grad_norm_sq(grads)
        if gnorm_sq == 0.0:
            break
        accepted = False
        while step > 1e-18:
            trial = {k: params[k] - step * grads[k] for k in params}
            try:
                t_obj, t_mu, t_Bn, t_norms = _evaluate(st, trial)
            except (FrameBuildError, NormalizationError):
                step *= 0.5
                continue
            if not math.isfinite(t_obj):
                raise FloatingPointError(f"objective went non-finite at iteration {it}")
            if t_obj <= obj - 1e-4 * step * gnorm_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        params, obj, mu, Bn, norms = trial, t_obj, t_mu, t_Bn, t_norms
        trajectory.append((it, obj, mu))
        history.append(obj)
        iters_done = it
        step *= 2.0
        if len(history) > opts.tol_window:
            past = history[-opts.tol_window - 1]
            if (past - obj) < opts.tol * max(past, 1e-30):
                break
    return obj, mu, params, trajectory, iters_done


def minimize_deep_frame_potential(spec: ArchitectureSpec,
                                  opts: MinimizeOptions | None = None) -> MinimizeResult:
    """Minimize the architecture's normalized frame potential.

    Runs ``opts.restarts`` independent descents from seeds seed, seed+1,
    ... and keeps the best final objective (ties broken by seed).
    Restarts whose objective goes non-finite are skipped and reported;
    if every restart fails, raises :class:`MinimizeError`.
    """
    opts = opts or MinimizeOptions()
    st = _compile(spec)
    outcomes = []
    trajectories: list[list[tuple[int, float, float]]] = []
    failures: list[tuple[int, str]] = []
    for r in range(opts.restarts):
        seed = opts.seed + r
        try:
            obj, mu, params, traj, iters = _descend(st, seed, opts)
        except (FloatingPointError, FrameBuildError, NormalizationError) as exc:
            failures.append((seed, str(exc)))
            continue
        outcomes.append((obj, seed, mu, params, iters))
        trajectories.append(traj)
    if not outcomes:
        raise MinimizeError(
            f"all {opts.restarts} restarts failed: {failures}"
        )
    obj, seed, mu, params, iters = min(outcomes, key=lambda t: (t[0], t[1]))
    return MinimizeResult(
        objective=obj,
        mu=mu,
        frame=st.build(params=params),
        trajectories=trajectories,
        iterations=iters,
        seed=seed,
        failed_restarts=failures,
    )


__all__ = [
    "MinimizeError",
    "MinimizeOptions",
    "MinimizeResult",
    "minimize_deep_frame_potential",
    "potential_gradient",
]
