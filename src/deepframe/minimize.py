"""Empirical minimization of the normalized frame potential.

The score of an architecture is the mean squared off-diagonal entry of its
normalized Gram matrix over the structurally nonzero positions. That
value is minimized over the learnable block parameters with plain
gradient descent plus backtracking; identity blocks never move. Columns
are re-normalized inside every evaluation, so the objective is invariant
to per-column rescaling of the raw parameters and no manifold machinery
is needed.

The descent runs on one flat vector theta of the learnable entries, which a
map read once per call off the structure's ``build`` scatters into the dense
operator. The gradient threads through the normalization analytically: with
E the off-diagonal part of the normalized Gram matrix, the derivative with
respect to the normalized operator is 4*B_n*E / count; each column is then
projected onto the tangent of its unit sphere and divided by its raw norm,
and the map's adjoint (one ``np.bincount``) pulls that back to theta.

Each call allocates one workspace that every evaluation overwrites. The
Gram and gradient products cover the operator's block band only, one per
panel (see :func:`_panels`); every other pass runs on vectors over the
operator's placed entries. The gradient and the coherence read the last
evaluation's workspace: the start or an accepted trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .archspec import ArchitectureSpec
from .framebuild import (MATERIALIZE_COL_LIMIT, FrameBuildError, FrameStructure,
                         GlobalFrame, refuse_dead_columns)


class MinimizeError(RuntimeError):
    """All restarts failed to produce a finite objective."""


# the descent's fixed policy: first step, and the stop once the objective
# fell by less than TOL (relative) over the last TOL_WINDOW accepted steps
STEP, TOL, TOL_WINDOW = 1e-2, 1e-9, 50

# the cost of one matrix-product call in multiply-adds, which panels weigh against their size
CALL_COST = 20000


@dataclass(frozen=True)
class MinimizeOptions:
    """Settings for :func:`minimize_deep_frame_potential`."""

    seed: int = 0
    max_iters: int = 5000
    restarts: int = 5

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("iteration counts and restarts must be positive")


@dataclass(frozen=True)
class RestartRecord:
    """How one restart ended. ``stop`` is "zero_gradient", "step_underflow" (step
    below 1e-18), "tolerance" or "max_iters"; evaluations = accepted + backtracks + 1."""

    seed: int
    stop: str
    evaluations: int
    backtracks: int


@dataclass
class MinimizeResult:
    """Outcome of the restarted descent.

    ``objective`` is the best normalized potential found and ``frame``
    the raw frame achieving it, built on the structure the descent
    compiled. ``trajectories`` holds one (iteration, objective,
    coherence) list and ``restarts`` one :class:`RestartRecord` per
    successful restart, in restart order; ``failed_restarts`` records
    (seed, reason) pairs for aborted ones.
    """

    objective: float
    mu: float
    frame: GlobalFrame
    trajectories: list[list[tuple[int, float, float]]]
    iterations: int
    seed: int
    restarts: list[RestartRecord] = field(default_factory=list)
    failed_restarts: list[tuple[int, str]] = field(default_factory=list)

    @property
    def params(self) -> dict[tuple[int, int], np.ndarray]:
        """The raw block parameters of the best frame."""
        return self.frame.params

    @property
    def raw_frame_potential(self) -> float:
        """The un-normalized ||G||_F^2 implied by the objective."""
        return self.objective * self.frame.structure.offdiag_count + self.frame.shape[1]


class _FlatMap:
    """The scatter map from theta to the placed entries of the operator,
    and the workspace every evaluation overwrites.

    theta holds the learnable blocks in block-table order, each row-major
    in its stored shape: a conv filter bank, a diagonal block as placed, an
    off-diagonal dense block transposed. The map is read off ``build``:
    theta's entries, numbered 2, 3, ..., are placed once, so each lands
    where the structure places it, with the sign it gives it, whatever
    the layout. The placed entries, learned and constant, are kept in flat
    row-major order: entry e sits at flat ``pos[e]`` in column ``col[e]`` and
    holds ``sign[e] * lookup[source[e]]``, where ``lookup`` is theta followed
    by the 1.0 that the identity couplings' +-1 constants read.

    The workspace is allocated once per map, so once per
    :func:`minimize_deep_frame_potential` call. Vectors over the placed
    entries hold their raw ``values``, squares ``sq`` (also a scratch),
    column norms ``scale``, normalized ``unit`` values and gradient ``grad``.
    The dense arrays are the normalized operator ``B``, 0 off the placed
    entries, the Gram ``E`` and the gradient product ``G``. ``panels`` views,
    per panel in ``spans`` (:func:`_panels`), its columns and partners of
    ``B``, its rows of ``E`` and their transpose, and its ``G``.
    """

    def __init__(self, spec: ArchitectureSpec):
        st = self.st = FrameStructure(spec)
        width = st.shape[1]
        if width > MATERIALIZE_COL_LIMIT:
            raise FrameBuildError(
                f"refusing to minimize a {st.shape[0]}x{width} operator (limit "
                f"{MATERIALIZE_COL_LIMIT} columns): the descent materializes it")
        if st.offdiag_count == 0:
            raise ValueError("this structure has no off-diagonal Gram entries; orthogonality "
                             "is attainable and there is nothing to minimize")
        self.segments, start = [], 0
        for b in st.learnable:
            self.segments.append((b, start, start + math.prod(b.shape)))
            start = self.segments[-1][2]
        self.size = start
        self.diagonal = [((b.row, b.col), slice(st.col_off[b.col], st.col_off[b.col + 1]))
                         for b in st.learnable if b.is_diagonal]
        numbered = st.build(params=self.unflatten(np.arange(2.0, start + 2)))
        placed = numbered.materialize(max_cols=width).reshape(-1)
        self.pos = np.flatnonzero(placed)
        value = placed[self.pos]
        del numbered, placed  # free the dense scratch before the map's lasting arrays
        self.source = np.where(np.abs(value) >= 2, np.abs(value) - 2, start).astype(np.intp)
        self.sign, self.col = np.sign(value), self.pos % width
        # the learnable diagonal blocks' entries: learned, in row group = column group
        row_group, col_group = (np.searchsorted(off, at, side="right") for off, at in
                                ((st.row_off, self.pos // width), (st.col_off, self.col)))
        self.diag_at = np.flatnonzero((self.source < start) & (row_group == col_group))
        self.lookup, self.norms = np.ones(start + 1), np.zeros(width)
        self.values, self.sq, self.scale, self.unit, self.grad = np.zeros((5, self.pos.size))
        B, G, E = self.B, self.G, self.E = np.zeros(st.shape), np.zeros(st.shape), np.zeros((width, width))
        self.E_diag = E.reshape(-1)[::width + 1]
        self.spans = _panels(st)
        self.panels = [(B[r, c].T, B[r, p], E[c, p], E[p, c], G[r, c]) for r, c, p in self.spans]

    def flatten(self, params) -> np.ndarray:
        theta = np.empty(self.size)
        for key, view in self.unflatten(theta).items():
            view[...] = params[key]
        return theta

    def unflatten(self, theta: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """Per-block views of theta in stored orientation."""
        return {(b.row, b.col): theta[lo:hi].reshape(b.shape) for b, lo, hi in self.segments}

    def matrix(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The placed entries' values at theta and the global column norms, in
        the workspace. ``build``'s dead-column refusal and the norms both read
        the squares; each norm adds its column in row order."""
        self.lookup[:self.size] = theta
        # mode="clip" lets take write straight into out; every index is in range
        np.take(self.lookup, self.source, out=self.values, mode="clip")
        self.values *= self.sign
        sq = np.multiply(self.values, self.values, out=self.sq)
        if np.count_nonzero(sq) < sq.size:  # a dead column needs a zero square
            col_sq = np.bincount(self.col[self.diag_at], sq[self.diag_at], minlength=self.norms.size)
            for key, cols in self.diagonal:
                refuse_dead_columns(key, col_sq[cols])
        np.sqrt(np.bincount(self.col, sq, minlength=self.norms.size), out=self.norms)
        return self.values, self.norms

    def adjoint(self, values: np.ndarray) -> np.ndarray:
        """The map's adjoint: each placed entry's value, signed, summed into
        theta; the constants' sum lands past theta's end and is dropped."""
        np.multiply(values, self.sign, out=self.sq)
        return np.bincount(self.source, weights=self.sq, minlength=self.size + 1)[:self.size]


def _panels(st: FrameStructure) -> list[tuple[slice, slice, slice]]:
    """The cheapest split of the column groups into panels, runs of adjacent
    groups, each as (rows its blocks cover, its columns, its Gram partners).
    A run's row and partner hulls grow group by group as it extends left."""
    off, row_off = st.col_off, st.row_off
    hull = [[min(rows), max(rows), j, j] for j, rows in enumerate(st.rows_of)]  # rows, partners
    for j, k in st.shared:  # j <= k
        hull[j][3], hull[k][2] = max(hull[j][3], k), min(hull[k][2], j)
    best = [(0, 0, None)]  # per hi, the cheapest split of the first hi groups: cost, last run's lo, span
    for hi in range(1, len(hull) + 1):
        runs, (r0, r1, p0, p1) = [], hull[hi - 1]
        for lo in reversed(range(hi)):
            h = hull[lo]
            r0, r1, p0, p1 = min(r0, h[0]), max(r1, h[1]), min(p0, h[2]), max(p1, h[3])
            run = (slice(row_off[r0], row_off[r1 + 1]), slice(off[lo], off[hi]), slice(off[p0], off[p1 + 1]))
            runs.append((best[lo][0] + CALL_COST + math.prod(s.stop - s.start for s in run), lo, run))
        best.append(min(runs, key=lambda r: r[:2]))  # ties keep the longer run
    spans, hi = [], len(hull)
    while hi:
        _, hi, run = best[hi]
        spans.insert(0, run)
    return spans


def _evaluate(fm: _FlatMap, theta: np.ndarray) -> float:
    """The objective at theta, which leaves the descent state (the normalized
    operator and its values, the norms and E) in fm's workspace."""
    values, norms = fm.matrix(theta)
    # no norm is zero: matrix() refuses a dead column of a learnable diagonal
    # block, and every other column group's diagonal block is an identity
    np.take(norms, fm.col, out=fm.scale, mode="clip")
    fm.B.reshape(-1)[fm.pos] = np.divide(values, fm.scale, out=fm.unit)
    for b_cols_t, b_partners, e_panel, _, _ in fm.panels:
        np.matmul(b_cols_t, b_partners, out=e_panel)
    fm.E_diag[...] = 0.0
    # the panels' rows of E are disjoint, and E is 0 off them
    return sum(float(np.einsum("ij,ij->", e, e)) for _, _, e, _, _ in fm.panels) / fm.st.offdiag_count


def _coherence(fm: _FlatMap) -> float:
    """The mutual coherence at the last evaluation: the largest |E| entry."""
    return float(max(max(np.maximum.reduce(e, None), -np.minimum.reduce(e, None))
                     for _, _, e, _, _ in fm.panels))


def _gradient(fm: _FlatMap) -> np.ndarray:
    """The gradient in theta at the last evaluation: the map's adjoint of the
    global-matrix gradient, formed at the placed entries."""
    for _, b_partners, _, e_partners, g_panel in fm.panels:
        np.matmul(b_partners, e_partners, out=g_panel)
    g, unit, tmp = fm.grad, fm.unit, fm.sq
    np.take(fm.G.reshape(-1), fm.pos, out=g, mode="clip")
    g *= 4.0 / fm.st.offdiag_count
    radial = np.bincount(fm.col, weights=np.multiply(unit, g, out=tmp), minlength=fm.norms.size)
    g -= np.multiply(unit, np.take(radial, fm.col, out=tmp, mode="clip"), out=tmp)
    g /= fm.scale
    return fm.adjoint(g)


def potential_gradient(params: dict[tuple[int, int], np.ndarray],
                       spec: ArchitectureSpec) -> dict[tuple[int, int], np.ndarray]:
    """Gradient of the normalized potential with respect to raw parameters.

    Returns one array per learnable block, matching ``params`` shapes.
    Verified against central finite differences in the test suite.
    """
    fm = _FlatMap(spec)
    _evaluate(fm, fm.flatten(fm.st.build(params=params).params))
    return fm.unflatten(_gradient(fm))


def _descend(fm: _FlatMap, seed: int, opts: MinimizeOptions):
    """One restart: returns (objective, mu, theta, trajectory, record)."""
    theta = fm.flatten(fm.st.build(seed=seed).params)
    obj = _evaluate(fm, theta)
    mu = _coherence(fm)
    trajectory = [(0, obj, mu)]
    step, evaluations, stop = STEP, 1, "max_iters"
    for it in range(1, opts.max_iters + 1):
        grad = _gradient(fm)
        gnorm_sq = float(grad @ grad)
        if gnorm_sq == 0.0:
            stop = "zero_gradient"
            break
        while step > 1e-18:
            trial = theta - step * grad
            evaluations += 1
            try:
                t_obj = _evaluate(fm, trial)
            except FrameBuildError:
                pass
            else:
                if not math.isfinite(t_obj):
                    raise FloatingPointError(f"objective went non-finite at iteration {it}")
                if t_obj <= obj - 1e-4 * step * gnorm_sq:
                    break
            step *= 0.5
        else:
            stop = "step_underflow"
            break
        theta, obj, mu = trial, t_obj, _coherence(fm)
        trajectory.append((it, obj, mu))
        step *= 2.0
        if len(trajectory) > TOL_WINDOW:
            past = trajectory[-TOL_WINDOW - 1][1]
            if (past - obj) < TOL * max(past, 1e-30):
                stop = "tolerance"
                break
    # every trial evaluation is either an accepted step or a backtrack
    record = RestartRecord(seed, stop, evaluations, evaluations - len(trajectory))
    return obj, mu, theta, trajectory, record


def minimize_deep_frame_potential(spec: ArchitectureSpec,
                                  opts: MinimizeOptions | None = None) -> MinimizeResult:
    """Minimize the architecture's normalized frame potential.

    Runs ``opts.restarts`` independent descents from seeds seed, seed+1,
    ... and keeps the best final objective (ties broken by seed).
    Restarts whose objective goes non-finite are skipped and reported;
    if every restart fails, raises :class:`MinimizeError`.
    """
    opts = opts or MinimizeOptions()
    fm = _FlatMap(spec)
    outcomes, failures = [], []
    for seed in range(opts.seed, opts.seed + opts.restarts):
        try:
            outcomes.append(_descend(fm, seed, opts))
        except (FloatingPointError, FrameBuildError) as exc:
            failures.append((seed, str(exc)))
    if not outcomes:
        raise MinimizeError(f"all {opts.restarts} restarts failed: {failures}")
    obj, mu, theta, traj, record = min(outcomes, key=lambda o: (o[0], o[4].seed))
    return MinimizeResult(
        objective=obj, mu=mu, frame=fm.st.build(params=fm.unflatten(theta)),
        trajectories=[o[3] for o in outcomes], iterations=len(traj) - 1, seed=record.seed,
        restarts=[o[4] for o in outcomes], failed_restarts=failures)


__all__ = [
    "MinimizeError",
    "MinimizeOptions",
    "MinimizeResult",
    "RestartRecord",
    "minimize_deep_frame_potential",
    "potential_gradient",
]
