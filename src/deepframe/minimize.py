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

Each call allocates one workspace, the dense operator, its squares, the
Gram, one Gram-sized scratch and the gradient, and every evaluation
overwrites it in place. The gradient and the coherence read the last
evaluation's workspace, which the descent takes right after evaluating
the start or an accepted trial, before the next trial overwrites it.
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
    the layout. Entry e, ``sign[e] * theta[source[e]]``, goes to global
    flat ``index[e]``, in row-major order; the placed +-1 entries are the
    identity couplings' constants.

    The workspace is allocated once per map, so once per
    :func:`minimize_deep_frame_potential` call, and every evaluation
    overwrites it: the operator ``B`` (zeroed here; an evaluation writes
    only the placed entries), its squares ``sq``, the column ``norms``, the
    Gram ``E`` with one E-sized ``scratch``, and the R x C gradient ``G``.
    :func:`_gradient` and :func:`_coherence` read the last evaluation's.
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
        self.segments, self.diagonal, start = [], [], 0
        for b in st.learnable:
            self.segments.append((b, start, start + math.prod(b.shape)))
            start = self.segments[-1][2]
            if b.is_diagonal:
                r0, c0 = st.row_off[b.row], st.col_off[b.col]
                self.diagonal.append(((b.row, b.col), slice(r0, r0 + b.placed_shape[0]),
                                      slice(c0, c0 + b.placed_shape[1])))
        self.size = start
        numbered = st.build(params=self.unflatten(np.arange(2.0, start + 2)))
        placed = numbered.materialize(max_cols=width).reshape(-1)
        index = np.flatnonzero(placed)
        value = placed[index]
        del numbered, placed  # free the dense scratch before the map's lasting arrays
        magnitude = np.abs(value)
        learned = magnitude >= 2
        self.index, self.source = index[learned], magnitude[learned].astype(np.intp) - 2
        self.sign = np.sign(value[learned])
        self.const_index, self.const_value = index[~learned], value[~learned]
        self.B, self.sq, self.G = (np.zeros(st.shape) for _ in range(3))
        self.E, self.scratch = np.zeros((width, width)), np.zeros((width, width))
        self.E_diag = self.E.reshape(-1)[::width + 1]
        self.norms, self.radial = np.zeros(width), np.zeros(width)
        self.values = np.zeros(self.index.size)

    def flatten(self, params) -> np.ndarray:
        theta = np.empty(self.size)
        for key, view in self.unflatten(theta).items():
            view[...] = params[key]
        return theta

    def unflatten(self, theta: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """Per-block views of theta in stored orientation."""
        return {(b.row, b.col): theta[lo:hi].reshape(b.shape) for b, lo, hi in self.segments}

    def matrix(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The dense operator at theta and its global column norms, written
        into the workspace's ``B`` and ``norms``.

        The operator is squared once: ``build``'s refusal of a zero column in
        a learnable diagonal block and the global norms both read the squares.
        """
        B, sq, flat = self.B, self.sq, self.B.reshape(-1)
        flat[self.const_index] = self.const_value
        # mode="clip" lets take write straight into out; every index is in range
        np.take(theta, self.source, out=self.values, mode="clip")
        self.values *= self.sign
        flat[self.index] = self.values
        np.multiply(B, B, out=sq)
        for key, rows, cols in self.diagonal:
            refuse_dead_columns(key, np.add.reduce(sq[rows, cols], axis=0))
        np.sqrt(np.add.reduce(sq, axis=0, out=self.norms), out=self.norms)
        return B, self.norms

    def adjoint(self, G: np.ndarray) -> np.ndarray:
        """The map's adjoint: each placed entry of G, signed, summed into theta."""
        np.take(G.reshape(-1), self.index, out=self.values, mode="clip")
        self.values *= self.sign
        return np.bincount(self.source, weights=self.values, minlength=self.size)


def _evaluate(fm: _FlatMap, theta: np.ndarray) -> float:
    """The objective at theta, which leaves the descent state (the normalized
    operator, its norms and E) in fm's workspace."""
    # no norm is zero: matrix() refuses a dead column of a learnable diagonal
    # block, and every other column group's diagonal block is an identity
    B, norms = fm.matrix(theta)
    B /= norms
    E = np.matmul(B.T, B, out=fm.E)
    fm.E_diag[...] = 0.0
    obj = float(np.add.reduce(np.multiply(E, E, out=fm.scratch), axis=None)) / fm.st.offdiag_count
    if not math.isfinite(obj):
        # a NaN norm turned its column's structural zeros into NaN; zero them again
        B[...] = 0.0
    return obj


def _coherence(fm: _FlatMap) -> float:
    """The mutual coherence at the last evaluation: the largest |E| entry."""
    return float(np.maximum.reduce(np.abs(fm.E, out=fm.scratch), axis=None))


def _gradient(fm: _FlatMap) -> np.ndarray:
    """The gradient in theta at the last evaluation: the map's adjoint of the
    global-matrix gradient."""
    Bn, G = fm.B, fm.G
    np.matmul(Bn, fm.E, out=G)
    G *= 4.0 / fm.st.offdiag_count
    radial = np.einsum("ij,ij->j", Bn, G, out=fm.radial)
    G -= np.multiply(Bn, radial, out=fm.sq)
    G /= fm.norms
    return fm.adjoint(G)


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
