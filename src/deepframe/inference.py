"""Sparse inference over global operators.

Three ways to produce per-layer codes for input signals, from cheapest to
most exact: a single thresholded forward pass, per-layer sparse coding
down a chain, and block coordinate descent on the global objective

    1/2 ||x - B_00 w_0||^2
        + sum_{j>=1} 1/2 ||B_jj w_j - sum_{k<j} B_jk^T w_k||^2
        + sum_j lam_j * sum(w_j),   codes constrained nonnegative,

which is 1/2 ||B w - [x; 0; ...; 0]||^2 plus the penalty for the global
operator B. All three are schedules of one nonnegative prox-linear block
step on a kept residual R = B w - [x; 0; ...; 0], one matrix per row
group. A block step costs one product with its column block for the
gradient and one for the residual update, and objectives are read off R.
Block descent and the forward pass sweep the blocks in ascending order;
layered pursuit takes many steps on one block before moving to the next.

Every solver takes one signal as a vector or a batch of m signals as the
columns of an (n x m) matrix, and runs both as a batch: codes of layer j
are a (d_j x m) matrix and residuals of row group i an (r_i x m) one, so
every signal of a batch shares each product with the operator. Signals
never mix; objectives are per-signal column sums. A vector runs as a
one-column batch and gets one result back, a matrix gets one result per
column. All codes of a batch live in one flat buffer and all residuals in
another, each group followed by one zero row: a conv block gathers from
that padded view directly, and an objective is two reductions over the
buffers.

The first sweep from zero codes reads only each block's own row: the rows
below it are zero at the sweep's starting state. With unit steps that
sweep is the forward pass itself. Later sweeps use full partial
gradients, so with automatic step sizes every recorded objective value
decreases from the first one on.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .framebuild import Convolution, Diagonal, GlobalFrame


class UnsupportedMethodError(ValueError):
    """The requested inference method does not apply to this structure."""


class DivergenceError(RuntimeError):
    """An iterate went non-finite; the message names the signal and the cycle."""


def prox_nonneg_soft_threshold(v: np.ndarray, lam: float) -> np.ndarray:
    """Nonnegative soft thresholding: elementwise max(v - lam, 0).

    This is the proximal operator of lam * sum(w) plus the nonnegativity
    indicator, the penalty used throughout this module.
    """
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    return np.maximum(np.asarray(v, dtype=np.float64) - lam, 0.0)


# Lanczos steps between two convergence checks (a check is one eigvalsh of
# the tridiagonal, about the cost of a few block products), their relative
# tolerance, and the cap on steps
RITZ_CHECK_EVERY, RITZ_TOL, RITZ_MAX_ITERS = 4, 1e-13, 300


def largest_sq_singular_value(*blocks) -> float:
    """Lanczos estimate of the largest eigenvalue of sum_i P_i^T P_i.

    ``blocks`` share one column count n and stand for their column stack
    [P_0; P_1; ...], which is never formed: a step applies
    v -> sum_i P_i^T (P_i v), so a :class:`Diagonal` block costs d*(d*v)
    and a :class:`Convolution` block two gathers and two products with its
    filter bank; any other block is taken as an array.

    The Lanczos process (Lanczos 1950), with full reorthogonalization,
    builds an orthonormal basis of a Krylov space one product at a time,
    at most min(``RITZ_MAX_ITERS``, n) vectors. The estimate is the top Ritz
    value, the largest eigenvalue of the operator projected on that basis,
    hence a lower bound on the eigenvalue up to rounding. Every
    ``RITZ_CHECK_EVERY`` steps it is compared with the previous check's,
    and the process stops when they agree to ``RITZ_TOL`` (relative) or when
    the basis is full; at n vectors the estimate is exact up to rounding.
    The start is a draw of a fixed-seed generator, so the estimate is
    deterministic: a structured start such as the ones vector can be
    orthogonal to the top eigenvector (a symmetric filter's odd modes) and
    converge below it. When the Krylov space turns invariant before n
    steps, the process continues from the generator's next draw,
    orthogonalized against the basis. Where the first product peaks past
    2**400, every product is scaled by a power of two that brings it near
    one, and the estimate scaled back: the squared norms of products past
    about 1e154 overflow. Scaling by a power of two is exact, and smaller
    products are left as they are.
    """
    blocks = [b if isinstance(b, (Diagonal, Convolution)) else np.asarray(b, dtype=np.float64)
              for b in blocks]
    n = blocks[0].shape[1]
    if n == 0:
        return 0.0
    size = min(RITZ_MAX_ITERS, n)

    def orthogonalize(v, known):  # twice is enough to keep the basis orthonormal
        for _ in range(2):
            v -= known.T @ (known @ v)
        return v

    # q is held with a zero row below it, so a conv block's product P_i q
    # reads it without the copy that padding an operand costs
    padded = np.zeros(n + 1)
    q = padded[:n]

    draws = np.random.default_rng(0)
    basis = np.empty((min(2 * RITZ_CHECK_EVERY, size), n))  # grown by doubling
    alphas, betas, prev = [], [], None
    q[...] = draws.standard_normal(n)
    q /= np.linalg.norm(q)
    for k in range(size):
        if k == len(basis):
            basis = np.concatenate((basis, np.empty((min(k, size - k), n))))
        basis[k] = q
        known = basis[:k + 1]
        w = sum(b.T @ b.matmul_padded(padded) if isinstance(b, Convolution) else b.T @ (b @ q)
                for b in blocks)
        if k == 0:
            peak = np.abs(w).max()
            shrink = 2.0 ** -math.frexp(peak)[1] if peak > 2.0 ** 400 else 1.0
        w *= shrink
        scale = np.linalg.norm(w)
        alphas.append(q @ w)
        beta = np.linalg.norm(orthogonalize(w, known))
        if (k + 1) % RITZ_CHECK_EVERY == 0 or k + 1 == size:
            # eigvalsh reads the lower triangle: the diagonal and the betas below it
            top = np.linalg.eigvalsh(np.diag(alphas) + np.diag(betas, -1))[-1]
            if k + 1 == size or prev is not None and abs(top - prev) <= RITZ_TOL * top:
                break
            prev = top
        if beta <= np.finfo(np.float64).eps * scale:  # rounding noise: an invariant space
            beta, w = 0.0, orthogonalize(draws.standard_normal(n), known)
            np.divide(w, np.linalg.norm(w), out=q)
        else:
            np.divide(w, beta, out=q)
        betas.append(beta)
    return max(float(top), 0.0) / shrink


STEP_MARGIN = 1.0 + 1e-6


def safe_step(*blocks) -> float:
    """Step 1/(L' * STEP_MARGIN) for gradients of 1/2||P w - y||^2.

    P is the column stack of ``blocks`` and L' the Lanczos estimate of
    its Lipschitz constant L = ||P||^2 (see
    :func:`largest_sq_singular_value`): a top Ritz value, a lower bound on
    L up to rounding. The margin covers a converged estimate, which sits
    within rounding of L; an estimate cut off at ``RITZ_MAX_ITERS`` before its
    Ritz values agree can sit further below L than the margin, and the
    step then exceeds 1/L by that gap. Any step below 2/L still makes each
    prox-linear step decrease the objective, which is what block descent
    relies on.
    """
    lip = largest_sq_singular_value(*blocks)
    if lip == 0.0:
        return 1.0
    return 1.0 / (lip * STEP_MARGIN)


@dataclass
class InferenceResult:
    """Codes plus bookkeeping from one inference run on one signal.

    ``objectives`` records the global objective after every cycle of block
    descent, or once at the end for the forward pass and layered pursuit;
    ``sparsity`` is the fraction of exactly-zero entries per layer;
    ``step_sizes`` are the per-layer steps the run took. A batch run
    shares its step sizes and splits its wall-clock time evenly over its
    signals.
    """

    codes: list[np.ndarray]
    objectives: list[float]
    sparsity: list[float]
    wall_clock: float
    method: str
    step_sizes: tuple[float, ...]

    @property
    def final_objective(self) -> float:
        return self.objectives[-1]


# one result for a signal given as a vector, a list of them for a batch
Results = InferenceResult | list[InferenceResult]


# ---------------------------------------------------------------------------
# global problems


def _per_layer(value, depth: int, what: str) -> list[float]:
    if np.isscalar(value):
        vals = [float(value)] * depth
    else:
        vals = [float(v) for v in value]
        if len(vals) != depth:
            raise ValueError(f"expected {depth} {what}, got {len(vals)}")
    for v in vals:
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{what} must be finite and nonnegative")
    return vals


def _check_input(frame: GlobalFrame, x: np.ndarray) -> np.ndarray:
    """The signals as an (n x m) matrix; a vector is one column."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"signals must be a vector or an (n x m) matrix, got {x.ndim}-D")
    if x.shape[0] != frame.row_dims[0]:
        raise ValueError(
            f"input has dimension {x.shape[0]}, frame expects {frame.row_dims[0]}"
        )
    x = x.reshape(x.shape[0], -1)
    if x.shape[1] == 0:
        raise ValueError("the signal batch is empty")
    # a NaN or infinite entry makes the squared norm non-finite too
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->j", x, x)))
    if bad.size:
        raise ValueError(f"input signals {bad.tolist()} have non-finite entries "
                         f"or squared norms that overflow")
    return x


def _flat(dims: Sequence[int], m: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """One zero (sum(d + 1) x m) buffer and a view per group of its d rows
    followed by one zero row, in order."""
    buf = np.zeros((sum(dims) + len(dims), m))
    offsets = accumulate((d + 1 for d in dims), initial=0)
    return buf, [buf[a:a + d + 1] for a, d in zip(offsets, dims)]


def _padded_product(block):
    """x_padded -> block @ x, for x held with one trailing zero row: a
    :class:`Convolution` gathers from it as it is, any other block reads
    the rows above it."""
    if isinstance(block, Convolution):
        return block.matmul_padded
    return lambda padded: block @ padded[:-1]


class _Batch:
    """The codes and residuals of m signals on one frame, kept in place.

    All codes share one flat buffer ``w`` and all residuals another, ``r``;
    each group holds its rows followed by one zero row there. ``codes[j]``
    and ``res[i]`` are the groups' views without that row, ``codes_pad[j]``
    and ``res_pad[i]`` with it: the operand a :class:`Convolution` gathers
    from without a copy. ``times[(i, j)]`` and ``adjoint[(i, j)]`` take a
    padded operand to placed[(i, j)] @ x and placed[(i, j)]^T @ x. ``lams``
    are the per-layer penalty weights. A fresh batch has zero codes and
    residuals.
    """

    def __init__(self, frame: GlobalFrame, m: int, lams: list[float]):
        self.frame, self.lams = frame, lams
        # lam_j on the rows of group j of w, 0 on its zero rows
        self._weights = np.concatenate([[lam] * d + [0.0]
                                        for lam, d in zip(lams, frame.col_dims)])
        self.w, self.codes_pad = _flat(frame.col_dims, m)
        self.r, self.res_pad = _flat(frame.row_dims, m)
        self.codes = [v[:-1] for v in self.codes_pad]
        self.res = [v[:-1] for v in self.res_pad]
        self._delta_pad = [np.zeros_like(v) for v in self.codes_pad]
        self.times = {key: _padded_product(b) for key, b in frame.placed.items()}
        self.adjoint = {key: _padded_product(b.T) for key, b in frame.placed.items()}

    @classmethod
    def zero_start(cls, frame: GlobalFrame, x: np.ndarray, lams: list[float]) -> _Batch:
        """All-zero codes and their residual [-X, 0, ..., 0]."""
        batch = cls(frame, x.shape[1], lams)
        np.negative(x, out=batch.res[0])
        return batch

    def refresh_residual(self, x: np.ndarray) -> None:
        """Per row group i, R_i = sum_k placed[(i, k)] @ W_k, minus X on row 0."""
        for i, cols in enumerate(self.frame.structure.cols_of):
            r = self.res[i]
            if i == 0:
                np.negative(x, out=r)
            else:
                r[...] = 0.0
            for k in cols:
                r += self.times[(i, k)](self.codes_pad[k])

    def objective(self) -> np.ndarray:
        """Per signal, the penalty plus 1/2 ||R||^2 for codes known to be
        nonnegative: one product of the per-row weights with ``w`` and one
        column-wise reduction of ``r``."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._weights @ self.w + 0.5 * np.einsum("ij,ij->j", self.r, self.r)

    def block_step(self, j: int, grad_rows, update_rows, step: float) -> None:
        """One prox-linear step on block j, updating codes[j] and res in place.

        The gradient is sum_i placed[(i, j)]^T R_i over ``grad_rows``; after
        the step each row in ``update_rows`` absorbs placed[(i, j)] @ (change
        in W_j). Rows of block j left out of ``update_rows`` go stale, and the
        caller owes them that change.
        """
        w = self.codes[j]
        grad = sum(self.adjoint[(i, j)](self.res_pad[i]) for i in grad_rows)
        new = prox_nonneg_soft_threshold(w - step * grad, step * self.lams[j])
        delta = self._delta_pad[j]
        np.subtract(new, w, out=delta[:-1])
        w[...] = new
        for i in update_rows:
            self.res[i] += self.times[(i, j)](delta)

    def sweep(self, steps: Sequence[float], own_row_only: bool) -> None:
        """One block step per block, ascending; every row the block touches absorbs it.

        Block j's gradient reads its own row alone (``own_row_only``) or every
        row group it touches.
        """
        for j, rows in enumerate(self.frame.structure.rows_of):
            self.block_step(j, (j,) if own_row_only else rows, rows, steps[j])


def objective_value(codes: list[np.ndarray], frame: GlobalFrame,
                    x: np.ndarray, lam) -> float:
    """The global objective at the given codes; inf if any entry is negative.

    Codes with a NaN or infinite entry are refused with a ValueError that
    names their layer.
    """
    x = _check_input(frame, np.asarray(x, dtype=np.float64).reshape(-1))
    lams = _per_layer(lam, frame.depth, "penalty weights")
    if len(codes) != frame.depth:
        raise ValueError(f"expected {frame.depth} code vectors, got {len(codes)}")
    batch = _Batch(frame, 1, lams)
    for j, w in enumerate(codes):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (frame.col_dims[j],):
            raise ValueError(
                f"layer {j}: code has shape {w.shape}, expected ({frame.col_dims[j]},)"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError(f"layer {j}: code has non-finite entries")
        batch.codes[j][:, 0] = w
    if np.any(batch.w < 0):
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        batch.refresh_residual(x)
    return float(batch.objective()[0])


def _finite(obj: np.ndarray, when: str) -> np.ndarray:
    """The per-signal objectives, refused with a :class:`DivergenceError`
    that names the first non-finite one. A code that overflowed makes the
    penalty, hence the objective, non-finite, so the solvers run their
    steps with overflow warnings off and check here instead."""
    bad = np.flatnonzero(~np.isfinite(obj))
    if bad.size:
        raise DivergenceError(f"iterates of signal {bad[0]} went non-finite {when}")
    return obj


def _results(x, batch: _Batch, objectives: list[np.ndarray],
             steps, start: float, method: str) -> Results:
    """One result per signal; a single one when the signals came as a vector."""
    codes = batch.codes
    m = batch.w.shape[1]
    wall = (time.perf_counter() - start) / m
    out = [InferenceResult(codes=[w[:, s].copy() for w in codes],
                           objectives=[float(obj[s]) for obj in objectives],
                           sparsity=[float(np.mean(w[:, s] == 0.0)) for w in codes],
                           wall_clock=wall, method=method, step_sizes=tuple(steps))
           for s in range(m)]
    return out[0] if np.ndim(x) == 1 else out


def feed_forward(x: np.ndarray, frame: GlobalFrame, lam) -> Results:
    """One thresholded forward pass through the architecture.

    Layer by layer, w_j = prox(B_jj^T u_j, lam_j) where u_j collects the
    couplings from already-computed codes (u_0 is the input). On a chain
    this is w_j = prox(B_j^T w_{j-1}); skip structures accumulate their
    extra couplings into u_j first. This is the own-row sweep of
    :func:`bcd_inference` from zero codes with unit steps, u_j = -R_j.
    ``x`` is one signal (one :class:`InferenceResult` back) or an (n x m)
    batch of signal columns (a list of m results).
    """
    start = time.perf_counter()
    signals = _check_input(frame, x)
    lams = _per_layer(lam, frame.depth, "penalty weights")
    steps = [1.0] * frame.depth
    batch = _Batch.zero_start(frame, signals, lams)
    with np.errstate(over="ignore", invalid="ignore"):
        batch.sweep(steps, own_row_only=True)
    return _results(x, batch, [_finite(batch.objective(), "in the forward pass")], steps, start,
                    "feed_forward")


def layered_basis_pursuit(x: np.ndarray, frame: GlobalFrame, lam,
                          budget: int = 100) -> Results:
    """Solve a chain layer by layer, each to its own optimum.

    Layer j's codes solve the shallow problem min 1/2||B_jj w - t||^2 +
    lam_j sum(w), w >= 0, with the previous layer's codes as the target t
    (the input for layer 0): ``budget`` own-row block steps from zero at
    a step just under 1/L of B_jj (computed once per call), which is
    nonnegative ISTA. On a depth-1 chain this is single-layer ISTA. The
    coupling row below absorbs layer j's final codes once, so layer j+1's
    target is exactly w_j. Only defined for chain connectivity. ``x`` is
    one signal or a batch of columns, as for :func:`feed_forward`.
    """
    start = time.perf_counter()
    if not frame.spec.is_chain:
        raise UnsupportedMethodError(
            "layered basis pursuit is defined layer-by-layer on chains; "
            f"this spec has {frame.spec.connectivity.kind!r} connectivity"
        )
    signals = _check_input(frame, x)
    lams = _per_layer(lam, frame.depth, "penalty weights")
    if budget < 1:
        raise ValueError("iteration budget must be at least 1")
    steps = [safe_step(frame.placed[(j, j)]) for j in range(frame.depth)]
    batch = _Batch.zero_start(frame, signals, lams)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, rows in enumerate(frame.structure.rows_of):
            for _ in range(budget):
                batch.block_step(j, (j,), (j,), steps[j])
            for i in rows[1:]:
                batch.res[i] += batch.times[(i, j)](batch.codes_pad[j])
    return _results(x, batch, [_finite(batch.objective(), "in layered pursuit")], steps, start,
                    "layered_bp")


def block_step_sizes(frame: GlobalFrame) -> tuple[float, ...]:
    """Automatic per-layer steps, just under 1/L_j of each column block.

    Column block j is the stack of the placed blocks of column group j;
    the Lanczos process runs on the blocks as placed.
    """
    return tuple(safe_step(*[frame.placed[(i, j)] for i in rows])
                 for j, rows in enumerate(frame.structure.rows_of))


def bcd_inference(x: np.ndarray, frame: GlobalFrame, lam, cycles: int = 100,
                  gamma="auto", init: Sequence[np.ndarray] | None = None) -> Results:
    """Block coordinate descent on the global objective.

    Cycles sweep the layers in ascending order, keeping the residual
    current. The first sweep from zero codes reads only each layer's own
    row (the rows below are zero at the sweep's start), which makes a
    single sweep with gamma=1 coincide exactly with :func:`feed_forward`;
    subsequent sweeps use full partial gradients. ``gamma`` is ``"auto"``
    (per-layer steps just under 1/L_j), a scalar, or a per-layer
    sequence. ``x`` is one signal or a batch of columns, as for
    :func:`feed_forward`. ``init`` replaces the default all-zero starting
    codes with per-layer arrays, shaped like the codes (a vector per layer
    for one signal, a (d_j x m) matrix for a batch); a custom start takes
    full sweeps from the first one.
    """
    start = time.perf_counter()
    signals = _check_input(frame, x)
    depth = frame.depth
    lams = _per_layer(lam, depth, "penalty weights")
    if cycles < 1:
        raise ValueError("cycle budget must be at least 1")
    if isinstance(gamma, str):
        if gamma != "auto":
            raise ValueError(f"unknown step mode {gamma!r}")
        steps = block_step_sizes(frame)
    else:
        steps = _per_layer(gamma, depth, "step sizes")

    if init is None:
        batch = _Batch.zero_start(frame, signals, lams)
    else:
        if len(init) != depth:
            raise ValueError(f"expected {depth} initial code blocks, got {len(init)}")
        single = np.ndim(x) == 1
        batch = _Batch(frame, signals.shape[1], lams)
        for j, block in enumerate(init):
            d = frame.col_dims[j]
            arr = np.asarray(block, dtype=float)
            shape = (d,) if single else (d, signals.shape[1])
            if single:
                arr = arr.reshape(-1)
            if arr.shape != shape:
                raise ValueError(f"initial codes for layer {j} have shape {arr.shape}, "
                                 f"expected {shape} (length {d} per signal)")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"initial codes for layer {j} must be finite and nonnegative")
            batch.codes[j][...] = arr.reshape(d, -1)
        batch.refresh_residual(signals)
    objectives: list[np.ndarray] = []

    with np.errstate(over="ignore", invalid="ignore"):
        for cycle in range(cycles):
            batch.sweep(steps, own_row_only=cycle == 0 and init is None)
            objectives.append(_finite(batch.objective(), f"at cycle {cycle + 1}"))

    return _results(x, batch, objectives, steps, start, "bcd")


__all__ = [
    "DivergenceError",
    "InferenceResult",
    "UnsupportedMethodError",
    "bcd_inference",
    "block_step_sizes",
    "feed_forward",
    "largest_sq_singular_value",
    "layered_basis_pursuit",
    "objective_value",
    "prox_nonneg_soft_threshold",
    "safe_step",
]
