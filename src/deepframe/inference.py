"""Sparse inference over global operators.

Three ways to produce per-layer codes for an input signal, from cheapest to
most exact: a single thresholded forward pass, per-layer sparse coding
down a chain, and block coordinate descent on the global objective

    1/2 ||x - B_00 w_0||^2
        + sum_{j>=1} 1/2 ||B_jj w_j - sum_{k<j} B_jk^T w_k||^2
        + sum_j lam_j * sum(w_j),   codes constrained nonnegative,

which is 1/2 ||B w - [x; 0; ...; 0]||^2 plus the penalty for the global
operator B. All three are schedules of one nonnegative prox-linear block
step on a kept residual R = B w - [x; 0; ...; 0], one vector per row
group. A block step costs one product with its column block for the
gradient and one for the residual update, and objectives are read off R.
Block descent and the forward pass sweep the blocks in ascending order;
layered pursuit takes many steps on one block before moving to the next.

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

import numpy as np

from .framebuild import GlobalFrame


class UnsupportedMethodError(ValueError):
    """The requested inference method does not apply to this structure."""


class DivergenceError(RuntimeError):
    """An iterate went non-finite; the message names the failing cycle."""


def prox_nonneg_soft_threshold(v: np.ndarray, lam: float) -> np.ndarray:
    """Nonnegative soft thresholding: elementwise max(v - lam, 0).

    This is the proximal operator of lam * sum(w) plus the nonnegativity
    indicator, the penalty used throughout this module.
    """
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    return np.maximum(np.asarray(v, dtype=np.float64) - lam, 0.0)


def largest_sq_singular_value(mat: np.ndarray, tol: float = 1e-13,
                              max_iters: int = 300) -> float:
    """Largest eigenvalue of mat^T mat by power iteration.

    Deterministic start (ones vector, then a fixed perturbation if that
    lands in a null space). The estimate converges from below for the
    dominant eigenvalue, so callers that need a guaranteed bound should
    inflate it slightly; see :func:`safe_step`.
    """
    mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[1]
    if n == 0:
        return 0.0
    v = np.ones(n) / math.sqrt(n)
    w = mat.T @ (mat @ v)
    prev = 0.0
    for it in range(max_iters):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            if it == 0:
                v = np.arange(1.0, n + 1.0)
                v /= np.linalg.norm(v)
                w = mat.T @ (mat @ v)
                continue
            return 0.0
        v = w / norm
        w = mat.T @ (mat @ v)
        est = float(v @ w)
        if abs(est - prev) <= tol * max(est, 1.0):
            return est
        prev = est
    return prev


STEP_MARGIN = 1.0 + 1e-6


def safe_step(mat: np.ndarray) -> float:
    """A step size certainly below 1/L for gradients of 1/2||mat w - y||^2."""
    lip = largest_sq_singular_value(mat)
    if lip == 0.0:
        return 1.0
    return 1.0 / (lip * STEP_MARGIN)


@dataclass
class InferenceResult:
    """Codes plus bookkeeping from one inference run.

    ``objectives`` records the global objective after every cycle of block
    descent, or once at the end for the forward pass and layered pursuit;
    ``sparsity`` is the fraction of exactly-zero entries per layer.
    """

    codes: list[np.ndarray]
    objectives: list[float]
    sparsity: list[float]
    wall_clock: float
    method: str

    @property
    def final_objective(self) -> float:
        return self.objectives[-1]


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
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != frame.row_dims[0]:
        raise ValueError(
            f"input has dimension {x.shape[0]}, frame expects {frame.row_dims[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("input signal has non-finite entries")
    return x


def _residual(frame: GlobalFrame, codes: list[np.ndarray],
              x: np.ndarray) -> list[np.ndarray]:
    """Per row group i, sum_k placed[(i, k)] @ w_k, minus x on row 0."""
    res = []
    for i in range(frame.depth):
        r = -x if i == 0 else np.zeros(frame.row_dims[i])
        for k in frame.structure.cols_of[i]:
            r += frame.placed[(i, k)] @ codes[k]
        res.append(r)
    return res


def _zero_start(frame: GlobalFrame, x: np.ndarray):
    """All-zero codes and their residual [-x, 0, ..., 0]."""
    codes = [np.zeros(d) for d in frame.col_dims]
    res = [-x] + [np.zeros(d) for d in frame.row_dims[1:]]
    return codes, res


def _objective(res: list[np.ndarray], codes: list[np.ndarray],
               lams: list[float]) -> float:
    """The penalty plus 1/2 ||R||^2 for codes known to be nonnegative."""
    total = 0.0
    for lam, w in zip(lams, codes):
        total += lam * float(np.sum(w))
    with np.errstate(over="ignore", invalid="ignore"):
        for r in res:
            total += 0.5 * float(r @ r)
    return total


def objective_value(codes: list[np.ndarray], frame: GlobalFrame,
                    x: np.ndarray, lam) -> float:
    """The global objective at the given codes; inf if any entry is negative."""
    x = _check_input(frame, x)
    lams = _per_layer(lam, frame.depth, "penalty weights")
    if len(codes) != frame.depth:
        raise ValueError(f"expected {frame.depth} code vectors, got {len(codes)}")
    codes = [np.asarray(w, dtype=np.float64) for w in codes]
    for j, w in enumerate(codes):
        if w.shape != (frame.col_dims[j],):
            raise ValueError(
                f"layer {j}: code has shape {w.shape}, expected ({frame.col_dims[j]},)"
            )
        if np.any(w < 0):
            return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        res = _residual(frame, codes, x)
    return _objective(res, codes, lams)


def _block_step(frame: GlobalFrame, codes: list[np.ndarray], res: list[np.ndarray],
                j: int, grad_rows, update_rows, step: float, lam: float) -> None:
    """One prox-linear step on block j, updating codes[j] and res in place.

    The gradient is sum_i placed[(i, j)]^T R_i over ``grad_rows``; after
    the step each row in ``update_rows`` absorbs placed[(i, j)] @ (change
    in w_j). Rows of block j left out of ``update_rows`` go stale, and the
    caller owes them that change.
    """
    grad = sum(frame.placed[(i, j)].T @ res[i] for i in grad_rows)
    new = prox_nonneg_soft_threshold(codes[j] - step * grad, step * lam)
    delta = new - codes[j]
    codes[j] = new
    for i in update_rows:
        res[i] += frame.placed[(i, j)] @ delta


def _sweep(frame: GlobalFrame, codes: list[np.ndarray], res: list[np.ndarray],
           steps: list[float], lams: list[float], own_row_only: bool) -> None:
    """One block step per block, ascending; every row the block touches absorbs it.

    Block j's gradient reads its own row alone (``own_row_only``) or every
    row group it touches.
    """
    for j, rows in enumerate(frame.structure.rows_of):
        _block_step(frame, codes, res, j, (j,) if own_row_only else rows, rows,
                    steps[j], lams[j])


def _sparsity(codes: list[np.ndarray]) -> list[float]:
    return [float(np.mean(w == 0.0)) for w in codes]


def feed_forward(x: np.ndarray, frame: GlobalFrame, lam) -> InferenceResult:
    """One thresholded forward pass through the architecture.

    Layer by layer, w_j = prox(B_jj^T u_j, lam_j) where u_j collects the
    couplings from already-computed codes (u_0 is the input). On a chain
    this is w_j = prox(B_j^T w_{j-1}); skip structures accumulate their
    extra couplings into u_j first. This is the own-row sweep of
    :func:`bcd_inference` from zero codes with unit steps, u_j = -R_j.
    """
    start = time.perf_counter()
    x = _check_input(frame, x)
    lams = _per_layer(lam, frame.depth, "penalty weights")
    codes, res = _zero_start(frame, x)
    _sweep(frame, codes, res, [1.0] * frame.depth, lams, own_row_only=True)
    return InferenceResult(codes=codes, objectives=[_objective(res, codes, lams)],
                           sparsity=_sparsity(codes),
                           wall_clock=time.perf_counter() - start,
                           method="feed_forward")


def layered_basis_pursuit(x: np.ndarray, frame: GlobalFrame, lam,
                          budget: int = 100) -> InferenceResult:
    """Solve a chain layer by layer, each to its own optimum.

    Layer j's codes solve the shallow problem min 1/2||B_jj w - t||^2 +
    lam_j sum(w), w >= 0, with the previous layer's codes as the target t
    (the input for layer 0): ``budget`` own-row block steps from zero at
    a step just under 1/L of B_jj (computed once per frame), which is
    nonnegative ISTA. On a depth-1 chain this is single-layer ISTA. The
    coupling row below absorbs layer j's final codes once, so layer j+1's
    target is exactly w_j. Only defined for chain connectivity.
    """
    start = time.perf_counter()
    if not frame.spec.is_chain:
        raise UnsupportedMethodError(
            "layered basis pursuit is defined layer-by-layer on chains; "
            f"this spec has {frame.spec.connectivity.kind!r} connectivity"
        )
    x = _check_input(frame, x)
    lams = _per_layer(lam, frame.depth, "penalty weights")
    if budget < 1:
        raise ValueError("iteration budget must be at least 1")
    steps = _cached_steps(frame, "diagonal", lambda j: frame.placed[(j, j)])
    codes, res = _zero_start(frame, x)
    for j, rows in enumerate(frame.structure.rows_of):
        for _ in range(budget):
            _block_step(frame, codes, res, j, (j,), (j,), steps[j], lams[j])
        for i in rows[1:]:
            res[i] += frame.placed[(i, j)] @ codes[j]
    return InferenceResult(codes=codes, objectives=[_objective(res, codes, lams)],
                           sparsity=_sparsity(codes),
                           wall_clock=time.perf_counter() - start,
                           method="layered_bp")


def _cached_steps(frame: GlobalFrame, kind: str, operator) -> tuple[float, ...]:
    """Per-layer :func:`safe_step` of ``operator(j)``, computed once per frame."""
    steps = frame.step_sizes.get(kind)
    if steps is None:
        steps = tuple(safe_step(operator(j)) for j in range(frame.depth))
        frame.step_sizes[kind] = steps
    return steps


def block_step_sizes(frame: GlobalFrame) -> tuple[float, ...]:
    """Automatic per-layer steps, just under 1/L_j of each column block.

    Computed once per frame and reused by later calls.
    """
    return _cached_steps(frame, "column", frame.column_block)


def bcd_inference(x: np.ndarray, frame: GlobalFrame, lam, cycles: int = 100,
                  gamma="auto",
                  init: Sequence[np.ndarray] | None = None) -> InferenceResult:
    """Block coordinate descent on the global objective.

    Cycles sweep the layers in ascending order, keeping the residual
    current. The first sweep from zero codes reads only each layer's own
    row (the rows below are zero at the sweep's start), which makes a
    single sweep with gamma=1 coincide exactly with :func:`feed_forward`;
    subsequent sweeps use full partial gradients. ``gamma`` is ``"auto"``
    (per-layer steps just under 1/L_j), a scalar, or a per-layer
    sequence. ``init`` replaces the default all-zero starting codes with
    per-layer arrays; a custom start takes full sweeps from the first one.
    """
    start = time.perf_counter()
    x = _check_input(frame, x)
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
        codes, res = _zero_start(frame, x)
    else:
        if len(init) != depth:
            raise ValueError(f"expected {depth} initial code blocks, got {len(init)}")
        codes = []
        for j, block in enumerate(init):
            arr = np.asarray(block, dtype=float).reshape(-1)
            if arr.shape[0] != frame.col_dims[j]:
                raise ValueError(
                    f"initial codes for layer {j} have length {arr.shape[0]}, "
                    f"expected {frame.col_dims[j]}"
                )
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"initial codes for layer {j} must be finite and nonnegative")
            codes.append(arr.copy())
        res = _residual(frame, codes, x)
    objectives: list[float] = []

    for cycle in range(cycles):
        _sweep(frame, codes, res, steps, lams,
               own_row_only=cycle == 0 and init is None)
        # a non-finite code makes the penalty, hence the objective, non-finite
        obj = _objective(res, codes, lams)
        if not math.isfinite(obj):
            raise DivergenceError(f"iterates went non-finite at cycle {cycle + 1}")
        objectives.append(obj)

    return InferenceResult(codes=codes, objectives=objectives,
                           sparsity=_sparsity(codes),
                           wall_clock=time.perf_counter() - start,
                           method="bcd")


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
