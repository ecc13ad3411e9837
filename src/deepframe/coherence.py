"""Frame-quality measures: potential, coherence, and lower bounds.

All quantities are functions of the Gram matrix of the column-normalized
global operator. The central inequality bounds mutual coherence from below
by the root mean square structural off-diagonal element, which makes the
(normalized) squared Frobenius norm of the Gram matrix a data-independent
proxy for how well an architecture can avoid correlated columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .framebuild import (ConvGram, GlobalFrame, GramStructure, _column_squares, gram,
                         normalize)


def _as_gram(obj) -> GramStructure:
    if isinstance(obj, GramStructure):
        return obj
    if isinstance(obj, GlobalFrame):
        return gram(obj)
    mat = np.asarray(obj, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("expected a frame, a Gram structure, or a 2-D array")
    pattern = (np.abs(mat).T @ np.abs(mat)) > 0
    offdiag = int(pattern.sum()) - int(np.diagonal(pattern).sum())
    return GramStructure(blocks={(0, 0): ConvGram.one_site(mat.T @ mat, True)},
                         offdiag_count=offdiag)


def frame_potential(frame) -> float:
    """Squared Frobenius norm of the Gram matrix, sum of |<b_i, b_j>|^2.

    Accepts a :class:`GlobalFrame`, a precomputed :class:`GramStructure`,
    or a plain matrix of columns. No normalization is applied here; pass a
    normalized frame to get the scale-free value.
    """
    return _as_gram(frame).frobenius_sq()


def mutual_coherence(frame) -> float:
    """Largest |cosine| between two distinct columns of the operator.

    Columns are normalized internally, so the result is scale free and
    lies in [0, 1]. Raises on zero columns (via normalization); a NaN
    entry makes the result NaN.
    """
    if isinstance(frame, GlobalFrame):
        target = frame if frame.normalized else normalize(frame)[0]
        g = gram(target)
    elif isinstance(frame, GramStructure):
        g = frame
    else:
        mat = np.asarray(frame, dtype=np.float64)
        norms = np.linalg.norm(mat, axis=0)
        dead = np.nonzero(norms == 0.0)[0]
        if dead.size:
            raise ValueError(f"columns {dead.tolist()} have zero norm")
        g = _as_gram(mat / norms)

    peaks = [blk.max_offdiag() for blk in g.blocks.values()]
    return float(np.minimum(np.max(peaks, initial=0.0), 1.0))


def averaged_potential_bound(fp: float, trace: float, offdiag_count: int) -> float | None:
    """Root mean square off-diagonal Gram element, a lower bound on coherence.

    Returns sqrt((fp - trace) / offdiag_count), or None when the structure
    has no off-diagonal entries at all (orthogonality is then attainable
    and the bound is vacuous).
    """
    if offdiag_count == 0:
        return None
    return math.sqrt(max(fp - trace, 0.0) / offdiag_count)


def welch_bound(d: int, k: int) -> float:
    """Minimum achievable coherence of k unit vectors in d dimensions.

    Zero when k <= d, where an orthonormal set fits.
    """
    if k < 2:
        raise ValueError("welch_bound needs at least two columns")
    if k <= d:
        return 0.0
    return math.sqrt((k / d - 1.0) / (k - 1.0))


def conv_welch_bound(p: int, s: int, f: int, d: int, k: int) -> float:
    """Coherence lower bound of a 2-D convolutional frame.

    Accounts for the repeating sparse structure: with o = ceil(f/s)
    overlapping windows per axis, the bound is

        sqrt((k/(d s^2) - 1) / (k((2 - (o-1)s/p)o - 1)^2 - 1)),

    reported as 0 when the numerator is nonpositive (orthogonality is not
    excluded by this argument).
    """
    if k < 2:
        raise ValueError("conv_welch_bound needs at least two filters")
    if p < 1 or s < 1 or f < 1 or d < 1:
        raise ValueError("degenerate convolution geometry")
    if f > p:
        raise ValueError(f"filter size {f} exceeds grid size {p}")
    o = -(-f // s)
    num = k / (d * s * s) - 1.0
    if num <= 0.0:
        return 0.0
    den = k * ((2.0 - (o - 1) * s / p) * o - 1.0) ** 2 - 1.0
    return math.sqrt(num / den)


def conv_welch_limit(f: int, d: int, k: int) -> float:
    """Large-grid limit of :func:`conv_welch_bound` at stride 1.

    Equals sqrt((k/d - 1) / (k(2f - 1)^2 - 1)); with f = 1 this reduces to
    the dense bound of :func:`welch_bound`.
    """
    if k < 2:
        raise ValueError("conv_welch_limit needs at least two filters")
    if f < 1 or d < 1:
        raise ValueError("degenerate convolution geometry")
    num = k / d - 1.0
    if num <= 0.0:
        return 0.0
    return math.sqrt(num / (k * (2 * f - 1) ** 2 - 1.0))


def chain_lower_bound(dims: Sequence[int], magnitudes: Sequence[np.ndarray]) -> float:
    """Analytic lower bound on the frame potential of a normalized chain.

    ``dims`` lists [k_0, ..., k_l] (input dimension followed by the layer
    widths); ``magnitudes[j]`` holds the positive column norms of layer
    j's unnormalized diagonal block (length k_{j+1... }, i.e. dims[j+1]).

    The off-diagonal couplings between consecutive row groups have exactly
    computable norms sum_n (c_n / (c_n^2 + 1))^2; the diagonal row blocks
    are bounded below by trace^2 / rows (Cauchy-Schwarz). Depth one
    reduces to k_1^2 / k_0.
    """
    dims = [int(v) for v in dims]
    if len(dims) < 2:
        raise ValueError("dims must list the input dimension and at least one width")
    depth = len(dims) - 1
    if len(magnitudes) != depth:
        raise ValueError(f"expected {depth} magnitude vectors, got {len(magnitudes)}")
    mags = []
    for j, c in enumerate(magnitudes):
        c = np.asarray(c, dtype=np.float64).reshape(-1)
        if c.size != dims[j + 1]:
            raise ValueError(f"layer {j}: expected {dims[j + 1]} magnitudes, got {c.size}")
        if np.any(c <= 0.0):
            raise ValueError(f"layer {j}: magnitudes must be positive")
        mags.append(c)

    if depth == 1:
        return dims[1] ** 2 / dims[0]

    aug = [c * c / (c * c + 1.0) for c in mags]       # c^2/(c^2+1) per column
    res = [1.0 / (c * c + 1.0) for c in mags]         # leftover identity mass

    total = (float(np.sum(aug[0])) ** 2) / dims[0]
    for j in range(1, depth - 1):
        tr = float(np.sum(aug[j])) + float(np.sum(res[j - 1]))
        total += tr * tr / dims[j]
    tr_last = dims[depth] + float(np.sum(res[depth - 2]))
    total += tr_last * tr_last / dims[depth - 1]
    for j in range(depth - 1):
        c = mags[j]
        total += 2.0 * float(np.sum((c / (c * c + 1.0)) ** 2))
    return total


@dataclass(frozen=True)
class SparsityThresholds:
    """Support sizes below which sparse recovery guarantees hold."""

    uniqueness: float
    bp_recovery: float
    stability: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.uniqueness, self.bp_recovery, self.stability)


def sparsity_guarantee_thresholds(mu: float) -> SparsityThresholds:
    """The three coherence-based sparse recovery thresholds.

    Codes with support size below ``uniqueness`` = (1 + 1/mu)/2 are the
    unique sparsest solutions; below ``bp_recovery`` = (sqrt(2) - 0.5)/mu
    convex relaxation finds them efficiently even with noise; below
    ``stability`` = (1 + 1/mu)/4 the approximation error stays bounded.
    Coherence zero makes all three unbounded.
    """
    if mu < 0.0 or mu > 1.0:
        raise ValueError(f"coherence must lie in [0, 1], got {mu}")
    if mu == 0.0:
        return SparsityThresholds(math.inf, math.inf, math.inf)
    return SparsityThresholds(
        uniqueness=0.5 * (1.0 + 1.0 / mu),
        bp_recovery=(math.sqrt(2.0) - 0.5) / mu,
        stability=0.25 * (1.0 + 1.0 / mu),
    )


CSV_FIELDS = (
    "name", "rows", "cols", "param_count", "frame_potential", "trace",
    "offdiag_count", "averaged_bound", "mutual_coherence", "welch_bound",
    "chain_lower_bound",
)


@dataclass
class CoherenceReport:
    """Frame-quality summary of one architecture, on its normalized frame."""

    name: str | None
    rows: int
    cols: int
    param_count: int
    frame_potential: float
    trace: float
    offdiag_count: int
    averaged_bound: float | None
    mutual_coherence: float
    welch_bound: float | None = None
    chain_lower_bound: float | None = None

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in CSV_FIELDS}

    def csv_row(self) -> list[str]:
        out = []
        for f in CSV_FIELDS:
            v = getattr(self, f)
            if v is None:
                out.append("")
            elif isinstance(v, float):
                out.append(repr(v))
            else:
                out.append(str(v))
        return out


def analyze(frame: GlobalFrame) -> CoherenceReport:
    """Normalize a frame, compute its Gram, and summarize its quality.

    The Welch-type bound reported depends on structure: the convolutional
    form for a single 2-D convolutional layer, the dense form otherwise (on
    the global operator's dimensions), and none below two filters or two
    columns, where neither form applies. Chain specs also get the analytic
    potential lower bound evaluated at the frame's column magnitudes.
    """
    spec = frame.spec
    if frame.normalized:
        normalized = frame
        chain_mags = None
    else:
        chain_mags = [np.sqrt(_column_squares(frame.placed[(j, j)]))
                      for j in range(frame.depth)] if spec.is_chain else None
        normalized = normalize(frame)[0]
    g = gram(normalized)
    fp = g.frobenius_sq()
    mu = mutual_coherence(g)
    rows, cols = normalized.shape

    ly, wb = spec.layers[0], None
    if spec.depth == 1 and ly.is_conv and ly.ndim == 2:
        if ly.width >= 2:
            wb = conv_welch_bound(ly.spatial, ly.stride, ly.filter_size,
                                  ly.channels, ly.width)
    elif cols >= 2:
        wb = welch_bound(rows, cols)

    clb = None
    if spec.is_chain and chain_mags is not None:
        k0 = spec.row_dims[0]
        clb = chain_lower_bound([k0, *spec.col_dims], chain_mags)

    return CoherenceReport(
        name=spec.name,
        rows=rows,
        cols=cols,
        param_count=frame.structure.param_count,
        frame_potential=fp,
        trace=g.trace,
        offdiag_count=g.offdiag_count,
        averaged_bound=averaged_potential_bound(fp, g.trace, g.offdiag_count),
        mutual_coherence=mu,
        welch_bound=wb,
        chain_lower_bound=clb,
    )


__all__ = [
    "CSV_FIELDS",
    "CoherenceReport",
    "SparsityThresholds",
    "analyze",
    "averaged_potential_bound",
    "chain_lower_bound",
    "conv_welch_bound",
    "conv_welch_limit",
    "frame_potential",
    "mutual_coherence",
    "sparsity_guarantee_thresholds",
    "welch_bound",
]
