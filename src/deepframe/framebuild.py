"""Construction of global synthesis operators from architecture specs.

The induced operator is block lower triangular over (row group, layer)
pairs: diagonal blocks enter with a positive sign, off-diagonal blocks are
stored in their natural orientation and enter negated and transposed.
Storage is block sparse (a dense array per learnable block, a
:class:`Diagonal` per identity coupling); a full dense matrix is
materialized on demand only for small operators. What does not depend on
parameter values (blocks, offsets, convolution index maps, Gram block
pairs, the structural off-diagonal count) is compiled once per spec into
a :class:`FrameStructure`, which values fill in.

Convolution blocks are linear operators that place every filter at every
output grid position (zero padding, "same"-style, window t starts at
t*stride - (f-1)//2). Column order is filter-major then position; row
order is channel-major then pixel. Applying the operator synthesizes a
signal from coefficient maps; applying its transpose correlates the
filters with a signal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .archspec import (ArchitectureSpec, BlockDef, LayerSpec, block_table,
                       blocks_param_count)

MATERIALIZE_COL_LIMIT = 4096


class FrameBuildError(ValueError):
    """Raised for parameter/shape problems while assembling an operator."""


# ---------------------------------------------------------------------------
# convolution operators


@functools.lru_cache(maxsize=256)
def conv_operator_entries(channels: int, filters: int, spatial: int,
                          filter_size: int, stride: int, ndim: int):
    """Index triplets (rows, cols, taps) of the synthesis conv matrix.

    The matrix has shape (channels * spatial**ndim, filters * q**ndim) with
    q = ceil(spatial / stride), and entry (rows[i], cols[i]) equals
    filter_bank.flat[taps[i]]. Window positions falling outside the grid
    are dropped (zero padding). Entries are ordered by filter, then output
    position, then channel, then tap (row-major over every grid axis), so
    reductions over ``taps`` sum in a fixed order. Results are cached per
    geometry and shared; callers must not modify the returned arrays.
    """
    if ndim not in (1, 2):
        raise ValueError(f"ndim must be 1 or 2, got {ndim}")
    p, f, s = spatial, filter_size, stride
    q = -(-p // s)
    pad = (f - 1) // 2
    # broadcast grid over (filter, position..., channel, tap...)
    n_axes = 2 + 2 * ndim

    def axis(length: int, k: int) -> np.ndarray:
        shape = [1] * n_axes
        shape[k] = length
        return np.arange(length, dtype=np.intp).reshape(shape)

    pos = [axis(q, 1 + d) for d in range(ndim)]
    tap = [axis(f, 2 + ndim + d) for d in range(ndim)]
    coord = [t * s - pad + u for t, u in zip(pos, tap)]
    rows = axis(channels, 1 + ndim)
    cols = axis(filters, 0)
    taps = cols * channels + rows
    inside = True
    for t, u, x in zip(pos, tap, coord):
        rows = rows * p + x
        cols = cols * q + t
        taps = taps * f + u
        inside = inside & (x >= 0) & (x < p)
    grid = np.broadcast_shapes(rows.shape, cols.shape, taps.shape)
    inside = np.broadcast_to(inside, grid)
    shape = (channels * p ** ndim, filters * q ** ndim)
    return (np.broadcast_to(rows, grid)[inside],
            np.broadcast_to(cols, grid)[inside],
            np.broadcast_to(taps, grid)[inside],
            shape)


def conv_gram_nonzeros(layer: LayerSpec) -> int:
    """Structural off-diagonal count of a single 2-D conv layer's Gram.

    Counts ordered column pairs whose placed supports can overlap: with
    q = ceil(p/s) output positions per axis and o = ceil(f/s) overlapping
    windows, each axis admits a = o(2q - o + 1) - q ordered position pairs,
    and the full count is k(k a^2 - q^2).
    """
    if not layer.is_conv or layer.ndim != 2:
        raise ValueError("structural count formula applies to 2-D convolutional layers")
    p, f, s, k = layer.spatial, layer.filter_size, layer.stride, layer.width
    q = -(-p // s)
    o = -(-f // s)
    a = o * (2 * q - o + 1) - q
    return k * (k * a * a - q * q)


# ---------------------------------------------------------------------------
# the global operator


@dataclass(eq=False)
class Diagonal:
    """A square block held as its diagonal ``d``: +-1 for an identity coupling,
    +-1/norm after :func:`normalize`. ``D @ x`` scales the rows of a vector or
    matrix, ``M @ D`` the columns of a matrix, ``D @ D`` is the product as a
    dense matrix, ``shape`` is the square block's, and ``np.asarray(D)`` is
    the dense block."""

    d: np.ndarray
    __array_ufunc__ = None  # so ndarray @ Diagonal defers to __rmatmul__
    T = property(lambda self: self)
    shape = property(lambda self: self.d.shape * 2)

    def __matmul__(self, other):
        if isinstance(other, Diagonal):
            return np.diag(self.d * other.d)
        return (self.d if np.ndim(other) == 1 else self.d[:, None]) * other

    def __rmatmul__(self, other: np.ndarray) -> np.ndarray:
        return other * self.d

    def __truediv__(self, norms: np.ndarray) -> Diagonal:
        return Diagonal(self.d / norms)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.diag(self.d).astype(dtype, copy=False)


class FrameStructure:
    """The value-independent description of a spec's global operator.

    Holds the block table, the row/column offsets of every group, the row
    groups of each column group (``rows_of``) and the column groups of
    each row group (``cols_of``), the convolution index maps of the
    learnable conv blocks, and, per Gram block pair (j, k) with j <= k,
    the row groups both column groups touch (``shared``; pairs sharing
    none are absent). Parameter values only fill it in: see :meth:`build`.
    """

    def __init__(self, spec: ArchitectureSpec):
        self.spec = spec
        self.blocks = tuple(block_table(spec))
        self.learnable = tuple(b for b in self.blocks if b.role == "learnable")
        self.row_dims = spec.row_dims
        self.col_dims = spec.col_dims
        self.row_off = tuple(accumulate(self.row_dims, initial=0))
        self.col_off = tuple(accumulate(self.col_dims, initial=0))
        depth = spec.depth
        self.rows_of = tuple(tuple(b.row for b in self.blocks if b.col == j)
                             for j in range(depth))
        self.cols_of = tuple(tuple(b.col for b in self.blocks if b.row == i)
                             for i in range(depth))
        self.conv_entries = {
            (b.row, b.col): conv_operator_entries(
                channels=b.conv["channels"], filters=b.conv["filters"],
                spatial=b.conv["spatial"], filter_size=b.conv["filter"],
                stride=b.conv["stride"], ndim=b.conv["ndim"])
            for b in self.learnable if b.form == "conv"
        }
        self.shared = {}
        for j in range(depth):
            for k in range(j, depth):
                rows = sorted(set(self.rows_of[j]) & set(self.rows_of[k]))
                if rows:
                    self.shared[(j, k)] = tuple(rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_off[-1], self.col_off[-1])

    @property
    def param_count(self) -> int:
        """Learnable scalar count, read off the compiled block table."""
        return blocks_param_count(self.blocks)

    @functools.cached_property
    def offdiag_count(self) -> int:
        """Structurally nonzero off-diagonal entries of the Gram matrix.

        Counts ordered column pairs whose placed supports overlap; values
        play no part. Per shared row group, the overlap pattern is a
        product of the two blocks' class supports (see
        :meth:`_column_classes`) expanded to columns by indexing; identity
        blocks need no product. The patterns of all shared row groups of a
        Gram block pair are OR-ed together. Computed on first use.
        """
        classes = {(b.row, b.col): self._column_classes(b) for b in self.blocks}
        count = 0
        for (j, k), rows in self.shared.items():
            pattern = np.zeros((self.col_dims[j], self.col_dims[k]), dtype=bool)
            for i in rows:
                pattern |= _overlap(classes[(i, j)], classes[(i, k)], self.row_dims[i])
            if j == k:
                count += np.count_nonzero(pattern) - np.count_nonzero(np.diagonal(pattern))
            else:
                count += 2 * np.count_nonzero(pattern)
        return int(count)

    def _column_classes(self, b: BlockDef) -> tuple[np.ndarray, np.ndarray] | None:
        """The distinct column supports of a placed block.

        Returns (classes, support) such that column c of the placed block
        touches exactly the rows where ``support[classes[c]]`` is True, or
        None for an identity block (every column its own class, touching
        its own row). A dense block has one class. A diagonal conv block's
        class is the output position ``c % q**ndim``, since every filter at
        one position touches the same rows; an off-diagonal conv block
        (placed as -stored.T) has a (channel, pixel) per column and its
        class is the pixel ``c % p**ndim``.
        """
        if b.role == "identity":
            return None
        n_rows, n_cols = b.placed_shape
        if b.form == "dense":
            return np.zeros(n_cols, dtype=np.intp), np.ones((1, n_rows), dtype=bool)
        rows, cols, _, _ = self.conv_entries[(b.row, b.col)]
        if b.is_diagonal:
            n_classes = n_cols // b.conv["filters"]
        else:
            n_classes = n_cols // b.conv["channels"]
            rows, cols = cols, rows
        support = np.zeros((n_classes, n_rows), dtype=bool)
        support[cols % n_classes, rows] = True
        return np.arange(n_cols, dtype=np.intp) % n_classes, support

    def build(self, params: dict[tuple[int, int], np.ndarray] | None = None,
              seed: int | None = None) -> GlobalFrame:
        """Fill parameter values into the structure.

        Either pass ``params`` (one array per learnable block, keyed by
        (j, k), stored orientation as in
        :func:`deepframe.archspec.block_table`) or a ``seed`` for Gaussian
        initialization with per-block scale 1/sqrt(fan-in). Missing,
        misshapen, non-finite and unknown blocks are refused together.
        """
        if params is None:
            if seed is None:
                raise FrameBuildError("random initialization needs an explicit seed")
            rng = np.random.default_rng(seed)
            params = {(b.row, b.col): _init_block(b, rng) for b in self.learnable}
        else:
            errors = []
            want = {(b.row, b.col): b.shape for b in self.learnable}
            for key in sorted(want):
                if key not in params:
                    errors.append(f"block {key}: missing parameters")
                else:
                    got = np.asarray(params[key]).shape
                    if got != want[key]:
                        errors.append(f"block {key}: expected shape {want[key]}, got {got}")
                    elif not np.all(np.isfinite(params[key])):
                        errors.append(f"block {key}: non-finite parameter values")
            for key in sorted(set(params) - set(want)):
                errors.append(f"block {key}: spec has no learnable block there")
            if errors:
                raise FrameBuildError("; ".join(errors))
            params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

        placed: dict[tuple[int, int], np.ndarray | Diagonal] = {}
        for b in self.blocks:
            key = (b.row, b.col)
            if b.role == "identity":
                placed[key] = Diagonal(np.full(b.placed_shape[0], 1.0 if b.is_diagonal else -1.0))
                continue
            stored = params[key]
            if b.form == "conv":
                rows, cols, taps, shape = self.conv_entries[key]
                mat = np.zeros(shape)
                mat[rows, cols] = stored.reshape(-1)[taps]
                stored = mat
            placed[key] = stored if b.is_diagonal else -stored.T
            if b.is_diagonal:
                refuse_dead_columns(key, np.einsum("ij,ij->j", stored, stored))
        return GlobalFrame(structure=self, params=params, placed=placed)


def refuse_dead_columns(key: tuple[int, int], col_sq: np.ndarray) -> None:
    """Raise FrameBuildError if the diagonal block at ``key`` has a zero column.

    ``col_sq`` holds the block's per-column sums of squares.
    """
    dead = np.nonzero(col_sq == 0.0)[0]
    if dead.size:
        raise FrameBuildError(f"diagonal block {key} has zero columns at {dead.tolist()}")


def _overlap(a, b, n: int) -> np.ndarray:
    """Column-pair overlap pattern of two placed blocks on one n-row group.

    ``a`` and ``b`` are :meth:`FrameStructure._column_classes` results.
    """
    if a is None and b is None:
        return np.eye(n, dtype=bool)
    if a is None:
        classes, support = b
        return support[classes].T
    if b is None:
        classes, support = a
        return support[classes]
    (classes_a, support_a), (classes_b, support_b) = a, b
    return (support_a @ support_b.T)[classes_a][:, classes_b]


@dataclass
class GlobalFrame:
    """A built global operator.

    ``structure`` is the value-independent :class:`FrameStructure` it was
    built from; ``params`` maps learnable block positions to their stored
    parameter arrays; ``placed`` maps every structural block position to
    the (signed) submatrix of the operator: a dense array for a learnable
    block, a :class:`Diagonal` for an identity coupling. ``normalized``
    marks frames produced by :func:`normalize`, whose placed columns have
    unit norm and whose ``params`` are empty. ``step_sizes`` is a
    cache, not a constructor argument: :mod:`deepframe.inference` fills
    it with the safe per-layer step sizes of the placed values, so placed
    values must not change once steps have been taken from it.
    """

    structure: FrameStructure
    params: dict[tuple[int, int], np.ndarray]
    placed: dict[tuple[int, int], np.ndarray | Diagonal]
    normalized: bool = False
    step_sizes: dict[str, tuple[float, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def spec(self) -> ArchitectureSpec:
        return self.structure.spec

    @property
    def row_dims(self) -> tuple[int, ...]:
        return self.structure.row_dims

    @property
    def col_dims(self) -> tuple[int, ...]:
        return self.structure.col_dims

    @property
    def shape(self) -> tuple[int, int]:
        return self.structure.shape

    @property
    def depth(self) -> int:
        return self.spec.depth

    def materialize(self, max_cols: int = MATERIALIZE_COL_LIMIT) -> np.ndarray:
        """Dense global matrix; refuses operators wider than ``max_cols``."""
        n_rows, n_cols = self.shape
        if n_cols > max_cols:
            raise FrameBuildError(
                f"refusing to materialize a {n_rows}x{n_cols} operator "
                f"(limit {max_cols} columns); use the block interfaces"
            )
        st = self.structure
        out = np.zeros((n_rows, n_cols))
        for (i, j), blk in self.placed.items():
            out[st.row_off[i]:st.row_off[i + 1], st.col_off[j]:st.col_off[j + 1]] = blk
        return out


def _init_block(b: BlockDef, rng: np.random.Generator) -> np.ndarray:
    if b.form == "conv":
        fan_in = b.conv["channels"] * b.conv["filter"] ** b.conv["ndim"]
    else:
        fan_in = b.shape[0]
    return rng.standard_normal(b.shape) / math.sqrt(fan_in)


def build_global_frame(spec: ArchitectureSpec,
                       params: dict[tuple[int, int], np.ndarray] | None = None,
                       seed: int | None = None) -> GlobalFrame:
    """Assemble the global operator for a spec: see :meth:`FrameStructure.build`."""
    return FrameStructure(spec).build(params=params, seed=seed)


# ---------------------------------------------------------------------------
# normalization


class NormalizationError(ValueError):
    """A global column had zero norm and cannot be normalized."""


def normalize(frame: GlobalFrame) -> tuple[GlobalFrame, dict[int, np.ndarray]]:
    """Column-normalize the global operator.

    Returns a value-only frame (empty ``params``) whose placed blocks carry
    unit global column norms, together with the column norms it divided by
    (``col_norms[j]`` for column group j).
    """
    col_norms: dict[int, np.ndarray] = {}
    for j in range(frame.depth):
        sq = np.zeros(frame.col_dims[j])
        for i in frame.structure.rows_of[j]:
            blk = frame.placed[(i, j)]
            sq += blk.d * blk.d if isinstance(blk, Diagonal) else np.einsum("ij,ij->j", blk, blk)
        norms = np.sqrt(sq)
        dead = np.nonzero(norms == 0.0)[0]
        if dead.size:
            raise NormalizationError(
                f"layer {j}: columns {dead.tolist()} of the global operator "
                f"have zero norm"
            )
        col_norms[j] = norms

    placed = {
        (i, j): frame.placed[(i, j)] / col_norms[j]
        for (i, j) in frame.placed
    }
    normalized = GlobalFrame(structure=frame.structure, params={},
                             placed=placed, normalized=True)
    return normalized, col_norms


# ---------------------------------------------------------------------------
# Gram structure


@dataclass
class GramStructure:
    """Block representation of G = B^T B.

    ``blocks`` holds the upper block triangle (j <= j'); pairs of column
    groups sharing no row group are structural zero blocks and are simply
    absent. ``offdiag_count`` is the number of structurally nonzero
    off-diagonal entries of G (support overlap, independent of parameter
    values); ``trace`` is Tr(G).
    """

    blocks: dict[tuple[int, int], np.ndarray]
    trace: float
    offdiag_count: int

    def frobenius_sq(self) -> float:
        total = 0.0
        for (j, k), blk in self.blocks.items():
            contrib = float(np.sum(blk * blk))
            total += contrib if j == k else 2.0 * contrib
        return total


def gram(frame: GlobalFrame) -> GramStructure:
    """G = B^T B computed block-pair-wise, without materializing B."""
    st = frame.structure
    blocks: dict[tuple[int, int], np.ndarray] = {}
    trace = 0.0
    for (j, k), rows in st.shared.items():
        acc = np.zeros((st.col_dims[j], st.col_dims[k]))
        for i in rows:
            acc += frame.placed[(i, j)].T @ frame.placed[(i, k)]
        blocks[(j, k)] = acc
        if j == k:
            trace += float(np.trace(acc))
    return GramStructure(blocks=blocks, trace=trace, offdiag_count=st.offdiag_count)


__all__ = [
    "Diagonal",
    "FrameBuildError",
    "FrameStructure",
    "GlobalFrame",
    "GramStructure",
    "MATERIALIZE_COL_LIMIT",
    "NormalizationError",
    "build_global_frame",
    "conv_gram_nonzeros",
    "conv_operator_entries",
    "gram",
    "normalize",
]
