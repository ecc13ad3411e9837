"""Construction of global synthesis operators from architecture specs.

The induced operator is block lower triangular over (row group, layer)
pairs: diagonal blocks enter with a positive sign, off-diagonal blocks are
stored in their natural orientation and enter negated and transposed.
Storage is block sparse, one typed block per structural position: a dense
array per learnable dense block, a :class:`Diagonal` per identity coupling
and a :class:`Convolution` (the filter bank, applied through gather maps)
per learnable conv block. A full dense matrix is materialized on demand
only for small operators. What does not depend on parameter values
(blocks, offsets, convolution geometries and their index maps, Gram block
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
    reductions over ``taps`` sum in a fixed order. They are read off the
    geometry's ``corr_map`` (see :class:`ConvGeometry`). Results are cached
    per geometry and shared; callers must not modify the returned arrays.
    """
    if ndim not in (1, 2):
        raise ValueError(f"ndim must be 1 or 2, got {ndim}")
    g = ConvGeometry(channels, filters, spatial, filter_size, stride, ndim)
    rows = g.corr_map.T  # (position, channel*tap)
    grid = (filters,) + rows.shape
    cols = np.arange(g.shape[1]).reshape(filters, -1, 1)
    taps = np.arange(filters * rows.shape[1]).reshape(filters, 1, -1)
    inside = np.broadcast_to(rows < g.shape[0], grid)
    return (np.broadcast_to(rows, grid)[inside], np.broadcast_to(cols, grid)[inside],
            np.broadcast_to(taps, grid)[inside], g.shape)


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
    dense matrix, ``shape`` is the square block's, ``np.asarray(D)`` is the
    dense block, and its column squares are d*d."""

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

    def column_squares(self) -> np.ndarray:
        return self.d * self.d


def _window_grid(index: np.ndarray, ok: np.ndarray, radix: int, ndim: int):
    """Per-axis (taps x sites) indices and masks, combined row-major over ``ndim`` axes."""
    idx, mask = np.zeros((1, 1), dtype=np.intp), np.ones((1, 1), dtype=bool)
    for _ in range(ndim):
        idx = idx[:, None, :, None] * radix + index[None, :, None, :]
        mask = mask[:, None, :, None] & ok[None, :, None, :]
        shape = (idx.shape[0] * idx.shape[1], idx.shape[2] * idx.shape[3])
        idx, mask = idx.reshape(shape), mask.reshape(shape)
    return idx, mask


@dataclass(frozen=True, eq=False)
class ConvGeometry:
    """The shape of one convolution block and its gather maps.

    S is the (channels * p**ndim) x (filters * q**ndim) synthesis matrix
    of the layer, q = ceil(p / stride) (see the module docstring). The maps
    are built from the geometry on first use and kept, so a structure
    builds each once: ``corr_map`` (channels*taps x positions) names the
    row of a signal each tap of each window reads, and ``synth_map``
    (filters*taps x pixels) the column of the codes each tap places on
    each pixel. A tap that reads or places nothing (off the grid, or
    between strides) names the zero row appended after the last one.
    """

    channels: int
    filters: int
    spatial: int
    filter: int
    stride: int
    ndim: int

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of S."""
        q = -(-self.spatial // self.stride)
        return (self.channels * self.spatial ** self.ndim, self.filters * q ** self.ndim)

    @property
    def entries(self):
        """S's index triplets: see :func:`conv_operator_entries`."""
        return conv_operator_entries(self.channels, self.filters, self.spatial,
                                     self.filter, self.stride, self.ndim)

    @functools.cached_property
    def corr_map(self) -> np.ndarray:
        p, f, s = self.spatial, self.filter, self.stride
        coord = np.arange(f)[:, None] + np.arange(0, p, s)[None, :] - (f - 1) // 2
        pixel, inside = _window_grid(coord, (coord >= 0) & (coord < p), p, self.ndim)
        rows = np.arange(self.channels)[:, None, None] * p ** self.ndim + pixel
        return np.where(inside, rows, self.shape[0]).reshape(-1, pixel.shape[1])

    @functools.cached_property
    def synth_map(self) -> np.ndarray:
        p, f, s = self.spatial, self.filter, self.stride
        q = -(-p // s)
        start, off = np.divmod(np.arange(p)[None, :] + (f - 1) // 2 - np.arange(f)[:, None], s)
        site, placed = _window_grid(start, (off == 0) & (start >= 0) & (start < q), q, self.ndim)
        cols = np.arange(self.filters)[:, None, None] * q ** self.ndim + site
        return np.where(placed, cols, self.shape[1]).reshape(-1, site.shape[1])


class Convolution:
    """A convolution block held as its filter bank: S on the diagonal, -S^T
    for a coupling, S the synthesis matrix of ``geometry``, with the
    columns of the placed block divided by ``norms`` after :func:`normalize`.

    ``bank`` is the signed filter bank as a (filters x channels*taps)
    matrix. A product with codes or residuals is one ``take`` over a gather
    map of the geometry plus one matrix product with the bank, on a vector
    or on the columns of a matrix; ``C @ x`` and ``x @ C`` work from
    either side, ``.T`` is the transposed block, ``C / norms`` divides its
    columns, ``shape`` is the placed block's and ``np.asarray(C)`` is the
    dense block.
    """

    __array_ufunc__ = None  # so ndarray @ Convolution defers to __rmatmul__

    def __init__(self, geometry: ConvGeometry, bank: np.ndarray, coupling: bool,
                 norms: np.ndarray | None = None, transposed: bool = False,
                 synth_bank: np.ndarray | None = None):
        g = self.geometry = geometry
        self.bank, self.coupling = bank, coupling
        self.norms, self.transposed = norms, transposed
        if synth_bank is None:  # the bank as (channels x filters*taps), for S itself
            synth_bank = bank.reshape(g.filters, g.channels, -1).transpose(1, 0, 2)
            synth_bank = synth_bank.reshape(g.channels, -1)
        self.synth_bank = synth_bank

    @classmethod
    def place(cls, geometry: ConvGeometry, stored: np.ndarray, coupling: bool) -> Convolution:
        """The placed block of a stored filter bank (filters, channels, f[, f])."""
        bank = stored.reshape(geometry.filters, -1)
        return cls(geometry, -bank if coupling else bank, coupling)

    def _with(self, norms, transposed) -> Convolution:
        return Convolution(self.geometry, self.bank, self.coupling, norms, transposed,
                           self.synth_bank)

    @property
    def T(self) -> Convolution:
        return self._with(self.norms, not self.transposed)

    @property
    def shape(self) -> tuple[int, int]:
        shape = self.geometry.shape
        return shape[::-1] if self.coupling != self.transposed else shape

    def _apply(self, x: np.ndarray, synthesize: bool) -> np.ndarray:
        """S @ x (``synthesize``) or S^T @ x, with the bank's sign."""
        if synthesize:
            gather, bank = self.geometry.synth_map, self.synth_bank
        else:
            gather, bank = self.geometry.corr_map, self.bank
        padded = np.concatenate((x, np.zeros((1,) + x.shape[1:])))
        cols = padded.take(gather, axis=0).reshape(bank.shape[1], -1)
        return (bank @ cols).reshape((-1,) + x.shape[1:])

    def _divisor(self, x: np.ndarray) -> np.ndarray:
        return self.norms if x.ndim == 1 else self.norms[:, None]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"operand has {x.shape[0]} rows, block {self.shape} "
                             f"expects {self.shape[1]}")
        if self.transposed:
            out = self._apply(x, synthesize=self.coupling)
            return out if self.norms is None else out / self._divisor(out)
        if self.norms is not None:
            x = x / self._divisor(x)
        return self._apply(x, synthesize=not self.coupling)

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        return (self.T @ x.T).T

    def __truediv__(self, norms: np.ndarray) -> Convolution:
        if self.transposed:
            return NotImplemented
        return self._with(norms if self.norms is None else self.norms * norms, False)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        g = self.geometry
        n_rows, n_cols = g.shape
        unsigned = -self.bank if self.coupling else self.bank
        cols = np.arange(n_cols).reshape(g.filters, -1)
        mat = np.zeros((n_rows + 1, n_cols))
        mat[g.corr_map[:, None, :], cols] = unsigned.T[:, :, None]
        mat = mat[:n_rows]
        if self.coupling:
            mat = -mat.T
        if self.norms is not None:
            mat = mat / self.norms
        return (mat.T if self.transposed else mat).astype(dtype, copy=False)

    def packed_columns(self) -> np.ndarray:
        """The columns of a diagonal block S, packed: (channels*taps x columns).

        Column c holds the taps that column c of S places, in the order of
        S's rows, and zeros for taps that fall off the grid; with ``norms``
        each column is divided by its norm, as in ``np.asarray``. NumPy
        sums the rows of a one-column array in another order, so a
        one-column block comes back dense.
        """
        g = self.geometry
        if self.shape[1] == 1:
            return np.asarray(self)
        inside = g.corr_map < g.shape[0]
        packed = np.multiply(self.bank.T[:, :, None], inside[:, None, :], order="C")
        packed = packed.reshape(inside.shape[0], -1)
        return packed if self.norms is None else packed / self.norms

    def column_squares(self) -> np.ndarray:
        """Per-column sums of squares of the placed block.

        Summed in the order ``np.einsum("ij,ij->j", A, A)`` sums the dense
        block A: down a packed column for S, and along a full dense row of
        S, a few rows at a time, for the columns of a coupling -S^T.
        """
        if not self.coupling:
            packed = self.packed_columns()
            return np.einsum("ij,ij->j", packed, packed)
        # the rows of S for a few pixels at a time, all channels, laid out
        # densely with one trash column for the taps that place nothing
        g = self.geometry
        n_cols, n_pixels = g.shape[1], g.synth_map.shape[1]
        norms = None if self.norms is None else self.norms.reshape(g.channels, n_pixels)
        step = max(1, (1 << 19) // (g.channels * (n_cols + 1)))
        out = np.empty((g.channels, n_pixels))
        for lo in range(0, n_pixels, step):
            cols = g.synth_map[:, lo:lo + step].T
            rows = np.zeros((g.channels, cols.shape[0], n_cols + 1))
            rows[:, np.arange(cols.shape[0])[:, None], cols] = self.synth_bank[:, None, :]
            rows = rows[:, :, :n_cols]
            if norms is not None:
                rows /= norms[:, lo:lo + step, None]
            out[:, lo:lo + step] = np.einsum("cpj,cpj->cp", rows, rows)
        return out.reshape(-1)


class FrameStructure:
    """The value-independent description of a spec's global operator.

    Holds the block table, the row/column offsets of every group, the row
    groups of each column group (``rows_of``) and the column groups of
    each row group (``cols_of``), the :class:`ConvGeometry` of each
    learnable conv block (``conv_geometry``, whose index maps are built on
    first use), and, per Gram block pair (j, k) with j <= k,
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
        self.conv_geometry = {(b.row, b.col): ConvGeometry(**b.conv)
                              for b in self.learnable if b.form == "conv"}
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
        one position touches the same rows (those its gather map reads); an
        off-diagonal conv block (placed as -S^T) has a (channel, pixel) per
        column and its class is the pixel ``c % p**ndim``, whose rows are
        the columns of S that S's gather map places on that pixel.
        """
        if b.role == "identity":
            return None
        n_rows, n_cols = b.placed_shape
        if b.form == "dense":
            return np.zeros(n_cols, dtype=np.intp), np.ones((1, n_rows), dtype=bool)
        g = self.conv_geometry[(b.row, b.col)]
        gather = g.corr_map if b.is_diagonal else g.synth_map
        support = np.zeros((gather.shape[1], n_rows + 1), dtype=bool)
        support[np.arange(gather.shape[1]), gather] = True
        return np.arange(n_cols, dtype=np.intp) % gather.shape[1], support[:, :n_rows]

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

        placed: dict[tuple[int, int], Block] = {}
        for b in self.blocks:
            key = (b.row, b.col)
            if b.role == "identity":
                placed[key] = Diagonal(np.full(b.placed_shape[0], 1.0 if b.is_diagonal else -1.0))
                continue
            stored = params[key]
            if b.form == "conv":
                placed[key] = Convolution.place(self.conv_geometry[key], stored,
                                                coupling=not b.is_diagonal)
            else:
                placed[key] = stored if b.is_diagonal else -stored.T
            if b.is_diagonal:
                refuse_dead_columns(key, _column_squares(placed[key]))
        return GlobalFrame(structure=self, params=params, placed=placed)


# one placed block of a global operator
Block = np.ndarray | Diagonal | Convolution


def _column_squares(blk: Block) -> np.ndarray:
    """Per-column sums of squares of a placed block, summed in the order
    ``np.einsum`` sums its dense form."""
    if isinstance(blk, np.ndarray):
        return np.einsum("ij,ij->j", blk, blk)
    return blk.column_squares()


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
    dense block, a :class:`Convolution` for a learnable conv block and a
    :class:`Diagonal` for an identity coupling, none of them stacked or
    densified. ``normalized``
    marks frames produced by :func:`normalize`, whose placed columns have
    unit norm and whose ``params`` are empty. ``step_sizes`` is a
    cache, not a constructor argument: :mod:`deepframe.inference` fills
    it with the safe per-layer step sizes of the placed values, so placed
    values must not change once steps have been taken from it.
    """

    structure: FrameStructure
    params: dict[tuple[int, int], np.ndarray]
    placed: dict[tuple[int, int], Block]
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
            sq += _column_squares(frame.placed[(i, j)])
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


GRAM_BYTE_LIMIT = 2 * 1024 ** 3
"""The most bytes :func:`gram` may ask for, by :func:`gram_bytes`' estimate."""


def gram_bytes(st: FrameStructure) -> int:
    """Estimated peak bytes of :func:`gram` on a frame of this structure.

    The Gram blocks plus one product of the widest pair, the dense forms
    of the conv blocks, and the boolean overlap pattern (with its two
    temporaries) of the widest pair behind :attr:`FrameStructure.offdiag_count`.
    """
    pairs = [st.col_dims[j] * st.col_dims[k] for j, k in st.shared]
    conv = sum(math.prod(b.placed_shape) for b in st.learnable if b.form == "conv")
    return 8 * (sum(pairs) + max(pairs) + conv) + 3 * max(pairs)


def gram(frame: GlobalFrame) -> GramStructure:
    """G = B^T B computed block-pair-wise, without materializing B.

    Each conv block is densified once per call. Refuses, before it
    allocates, a structure whose :func:`gram_bytes` exceed
    :data:`GRAM_BYTE_LIMIT`.
    """
    st = frame.structure
    need = gram_bytes(st)
    if need > GRAM_BYTE_LIMIT:
        raise FrameBuildError(
            f"refusing the Gram matrix of a {st.shape[0]}x{st.shape[1]} operator: "
            f"it needs about {need / 1e9:.1f} GB, over the {GRAM_BYTE_LIMIT / 1e9:.1f} GB limit")
    placed = {key: np.asarray(blk) if isinstance(blk, Convolution) else blk
              for key, blk in frame.placed.items()}
    blocks: dict[tuple[int, int], np.ndarray] = {}
    trace = 0.0
    for (j, k), rows in st.shared.items():
        acc = np.zeros((st.col_dims[j], st.col_dims[k]))
        for i in rows:
            acc += placed[(i, j)].T @ placed[(i, k)]
        blocks[(j, k)] = acc
        if j == k:
            trace += float(np.trace(acc))
    return GramStructure(blocks=blocks, trace=trace, offdiag_count=st.offdiag_count)


__all__ = [
    "ConvGeometry",
    "Convolution",
    "Diagonal",
    "GRAM_BYTE_LIMIT",
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
    "gram_bytes",
    "normalize",
]
