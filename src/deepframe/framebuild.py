"""Construction of global synthesis operators from architecture specs.

The induced operator is block lower triangular over (row group, layer)
pairs: diagonal blocks enter with a positive sign, off-diagonal blocks are
stored in their natural orientation and enter negated and transposed.
Storage is block sparse, one typed block per structural position: a dense
array per learnable dense block, a :class:`Diagonal` per identity coupling
and a :class:`Convolution` (the filter bank, applied through gather maps)
per learnable conv block. A full dense matrix is materialized on demand
only for small operators. What does not depend on parameter values
(blocks, convolution geometries and their index maps, the Gram plan, the
structural off-diagonal count) is compiled once per spec into a
:class:`FrameStructure`, which values fill in. The Gram matrix is held the
same way, one :class:`ConvGram` per block pair: entries per filter offset
from one contraction of the filter banks (never densified); a pair
touching a dense block, or of fully connected layers, is the one-site case.

Convolution blocks are linear operators that place every filter at every
output grid position (zero padding, "same"-style). Column order is
filter-major then position; row order is channel-major then pixel.
Applying the operator synthesizes a signal from coefficient maps;
applying its transpose correlates the filters with a signal. Where each
window sits is written once, in :attr:`ConvGeometry.corr_map`; the
synthesis gather map, the index triplets and the Gram terms' pairing read
it or its channel-0 inverse: a Gram term pairs two blocks by the pixel
each tap of one touches and the site of the other that reads that pixel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .archspec import (ArchitectureSpec, BlockDef, LayerSpec, block_table,
                       blocks_param_count)

MATERIALIZE_COL_LIMIT = 4096


class FrameBuildError(ValueError):
    """Raised for parameter/shape problems while assembling an operator."""


# ---------------------------------------------------------------------------
# convolution operators


def conv_operator_entries(channels: int, filters: int, spatial: int,
                          filter_size: int, stride: int, ndim: int):
    """Index triplets (rows, cols, taps) and shape of the synthesis conv
    matrix of a geometry: see :attr:`ConvGeometry.entries`. No production
    code calls it; it is kept for perfbench and the tests' oracles."""
    if ndim not in (1, 2):
        raise ValueError(f"ndim must be 1 or 2, got {ndim}")
    return ConvGeometry(channels, filters, spatial, filter_size, stride, ndim).entries


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


@dataclass(frozen=True, eq=False)
class ConvGeometry:
    """The shape of one convolution block and its gather maps.

    S is the (channels * p**ndim) x (filters * q**ndim) synthesis matrix
    of the layer, q = ceil(p / stride) (see the module docstring). The maps
    are built from the geometry on first use and kept, so a structure
    builds each once. ``corr_map`` (channels*taps x windows) names the row
    of a signal each tap of each window reads; it alone places the windows,
    and everything else is read off it. ``inverse_map`` (taps x pixels)
    inverts its channel 0: the window whose tap u reads pixel x.
    ``synth_map`` (filters*taps x pixels) is that inverse over the filters:
    the column of the codes each tap places on each pixel. A tap that reads
    or places nothing (off the grid, or between strides) names the zero row
    appended after the last one, or the window count in ``inverse_map``.
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
        """S's index triplets and shape (rows, cols, taps, shape): entry
        (rows[i], cols[i]) of S is ``bank.flat[taps[i]]`` of the filter bank.

        Read off ``corr_map`` on each call, dropping the taps off the grid
        (zero padding), and ordered by filter, then window, then channel,
        then tap, so reductions over ``taps`` sum in a fixed order. No
        production code reads it (the minimizer's scatter map is read off
        ``build``); it is kept for perfbench and the tests' oracles.
        """
        rows = self.corr_map.T  # (window, channel*tap)
        grid = (self.filters,) + rows.shape
        cols = np.arange(self.shape[1]).reshape(self.filters, -1, 1)
        taps = np.arange(self.filters * rows.shape[1]).reshape(self.filters, 1, -1)
        inside = np.broadcast_to(rows < self.shape[0], grid)
        return (np.broadcast_to(rows, grid)[inside], np.broadcast_to(cols, grid)[inside],
                np.broadcast_to(taps, grid)[inside], self.shape)

    @functools.cached_property
    def corr_map(self) -> np.ndarray:
        p, f, s, n = self.spatial, self.filter, self.stride, self.ndim
        coord = np.arange(f)[:, None] + np.arange(0, p, s)[None, :] - (f - 1) // 2
        # off the grid an axis reads -p**n, which keeps the flat pixel negative
        coord = np.where((coord >= 0) & (coord < p), coord, -p ** n)
        pixel = np.zeros((1, 1), dtype=np.intp)
        for _ in range(n):  # taps and windows row-major over the grid axes
            pixel = pixel[:, None, :, None] * p + coord[None, :, None, :]
            pixel = pixel.reshape(pixel.shape[0] * f, -1)
        rows = np.arange(self.channels)[:, None, None] * p ** n + pixel
        return np.where(pixel >= 0, rows, self.shape[0]).reshape(-1, pixel.shape[1])

    @functools.cached_property
    def inverse_map(self) -> np.ndarray:
        reads, pixels = self.corr_map[:self.filter ** self.ndim], self.spatial ** self.ndim
        inverse = np.full((len(reads), pixels + 1), reads.shape[1])
        inverse[np.arange(len(reads))[:, None], np.minimum(reads, pixels)] = np.arange(reads.shape[1])
        return inverse[:, :pixels]

    @functools.cached_property
    def synth_map(self) -> np.ndarray:
        inverse, windows = self.inverse_map, self.corr_map.shape[1]
        cols = np.arange(self.filters)[:, None, None] * windows + inverse
        return np.where(inverse < windows, cols, self.shape[1]).reshape(-1, inverse.shape[1])


class Convolution:
    """A convolution block held as its filter bank: S on the diagonal, -S^T
    for a coupling, S the synthesis matrix of ``geometry``, with the
    columns of the placed block divided by ``norms`` after :func:`normalize`.

    ``bank`` is the signed filter bank as a (filters x channels*taps)
    matrix. A product with codes or residuals is one ``take`` over a gather
    map of the geometry plus one matrix product with the bank, on a vector
    or on the columns of a matrix. The gather reads taps off the grid from
    a zero row appended to the operand: ``C.matmul_padded(xp)`` is
    ``C @ x`` for x held with that row already in place (``xp``), and
    ``C @ x`` appends it and takes the same path. ``C @ x`` and ``x @ C``
    work from either side, ``.T`` is the transposed block, ``C / norms``
    divides its columns, ``shape`` is the placed block's and
    ``np.asarray(C)`` is the dense block.
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

    def _apply(self, padded: np.ndarray, synthesize: bool) -> np.ndarray:
        """S @ x (``synthesize``) or S^T @ x, with the bank's sign, for x given
        as ``padded``: its rows followed by one zero row, which the gather
        maps' trash index reads."""
        if synthesize:
            gather, bank = self.geometry.synth_map, self.synth_bank
        else:
            gather, bank = self.geometry.corr_map, self.bank
        cols = padded.take(gather, axis=0).reshape(bank.shape[1], -1)
        return (bank @ cols).reshape((-1,) + padded.shape[1:])

    @functools.cached_property
    def _padded_norms(self) -> np.ndarray:
        return np.append(self.norms, 1.0)

    @staticmethod
    def _divisor(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
        return norms if x.ndim == 1 else norms[:, None]

    def matmul_padded(self, padded: np.ndarray) -> np.ndarray:
        """``self @ x`` for a vector or matrix x given as ``padded``: its rows
        followed by one zero row, as a caller that keeps its operands padded
        holds them, so the product copies nothing before its gather. The
        result has no extra row."""
        if padded.shape[0] - 1 != self.shape[1]:
            raise ValueError(f"operand has {padded.shape[0] - 1} rows, block {self.shape} "
                             f"expects {self.shape[1]}")
        if self.transposed:
            out = self._apply(padded, synthesize=self.coupling)
            return out if self.norms is None else out / self._divisor(out, self.norms)
        if self.norms is not None:
            padded = padded / self._divisor(padded, self._padded_norms)
        return self._apply(padded, synthesize=not self.coupling)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matmul_padded(np.concatenate((x, np.zeros((1,) + x.shape[1:]))))

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

    def column_squares(self) -> np.ndarray:
        """Per-column sums of squares of the placed block: the squared bank
        reduced over the taps each column places on the grid, in one product
        (the bank over ``corr_map`` for S, ``synth_bank`` over ``synth_map``
        for the columns of a coupling -S^T)."""
        g = self.geometry
        if self.coupling:
            bank, on_grid = self.synth_bank, g.synth_map < g.shape[1]
        else:
            bank, on_grid = self.bank, g.corr_map < g.shape[0]
        sq = ((bank * bank) @ on_grid).reshape(-1)
        return sq if self.norms is None else sq / (self.norms * self.norms)


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
    def gram_plan(self) -> dict[tuple[int, int], _PairPlan]:
        """The compiled :class:`_PairPlan` of each Gram block pair, on first use."""
        blocks = {(b.row, b.col): b for b in self.blocks}
        shared: dict = {}  # pairings, layouts and offset unions, shared between pairs
        return {key: _PairPlan(self, blocks, key, rows, shared)
                for key, rows in self.shared.items()}

    @functools.cached_property
    def offdiag_count(self) -> int:
        """Structurally nonzero off-diagonal entries of the Gram matrix: the
        ordered column pairs whose placed supports overlap, whatever the
        values (see :class:`_PairPlan`)."""
        return sum(plan.count for plan in self.gram_plan.values())

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
    unit norm and whose ``params`` are empty.
    """

    structure: FrameStructure
    params: dict[tuple[int, int], np.ndarray]
    placed: dict[tuple[int, int], Block]
    normalized: bool = False

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
#
# On a shared row group, a conv or identity block is a bank whose column
# (a, t) holds bank[a, c, u] on channel c of the row group at the pixel
# touch[u, t] (see _reads). Column (a, t) of one block meets column
# (b, t') of the other only where they share a pixel: right tap u' meets
# left tap u of site t exactly where t' = inverse[u', touch[u, t]] is a
# site, with inverse the right block's touch map inverted, and then at
# offset delta = t' - t per grid axis. Only a few offsets occur (Papyan,
# Romano & Elad, JMLR 2017). The row group's term of the Gram block is
# then, per offset,
#
#     G_delta[a, b, t] = sum_u P_delta[a, b, u] * m_delta[u, t]
#     P_delta[a, b, u] = sum_c A[a, c, u] * B[b, c, u'(delta, u)]
#
# with u'(delta, u) the right tap meeting left tap u at offset delta, and
# m_delta[u, t] = 1 where it does at site t. Offsets, tap pairing and masks
# depend on the two maps alone. A block pair lays its terms on the union of
# their offsets, taps side by side, so one sum over u adds them all.


def _reads(st: FrameStructure, b: BlockDef, sites: int):
    """How conv or identity block ``b`` reads its row group: its (features,
    channels), its touch map (taps x sites: the pixel that tap u of site t
    reads on each channel) and that map's inverse (taps x pixels: the site
    whose tap u reads pixel x). Pixels and sites off the grid are the
    pixel and site counts.

    S touches through channel 0 of ``corr_map``. A coupling -S^T has a
    column per channel and pixel of S, which reads the windows that S
    places on that pixel: it touches through ``inverse_map``, whose inverse
    is ``corr_map``. An identity is a 1x1 filter over the channels.
    """
    if b.form == "conv":
        g = st.conv_geometry[(b.row, b.col)]
        maps = np.minimum(g.corr_map[:g.filter ** g.ndim], g.spatial ** g.ndim), g.inverse_map
        if b.is_diagonal:
            return (g.filters, g.channels), maps
        return (g.channels, g.filters), maps[::-1]
    pixels = np.arange(sites)[None]
    return (b.placed_shape[0] // sites,) * 2, (pixels, pixels)


def _pairing(touch: np.ndarray, inverse: np.ndarray, sites: int, ndim: int):
    """The offsets (D x ndim) at which a left block with ``touch`` meets a
    right block with ``inverse`` (see :func:`_reads`), the right tap
    meeting each left tap (D x left taps; tap 0 where none does, which the
    mask cancels) and the masks (D x left taps x sites, boolean), all
    row-major over the ``ndim`` grid axes of ``sites`` sites each."""
    n_sites = touch.shape[1]
    inverse = np.append(inverse, np.full((len(inverse), 1), n_sites), axis=1)
    meet = inverse[:, touch]  # the right site of right tap u' on left tap u of site t
    valid = meet < n_sites
    # a pair of taps that meets does so at one offset: read it off one site
    right, left = np.nonzero(valid.any(axis=2))
    site = valid.argmax(axis=2)[right, left]
    coords = np.indices((sites,) * ndim).reshape(ndim, -1)
    delta = coords[:, meet[right, left, site]] - coords[:, site]
    _, first, slot = np.unique(_code(delta.T, sites), return_index=True, return_inverse=True)
    offsets = delta[:, first].T
    partner = np.zeros((len(offsets), len(touch)), dtype=np.intp)
    partner[slot, left] = right
    mask = np.zeros((len(offsets),) + touch.shape, dtype=bool)
    mask[slot, left] = valid[right, left]
    return offsets, partner, mask


def _code(offsets: np.ndarray, sites: int) -> np.ndarray:
    """An integer per offset (row) that sorts offsets row-major."""
    return offsets @ (2 * sites - 1) ** np.arange(offsets.shape[1] - 1, -1, -1)


def _dest(offsets: np.ndarray, sites: int) -> np.ndarray:
    """The flat site t + offsets[d] of each flat site t (D x sites**ndim),
    or sites**ndim where it is off the grid."""
    ndim = offsets.shape[1]
    moved = np.indices((sites,) * ndim).reshape(ndim, -1)[None] + offsets[:, :, None]
    flat = np.einsum("dat,a->dt", moved, sites ** np.arange(ndim - 1, -1, -1))
    return np.where(((moved >= 0) & (moved < sites)).all(axis=1), flat, sites ** ndim)


def _layout(pairings: list, sites: int, shared: dict):
    """Lay a pair's term pairings (see :func:`_pairing`) on the sorted union of
    their offsets: the union and its :func:`_dest` (shared by equal unions),
    the masks side by side along the taps, each term's partner taps and slice."""
    every = np.concatenate([offsets for offsets, _, _ in pairings])
    codes, first = np.unique(_code(every, sites), return_index=True)
    if codes.tobytes() not in shared:
        shared[codes.tobytes()] = every[first], _dest(every[first], sites)
    partners, masks = [], []
    for offsets, partner, mask in pairings:
        if len(offsets) < len(codes):  # a pairing on the union stays as it is
            slot = np.searchsorted(codes, _code(offsets, sites))
            laid = [np.zeros((len(codes),) + a.shape[1:], a.dtype) for a in (partner, mask)]
            laid[0][slot], laid[1][slot] = partner, mask
            partner, mask = laid
        partners.append(partner)
        masks.append(mask)
    bounds = [0, *accumulate(mask.shape[1] for mask in masks)]
    return (*shared[codes.tobytes()], masks[0] if len(masks) == 1 else np.concatenate(masks, 1),
            partners, [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])])


class ConvGram:
    """A Gram block between two column groups, held by filter offsets.

    ``values[d, a, b, t]`` is the entry of left column (a, t) and right
    column (b, ``dest[d, t]``), the right site t + ``offsets[d]`` (sites
    flat, row-major over the grid axes); ``dest`` is the site count where
    that site is off the grid, and the value there is zero. Every other
    entry is structurally zero. ``diagonal`` marks a block on the Gram
    diagonal, whose diagonal entries are those at offset zero with a == b.
    A fully connected pair is the one-site case (see :meth:`one_site`).
    ``np.asarray`` gives the dense block.
    """

    def __init__(self, values: np.ndarray, offsets: np.ndarray, dest: np.ndarray,
                 diagonal: bool):
        self.values, self.offsets, self.dest, self.diagonal = values, offsets, dest, diagonal

    @classmethod
    def one_site(cls, block: np.ndarray, diagonal: bool) -> ConvGram:
        """A dense Gram block as one site at the one offset zero, a view of it."""
        zero = np.zeros((1, 1), dtype=np.intp)
        return cls(block[None, :, :, None], zero, zero, diagonal)

    @property
    def shape(self) -> tuple[int, int]:
        _, f_l, f_r, sites = self.values.shape
        return (f_l * sites, f_r * sites)

    def _zero(self) -> int:
        return int(np.flatnonzero(~self.offsets.any(axis=1))[0])

    def frobenius_sq(self) -> float:
        flat = self.values.reshape(-1)
        return float(flat @ flat)

    def trace(self) -> float:
        return float(np.trace(self.values[self._zero()]).sum()) if self.diagonal else 0.0

    def max_offdiag(self) -> float:
        """The largest |entry| off the diagonal (NaN if an entry is NaN),
        read without a copy of the values outside the zero offset."""
        parts = [self.values]
        if self.diagonal:
            z = self._zero()
            off = ~np.eye(self.values.shape[1], dtype=bool)
            parts = [self.values[:z], self.values[z + 1:], self.values[z][off]]
        peaks = [m for p in parts for m in (p.max(initial=0.0), -p.min(initial=0.0))]
        return float(np.max(peaks)) + 0.0  # np.max may pick -0.0 over 0.0

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        _, f_l, f_r, sites = self.values.shape
        out = np.zeros((f_l, sites, f_r, sites + 1))
        t = np.arange(sites)
        for vals, dest in zip(self.values, self.dest):
            out[:, t, :, dest] = vals.transpose(2, 0, 1)
        return out[..., :sites].reshape(self.shape).astype(dtype, copy=False)


def _is_dense(b: BlockDef) -> bool:
    return b.role == "learnable" and b.form == "dense"


class _PairPlan:
    """Gram block pair (j, k), compiled from its terms, one per shared row group.

    A term with a dense learnable block, or without a conv block in a pair of
    fully connected column groups, is a block product (``products``); the
    others are one contraction laid out by :func:`_layout` (``terms``), scaled
    by the column factors of the first term's blocks, as every block of a
    column group carries the same ones: 1/norms after :func:`normalize`, 1 on
    a raw frame. A pair with a dense learnable block on a shared row group, or
    with no conv layer among its column groups, is dense: a one-site
    :class:`ConvGram` of its products and densified contraction. Any other
    pair is a :class:`ConvGram` over ``offsets``. ``count`` is its share of
    :attr:`FrameStructure.offdiag_count`: all of a pair touching a dense
    block, else the union of the masks, over every feature pair but for two
    identities, which meet feature to feature.
    """

    def __init__(self, st: FrameStructure, blocks: dict[tuple[int, int], BlockDef],
                 key: tuple[int, int], rows: tuple[int, ...], shared: dict):
        j, k = key
        self.diagonal = j == k
        self.shape = n_l, n_r = (st.col_dims[j], st.col_dims[k])
        sides = [(blocks[(i, j)], blocks[(i, k)]) for i in rows]
        touches_dense = any(_is_dense(b) for pair in sides for b in pair)
        self.dense = touches_dense or not any(st.spec.layers[c].is_conv for c in key)
        product = [_is_dense(bl) or _is_dense(br) or self.dense and "conv" not in (bl.form, br.form)
                   for bl, br in sides]
        self.products = [((bl.row, bl.col), (br.row, br.col))
                         for (bl, br), is_product in zip(sides, product) if is_product]
        terms = [pair for pair, is_product in zip(sides, product) if not is_product]
        # besides the block: a product and its gathered operand, or the contraction's temporaries
        self.nbytes = 8 * n_l * n_r
        work = [self.nbytes + sum(8 * other * (g.corr_map if key[0] == key[1] else g.synth_map).size
                                  for key, other in zip(term, self.shape[::-1])
                                  if (g := st.conv_geometry.get(key)) is not None)
                for term in self.products]
        self.terms = []
        if terms:
            self._compile(st, terms, shared)
            (n_off, n_taps, sites), (f_l, f_r) = self.mask.shape, self.features
            values = 8 * n_off * f_l * f_r * sites
            work.append(8 * n_off * n_taps * (f_l * f_r + sites)
                        + (values + 8 * n_l * (n_r + f_r) if self.dense else 0))
        if self.dense:  # without a dense block, identities meet column to column
            count = (n_l * n_r if touches_dense else n_l) - (n_l if self.diagonal else 0)
        else:
            full, eye = np.zeros((2, n_off, sites), dtype=bool)
            for (bl, br), (_, _, _, taps) in zip(terms, self.terms):
                (eye if bl.role == br.role == "identity" else full)[...] |= \
                    self.mask[:, taps].any(axis=1)
            count = f_l * f_r * np.count_nonzero(full) + f_l * np.count_nonzero(eye & ~full)
            if self.diagonal:  # less the columns' own entries, at offset zero
                count -= f_l * np.count_nonzero((full | eye)[~self.offsets.any(axis=1)])
            self.nbytes = values
        self.work = max(work)
        self.count = int(count if self.diagonal else 2 * count)

    def _compile(self, st: FrameStructure, terms: list, shared: dict) -> None:
        # blocks share row groups only in stride-1 specs, or within one layer,
        # so every conv layer has the terms' grid
        ly = next(ly for ly in st.spec.layers if ly.is_conv)
        reads, keys = [], []
        for bl, br in terms:
            (left, (touch, _)), (right, (_, inverse)) = (
                _reads(st, b, ly.grid_out ** ly.ndim) for b in (bl, br))
            reads.append((left, right))
            keys.append((touch.tobytes(), inverse.tobytes()))  # equal maps share a pairing,
            if keys[-1] not in shared:
                shared[keys[-1]] = _pairing(touch, inverse, ly.grid_out, ly.ndim)
        if tuple(keys) not in shared:  # and equal pairings a layout
            shared[tuple(keys)] = _layout([shared[key] for key in keys], ly.grid_out, shared)
        self.offsets, self.dest, self.mask, partners, slices = shared[tuple(keys)]
        self.terms = [(_side(bl, shapes[0][0]), _side(br, shapes[1][0]), partner, taps)
                      for (bl, br), shapes, partner, taps in zip(terms, reads, partners, slices)]
        self.features = reads[0][0][0], reads[0][1][0]
        self.factors = terms[0]

    def evaluate(self, placed: dict[tuple[int, int], Block]) -> ConvGram:
        """A product of each term's banks, one of them all with the masks, the factors."""
        if not self.terms:
            acc = np.zeros(self.shape)
        else:
            (n_off, n_taps, sites), (f_l, f_r) = self.mask.shape, self.features
            meet = np.empty((n_off, n_taps, f_l, f_r))
            for left, right, partner, taps in self.terms:
                left, right = _bank_of(placed, left), _bank_of(placed, right)
                np.matmul(left.transpose(2, 0, 1), right[:, :, partner].transpose(2, 3, 1, 0),
                          out=meet[:, taps])
            out = np.matmul(meet.reshape(n_off, n_taps, -1).transpose(0, 2, 1), self.mask)
            out = out.reshape(n_off, f_l, f_r, sites)
            left, right = (_factor(placed[(b.row, b.col)]) for b in self.factors)
            if left is not None:
                out *= left.reshape(f_l, 1, sites)
            if right is not None:
                right = np.append(right.reshape(f_r, sites), np.zeros((f_r, 1)), axis=1)
                out *= right[:, self.dest].transpose(1, 0, 2)[:, None]
            if not self.dense:
                return ConvGram(out, self.offsets, self.dest, self.diagonal)
            acc = np.asarray(ConvGram(out, self.offsets, self.dest, False))
        for left, right in self.products:
            acc += placed[left].T @ placed[right]
        return ConvGram.one_site(acc, self.diagonal)


def _side(b: BlockDef, n: int):
    """A side of an offset term: a conv block's :class:`BlockDef`, or an identity's signed bank."""
    if b.form == "conv":
        return b
    return np.diag(np.full(n, 1.0 if b.is_diagonal else -1.0))[:, :, None]


def _bank_of(placed: dict[tuple[int, int], Block], side) -> np.ndarray:
    """The bank (features x channels x taps) of a side (see :func:`_side`)."""
    if isinstance(side, np.ndarray):
        return side
    blk = placed[(side.row, side.col)]
    bank = blk.synth_bank if blk.coupling else blk.bank  # features x channels*taps
    return bank.reshape(len(bank), -1, blk.geometry.filter ** blk.geometry.ndim)


def _factor(blk: Block) -> np.ndarray | None:
    """A block's column factor: 1/norms of a normalized conv block, |diagonal| of an identity."""
    if isinstance(blk, Convolution):
        return None if blk.norms is None else 1.0 / blk.norms
    return np.abs(blk.d if isinstance(blk, Diagonal) else np.diagonal(blk))


@dataclass
class GramStructure:
    """Block representation of G = B^T B.

    ``blocks`` holds the upper block triangle (j <= j'), each a
    :class:`ConvGram` (one site for a pair of fully connected column
    groups); pairs of column groups sharing no row group are structural
    zero blocks and are simply absent. ``offdiag_count`` is the number of
    structurally nonzero off-diagonal entries of G (support overlap,
    independent of parameter values); ``trace`` is Tr(G).
    """

    blocks: dict[tuple[int, int], ConvGram]
    offdiag_count: int

    @property
    def trace(self) -> float:
        return sum((blk.trace() for blk in self.blocks.values()), 0.0)

    def frobenius_sq(self) -> float:
        return sum((blk.frobenius_sq() * (1.0 if blk.diagonal else 2.0)
                    for blk in self.blocks.values()), 0.0)


GRAM_BYTE_LIMIT = 2 * 1024 ** 3
"""The most bytes :func:`gram` may ask for, by :func:`gram_bytes`' estimate."""


def gram_bytes(st: FrameStructure) -> int:
    """Estimated peak bytes of :func:`gram` on a frame of this structure: every block
    as held, the most one pair allocates besides (see :class:`_PairPlan`), the masks."""
    plans = st.gram_plan.values()
    masks = sum({id(p.mask): p.mask.nbytes for p in plans if p.terms}.values())
    return sum(p.nbytes for p in plans) + max(p.work for p in plans) + masks


def gram(frame: GlobalFrame) -> GramStructure:
    """G = B^T B computed block-pair-wise, without materializing B.

    Follows the structure's :attr:`~FrameStructure.gram_plan` (see
    :class:`_PairPlan`); no conv block is densified. Refuses, before it
    allocates the blocks, a structure whose :func:`gram_bytes` exceed
    :data:`GRAM_BYTE_LIMIT`.
    """
    st = frame.structure
    need = gram_bytes(st)
    if need > GRAM_BYTE_LIMIT:
        raise FrameBuildError(
            f"refusing the Gram matrix of a {st.shape[0]}x{st.shape[1]} operator: "
            f"it needs about {need / 1e9:.1f} GB, over the {GRAM_BYTE_LIMIT / 1e9:.1f} GB limit")
    blocks = {key: plan.evaluate(frame.placed) for key, plan in st.gram_plan.items()}
    return GramStructure(blocks=blocks, offdiag_count=st.offdiag_count)


__all__ = [
    "ConvGeometry",
    "ConvGram",
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
