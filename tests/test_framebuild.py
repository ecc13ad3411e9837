"""Global frame assembly: conv materialization, placement, normalization, Gram."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deepframe.archspec import parse_spec
from deepframe.framebuild import (
    ConvGram,
    FrameBuildError,
    NormalizationError,
    build_global_frame,
    conv_gram_nonzeros,
    conv_operator_entries,
    gram,
    normalize,
)

from conftest import (MIXED, MIXED_IDS, conv_spec, fc_spec, gram_full, loop_conv_entries,
                      materialize_conv_operator, random_specs)


def naive_conv_apply(bank, signal, spatial, stride, ndim):
    """Sliding-window correlation with zero padding, channel sum.

    Reference semantics for one layer: output[f, y(, x)] is the window of
    the padded input at stride*y(, stride*x), contracted against filter f
    across channels. Padding keeps (filter-1)//2 pixels on the low side.
    """
    filters, channels = bank.shape[0], bank.shape[1]
    f = bank.shape[2]
    pad = (f - 1) // 2
    out_side = -(-spatial // stride)
    if ndim == 1:
        sig = signal.reshape(channels, spatial)
        padded = np.zeros((channels, spatial + 2 * pad))
        padded[:, pad:pad + spatial] = sig
        out = np.zeros((filters, out_side))
        for fi in range(filters):
            for y in range(out_side):
                window = padded[:, y * stride:y * stride + f]
                out[fi, y] = np.sum(window * bank[fi])
        return out.reshape(-1)
    sig = signal.reshape(channels, spatial, spatial)
    padded = np.zeros((channels, spatial + 2 * pad, spatial + 2 * pad))
    padded[:, pad:pad + spatial, pad:pad + spatial] = sig
    out = np.zeros((filters, out_side, out_side))
    for fi in range(filters):
        for y in range(out_side):
            for x in range(out_side):
                window = padded[:, y * stride:y * stride + f,
                                x * stride:x * stride + f]
                out[fi, y, x] = np.sum(window * bank[fi])
    return out.reshape(-1)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_conv_entries_match_loop_nest(ndim, stride, f):
    # same entries in the same order and dtype, so reductions over taps agree
    for channels in (1, 2, 3):
        for filters in (1, 2, 3):
            for spatial in (1, 4, 5):
                args = (channels, filters, spatial, f, stride, ndim)
                got = conv_operator_entries(*args)
                want = loop_conv_entries(*args)
                assert got[3] == want[3]
                for a, b in zip(got[:3], want[:3]):
                    assert a.dtype == b.dtype
                    assert np.array_equal(a, b), args


def test_conv_entries_reject_bad_ndim():
    with pytest.raises(ValueError, match="ndim"):
        conv_operator_entries(1, 1, 4, 3, 1, 3)


@pytest.mark.parametrize("ndim,channels,filters,spatial,f,stride", [
    (1, 1, 2, 5, 3, 1),
    (1, 2, 3, 6, 3, 2),
    (2, 1, 2, 4, 3, 1),
    (2, 2, 3, 5, 3, 2),
    (2, 2, 2, 4, 1, 1),
])
def test_conv_matrix_matches_sliding_window(ndim, channels, filters, spatial,
                                            f, stride, rng):
    layers = [{"kind": "convolutional", "width": filters, "channels": channels,
               "spatial": spatial, "filter": f, "stride": stride, "ndim": ndim}]
    spec = parse_spec({"input_dim": channels * spatial ** ndim,
                       "layers": layers, "connectivity": "chain"})
    bank = rng.normal(size=(filters, channels) + (f,) * ndim)
    mat = materialize_conv_operator(spec.layers[0], bank)
    assert mat.shape == (channels * spatial ** ndim, spec.col_dims[0])
    for _ in range(5):
        x = rng.normal(size=mat.shape[0])
        # the operator's adjoint computes correlation responses: B^T x
        assert np.allclose(mat.T @ x,
                           naive_conv_apply(bank, x, spatial, stride, ndim),
                           atol=1e-13)


def test_conv_columns_are_placed_filters(rng):
    # column (filter fi, site y) holds filter fi stamped at stride*y
    spec = conv_spec("chain", 1, 6, [2], filt=3, stride=1, ndim=1)
    bank = rng.normal(size=(2, 1, 3))
    mat = materialize_conv_operator(spec.layers[0], bank)
    col = mat[:, 0]  # filter 0 at site 0; pad 1 clips the leading tap
    assert col[0] == pytest.approx(bank[0, 0, 1])
    assert col[1] == pytest.approx(bank[0, 0, 2])
    assert np.all(col[2:] == 0)


def test_conv_gram_nonzeros_exact_small():
    spec = conv_spec("chain", 1, 4, [2], filt=3, stride=1, ndim=2)
    layer = spec.layers[0]
    rows, cols, taps, shape = conv_operator_entries(
        layer.channels, layer.width, layer.spatial, layer.filter_size,
        layer.stride, layer.ndim)
    support = np.zeros(shape, dtype=bool)
    support[rows, cols] = True
    overlap = support.T @ support
    measured = int(np.count_nonzero(overlap)) - overlap.shape[0]
    assert conv_gram_nonzeros(layer) == measured


def test_fig7_style_geometry():
    # 4x4 grid, 3x3 filters, stride 2, 10 filters: 16 rows, 40 columns
    spec = conv_spec("chain", 1, 4, [10], filt=3, stride=2, ndim=2)
    frame = build_global_frame(spec, seed=0)
    assert frame.materialize().shape == (16, 40)


# --- assembly and placement -------------------------------------------------


def test_placed_signs_and_identity():
    spec = fc_spec("chain", 3, [5, 4])
    frame = build_global_frame(spec, seed=0)
    stored = frame.params[(1, 1)]
    assert np.array_equal(frame.placed[(1, 1)], stored)
    assert np.array_equal(frame.placed[(1, 0)], -np.eye(5))


def test_placed_offdiag_negated_transpose():
    spec = fc_spec("dense", 3, [5, 4])
    frame = build_global_frame(spec, seed=0)
    stored = frame.params[(1, 0)]
    assert stored.shape == (5, 4)
    assert np.array_equal(frame.placed[(1, 0)], -stored.T)


def test_residual_skip_identity_negated():
    spec = fc_spec("residual", 3, [5, 4, 5])
    frame = build_global_frame(spec, seed=0)
    assert np.array_equal(frame.placed[(2, 0)], -np.eye(5))
    assert np.array_equal(frame.placed[(1, 1)], np.eye(4))


def test_build_validates_param_keys_and_shapes():
    spec = fc_spec("chain", 3, [5, 4])
    good = build_global_frame(spec, seed=0).params
    with pytest.raises(FrameBuildError, match="missing"):
        build_global_frame(spec, params={(0, 0): good[(0, 0)]})
    with pytest.raises(FrameBuildError, match="no learnable block"):
        build_global_frame(spec, params={**good, (1, 0): np.eye(5)})
    bad = dict(good)
    bad[(1, 1)] = np.zeros((2, 2))
    with pytest.raises(FrameBuildError, match="shape"):
        build_global_frame(spec, params=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_refuses_non_finite_params(bad):
    spec = fc_spec("chain", 3, [6, 5])
    params = build_global_frame(spec, seed=0).params
    params[(1, 1)][2, 3] = bad
    with pytest.raises(FrameBuildError, match=r"block \(1, 1\): non-finite"):
        build_global_frame(spec, params=params)
    # refused together with the shape errors
    params[(0, 0)] = np.zeros((2, 2))
    with pytest.raises(FrameBuildError, match=r"\(0, 0\): expected shape.*\(1, 1\): non-finite"):
        build_global_frame(spec, params=params)


def test_build_rejects_zero_column():
    spec = fc_spec("chain", 3, [4])
    params = {(0, 0): np.ones((3, 4))}
    params[(0, 0)][:, 2] = 0.0
    with pytest.raises(FrameBuildError, match="zero"):
        build_global_frame(spec, params=params)


def test_build_same_seed_reproduces():
    spec = fc_spec("dense", 4, [6, 5, 3])
    a = build_global_frame(spec, seed=11)
    b = build_global_frame(spec, seed=11)
    for key in a.params:
        assert np.array_equal(a.params[key], b.params[key])


def test_materialize_guard():
    spec = fc_spec("chain", 2, [3])
    frame = build_global_frame(spec, seed=0)
    with pytest.raises(FrameBuildError, match="columns"):
        frame.materialize(max_cols=2)


# --- normalization ----------------------------------------------------------


def test_normalize_gives_unit_columns():
    spec = fc_spec("residual", 4, [6, 5, 6])
    frame = build_global_frame(spec, seed=2)
    unit, col_norms = normalize(frame)
    mat = unit.materialize()
    assert np.allclose(np.linalg.norm(mat, axis=0), 1.0, atol=1e-12)
    assert unit.params == {}
    assert unit.normalized
    # magnitudes recorded per layer, matching the unnormalized columns
    raw = frame.materialize()
    for j in range(frame.depth):
        lo = frame.structure.col_off[j]
        hi = lo + frame.col_dims[j]
        assert np.allclose(col_norms[j],
                           np.linalg.norm(raw[:, lo:hi], axis=0))


def test_normalize_zero_column_diagnostic():
    spec = fc_spec("chain", 3, [4])
    frame = build_global_frame(spec, seed=0)
    frame.params[(0, 0)][:, 1] = 0.0
    frame.placed[(0, 0)][:, 1] = 0.0
    with pytest.raises(NormalizationError, match=r"layer 0.*column.*1"):
        normalize(frame)


# --- Gram structure ---------------------------------------------------------


@pytest.mark.parametrize("pattern,widths", [
    ("chain", [7, 5, 6]),
    ("dense", [7, 5, 6]),
    ("residual", [7, 5, 7]),
])
def test_gram_matches_materialized(pattern, widths):
    spec = fc_spec(pattern, 4, widths)
    unit, _ = normalize(build_global_frame(spec, seed=5))
    g = gram(unit)
    mat = unit.materialize()
    assert np.allclose(gram_full(g), mat.T @ mat, atol=1e-12)


def test_gram_matches_materialized_conv():
    spec = conv_spec("chain", 2, 4, [3, 2])
    unit, _ = normalize(build_global_frame(spec, seed=5))
    mat = unit.materialize()
    assert np.allclose(gram_full(gram(unit)), mat.T @ mat, atol=1e-12)


def test_gram_trace_and_counts():
    spec = fc_spec("dense", 4, [6, 5])
    unit, _ = normalize(build_global_frame(spec, seed=1))
    g = gram(unit)
    assert g.trace == pytest.approx(sum(spec.col_dims))
    full = gram_full(g)
    structural = np.count_nonzero(np.abs(full) > 0) - full.shape[0]
    assert g.offdiag_count >= structural


# even filters: the terms of one Gram pair meet at offset boxes that are
# not nested, so the pair's offsets are a union that no single term covers
EVEN_RESIDUAL = [conv_spec("residual", 2, 6, [2, 3, 2], filt=f, ndim=n)
                 for f in (4, 2) for n in (1, 2)]
EVEN_RESIDUAL_IDS = [f"conv{n}d-residual-f{f}" for f in (4, 2) for n in (1, 2)]


@pytest.mark.parametrize("spec", [
    fc_spec("chain", 4, [6, 5, 3]),
    fc_spec("residual", 4, [6, 5, 6]),
    fc_spec("dense", 4, [6, 5, 3]),
    conv_spec("chain", 2, 4, [3, 2]),
    conv_spec("chain", 2, 5, [3], stride=2),
    conv_spec("residual", 1, 6, [2, 3, 2], ndim=1),
    conv_spec("dense", 1, 4, [2, 2, 2]),
    conv_spec("chain", 2, 6, [4], filt=4, stride=2),
    conv_spec("residual", 2, 8, [3, 3, 3], ndim=1),
    conv_spec("dense", 2, 4, [2, 2, 2]),
    *EVEN_RESIDUAL,
    *MIXED,
], ids=["fc-chain", "fc-residual", "fc-dense", "conv-chain", "conv-stride2",
        "conv1d-residual", "conv-dense", "conv-stride2-f4", "conv1d-residual-2ch",
        "conv-dense-2ch", *EVEN_RESIDUAL_IDS, *MIXED_IDS])
def test_offdiag_count_equals_support_overlap(spec):
    # the structural count is the overlap count of the materialized supports
    frame = build_global_frame(spec, seed=3)
    support = (frame.materialize() != 0).astype(float)
    overlap = (support.T @ support) > 0
    expected = int(overlap.sum()) - overlap.shape[0]
    assert gram(normalize(frame)[0]).offdiag_count == expected


@pytest.mark.parametrize("spec", [
    fc_spec("chain", 4, [7, 5, 6]),
    fc_spec("residual", 4, [7, 5, 7]),
    fc_spec("dense", 4, [7, 5, 6]),
    conv_spec("chain", 2, 4, [3, 2]),
    conv_spec("residual", 2, 8, [3, 3, 3], ndim=1),
    conv_spec("dense", 2, 4, [2, 2, 2]),
    *EVEN_RESIDUAL,
    *MIXED,
], ids=["fc-chain", "fc-residual", "fc-dense", "conv-chain", "conv1d-residual",
        "conv-dense", *EVEN_RESIDUAL_IDS, *MIXED_IDS])
def test_gram_blocks_equal_dense_slices(spec):
    # identity couplings enter as diagonal scalings; every block still
    # equals its slice of the dense product, and absent pairs are zero
    unit, _ = normalize(build_global_frame(spec, seed=5))
    Bn = unit.materialize()
    dense = Bn.T @ Bn
    off = unit.structure.col_off
    blocks = gram(unit).blocks
    assert all(isinstance(blk, ConvGram) for blk in blocks.values())
    for j in range(spec.depth):
        for k in range(j, spec.depth):
            want = dense[off[j]:off[j + 1], off[k]:off[k + 1]]
            if (j, k) in blocks:
                np.testing.assert_allclose(blocks[(j, k)], want, rtol=0, atol=1e-14)
            else:
                assert not np.any(want)


def chain_gram_closed_form(frame):
    """Closed-form Gram blocks of a normalized chain operator.

    For a chain with diagonal blocks B_j and identity couplings, the
    normalized Gram has

        G_jj     = D_j (B_j^T B_j + I) D_j          (last layer: no +I)
        G_j,j+1  = -D_j B_{j+1} D_{j+1}

    with D_j = diag(1 / n_j) and n_j the global column norms of the
    unnormalized frame.
    """
    depth = frame.depth
    n = {j: np.sqrt(sum(np.sum(np.asarray(frame.placed[(i, j)]) ** 2, axis=0)
                        for i in frame.structure.rows_of[j]))
         for j in range(depth)}
    out = {}
    for j in range(depth):
        b = frame.placed[(j, j)]
        inner = b.T @ b
        if j + 1 < depth:
            inner = inner + np.eye(inner.shape[0])
        out[(j, j)] = inner / np.outer(n[j], n[j])
        if j + 1 < depth:
            out[(j, j + 1)] = -frame.placed[(j + 1, j + 1)] / np.outer(n[j], n[j + 1])
    return out


def test_chain_closed_form_agrees():
    spec = fc_spec("chain", 5, [8, 6, 4])
    raw = build_global_frame(spec, seed=9)
    blocks = chain_gram_closed_form(raw)
    unit, _ = normalize(raw)
    g = gram(unit)
    for key, val in blocks.items():
        assert np.allclose(val, g.blocks[key], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_gram_psd_property(seed):
    spec = random_specs(1, rng=np.random.default_rng(seed))[0]
    unit, _ = normalize(build_global_frame(spec, seed=seed))
    eigs = np.linalg.eigvalsh(gram_full(gram(unit)))
    assert eigs.min() > -1e-10


def test_frobenius_sq_matches_full():
    specs = random_specs(6)
    for i, spec in enumerate(specs):
        unit, _ = normalize(build_global_frame(spec, seed=i))
        g = gram(unit)
        assert g.frobenius_sq() == pytest.approx(
            float(np.sum(gram_full(g) ** 2)), rel=1e-12)
