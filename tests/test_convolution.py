"""Convolution blocks held as filter banks, against their dense forms."""

import json
import tracemalloc

import numpy as np
import pytest

from deepframe.archspec import serialize_spec
from deepframe.cli import main
from deepframe.framebuild import (GRAM_BYTE_LIMIT, ConvGeometry, Convolution, Diagonal,
                                  FrameBuildError, build_global_frame, gram, gram_bytes,
                                  normalize)
from deepframe.inference import bcd_inference, feed_forward

from conftest import MIXED, MIXED_IDS, conv_spec, fc_spec, loop_conv_entries


def dense_oracle(geometry, stored, coupling):
    """S from the loop-nest triplets, placed as S or as -S^T."""
    rows, cols, taps, shape = loop_conv_entries(
        geometry.channels, geometry.filters, geometry.spatial, geometry.filter,
        geometry.stride, geometry.ndim)
    mat = np.zeros(shape)
    mat[rows, cols] = stored.reshape(-1)[taps]
    return -mat.T if coupling else mat


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_convolution_matches_dense_form(ndim, stride, f, rng):
    for channels in (1, 2, 3):
        for filters in (1, 2, 3):
            for spatial in (1, 4, 5):
                geometry = ConvGeometry(channels, filters, spatial, f, stride, ndim)
                stored = rng.normal(size=(filters, channels) + (f,) * ndim)
                for coupling in (False, True):
                    raw = Convolution.place(geometry, stored, coupling)
                    dense = dense_oracle(geometry, stored, coupling)
                    assert np.array_equal(np.asarray(raw), dense)
                    norms = rng.uniform(0.5, 2.0, size=dense.shape[1])
                    for blk, want in ((raw, dense), (raw / norms, dense / norms)):
                        assert blk.shape == want.shape
                        assert np.array_equal(np.asarray(blk), want)
                        assert np.array_equal(np.asarray(blk.T), want.T)
                        # one reduction over the taps, divided by the squared norms
                        assert_close(blk.column_squares(), np.einsum("ij,ij->j", want, want))
                        for op, mat in ((blk, want), (blk.T, want.T)):
                            for x in (rng.normal(size=mat.shape[1]),
                                      rng.normal(size=(mat.shape[1], 3))):
                                assert_close(op @ x, mat @ x)
                            y = rng.normal(size=(2, mat.shape[0]))
                            assert_close(y @ op, y @ mat)


def test_convolution_refuses_misshapen_operands():
    blk = Convolution.place(ConvGeometry(2, 3, 4, 3, 1, 2), np.ones((3, 2, 3, 3)), False)
    with pytest.raises(ValueError, match="expects 48"):
        blk @ np.ones(32)


def sorted_triplets(rows, cols, taps):
    rows, cols, taps = (a.reshape(-1) for a in np.broadcast_arrays(rows, cols, taps))
    order = np.lexsort((rows, cols))
    return rows[order], cols[order], taps[order]


def map_triplets(geometry):
    """S's (rows, cols, taps) read off each gather map, sorted by (col, row)."""
    g = geometry
    n_rows, n_cols = g.shape
    pixels, sites = n_rows // g.channels, n_cols // g.filters
    n_taps = g.filter ** g.ndim
    # corr_map[(c, u), t] is the row that tap u of window t reads on channel c
    cu, t = np.nonzero(g.corr_map < n_rows)
    filt = np.arange(g.filters)[:, None]
    yield sorted_triplets(g.corr_map[cu, t], filt * sites + t, filt * g.channels * n_taps + cu)
    # synth_map[(f, u), x] is the column that tap u of filter f places on pixel x
    fu, x = np.nonzero(g.synth_map < n_cols)
    chan = np.arange(g.channels)[:, None]
    filt, tap = np.divmod(fu, n_taps)
    yield sorted_triplets(chan * pixels + x, g.synth_map[fu, x],
                          (filt * g.channels + chan) * n_taps + tap)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_gather_maps_match_loop_nest(ndim, stride, f):
    for channels in (1, 2, 3):
        for filters in (1, 2, 3):
            for spatial in (1, 4, 5):
                args = (channels, filters, spatial, f, stride, ndim)
                # the loop nest, not conv_operator_entries, which reads corr_map
                rows, cols, taps, shape = loop_conv_entries(*args)
                want = sorted_triplets(rows, cols, taps)
                geometry = ConvGeometry(*args)
                assert geometry.shape == shape
                assert geometry.corr_map.shape == (channels * f ** ndim, shape[1] // filters)
                assert geometry.synth_map.shape == (filters * f ** ndim, shape[0] // channels)
                for got in map_triplets(geometry):
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b), args


# --- target size: 3ch 32x32 [16,16] conv chain, 32768 columns; oversized Gram --

TARGET = conv_spec("chain", 3, 32, [16, 16])


def refuse(self, dtype=None, copy=None):
    raise AssertionError(f"a {type(self).__name__} block was densified")


# an FC spec whose single dense Gram block alone needs 4.6 GB
OVERSIZED = fc_spec("chain", 8, [24000])


def test_gram_refuses_oversized_structure_before_allocating():
    frame = build_global_frame(OVERSIZED, seed=0)
    need = gram_bytes(frame.structure)
    assert need > 6e9 > GRAM_BYTE_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(FrameBuildError, match=r"about \d+\.\d GB, over the 2\.1 GB limit"):
            gram(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_analyze_refuses_oversized_gram(tmp_path, capsys):
    spec = tmp_path / "oversized.json"
    spec.write_text(json.dumps(serialize_spec(OVERSIZED)))
    tracemalloc.start()
    try:
        assert main(["analyze", str(spec)]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "GB limit" in capsys.readouterr().err
    assert peak < 200e6



# frames whose Gram the estimate covers: the identity-coupling shapes, the
# mixed kinds, the benchmark's analyze shapes, even filters and the target
ESTIMATED = [
    fc_spec("chain", 5, [8, 6, 4]), conv_spec("chain", 2, 4, [3, 3]),
    fc_spec("residual", 4, [6, 5, 6]), conv_spec("residual", 2, 6, [2, 3, 2], ndim=1),
    fc_spec("dense", 4, [6, 5, 3]), conv_spec("dense", 2, 3, [2, 2, 2]),
    *MIXED,
    conv_spec("chain", 3, 12, [8, 8]), conv_spec("chain", 3, 20, [16], filt=4, stride=2),
    conv_spec("residual", 4, 64, [8, 8, 8], ndim=1), conv_spec("dense", 2, 10, [6, 6, 6]),
    conv_spec("residual", 2, 6, [2, 3, 2], filt=4),
    TARGET,
]
ESTIMATED_IDS = ["fc-chain", "conv-chain", "fc-residual", "conv-residual", "fc-dense",
                 "conv-dense", *MIXED_IDS, "chain2d", "stride2d", "residual1d", "dense2d",
                 "residual-f4", "target"]


@pytest.mark.parametrize("spec", ESTIMATED, ids=ESTIMATED_IDS)
def test_gram_bytes_bounds_what_gram_allocates(spec):
    # under 64 KB, fixed allocation overhead outweighs the Gram itself
    unit, _ = normalize(build_global_frame(spec, seed=0))
    need = gram_bytes(unit.structure)  # compiles the plan before the count starts
    tracemalloc.start()
    try:
        gram(unit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert need < 64 * 1024 or peak <= 1.25 * need

def gram_entry(blk, row, col):
    """Entry (row, col) of a Gram block held by offsets."""
    sites = blk.values.shape[3]
    (a, t), (b, site) = divmod(row, sites), divmod(col, sites)
    hit = np.flatnonzero(blk.dest[:, t] == site)
    return blk.values[hit[0], a, b, t] if hit.size else 0.0


def column_entry(frame, key, col):
    """The global column ``col`` of column group ``key[1]`` on row group ``key[0]``,
    through the placed block's own product."""
    e = np.zeros(frame.col_dims[key[1]])
    e[col] = 1.0
    return frame.placed[key] @ e


def test_target_size_analyze_never_densifies(tmp_path, monkeypatch):
    monkeypatch.setattr(Convolution, "__array__", refuse)
    monkeypatch.setattr(Diagonal, "__array__", refuse)
    spec, out = tmp_path / "target.json", tmp_path / "report.json"
    spec.write_text(json.dumps(serialize_spec(TARGET)))
    tracemalloc.start()
    try:
        assert main(["analyze", str(spec), "--seed", "0", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500e6
    report = json.loads(out.read_text())["report"]
    assert report["cols"] == 32768
    assert report["trace"] == pytest.approx(32768, abs=1e-9)  # 32768 unit columns
    assert report["averaged_bound"] <= report["mutual_coherence"]
    assert report["chain_lower_bound"] <= report["frame_potential"]

    # sampled entries against inner products of the global columns
    unit, _ = normalize(build_global_frame(TARGET, seed=0))
    g, st = gram(unit), unit.structure
    rng = np.random.default_rng(5)
    for n in range(200):
        j, k = list(st.shared)[n % len(st.shared)]
        blk = g.blocks[(j, k)]
        row = int(rng.integers(st.col_dims[j]))
        if n % 4:  # mostly a structurally nonzero entry of that row
            d = int(rng.integers(len(blk.offsets)))
            site = blk.dest[d, row % blk.values.shape[3]]
            if site == blk.values.shape[3]:
                continue
            col = int(rng.integers(blk.values.shape[2])) * blk.values.shape[3] + int(site)
        else:
            col = int(rng.integers(st.col_dims[k]))
        want = sum(column_entry(unit, (i, j), row) @ column_entry(unit, (i, k), col)
                   for i in st.shared[(j, k)])
        assert abs(gram_entry(blk, row, col) - want) <= 1e-12


def test_target_size_inference_never_densifies(monkeypatch):
    monkeypatch.setattr(Convolution, "__array__", refuse)
    monkeypatch.setattr(Diagonal, "__array__", refuse)
    x = np.random.default_rng(0).normal(size=(TARGET.input_dim, 4))
    tracemalloc.start()
    try:
        frame = build_global_frame(TARGET, seed=0)
        ff = feed_forward(x, frame, 0.1)
        bcd = bcd_inference(x, frame, 0.1, cycles=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200e6
    for a, b in zip(ff, bcd):
        assert b.objectives[-1] <= a.final_objective
        assert all(q <= p for p, q in zip(b.objectives, b.objectives[1:]))

