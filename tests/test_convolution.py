"""Convolution blocks held as filter banks, against their dense forms."""

import json
import tracemalloc

import numpy as np
import pytest

from deepframe.archspec import serialize_spec
from deepframe.cli import main
from deepframe.framebuild import (GRAM_BYTE_LIMIT, ConvGeometry, Convolution, Diagonal,
                                  FrameBuildError, build_global_frame, gram, gram_bytes)
from deepframe.inference import bcd_inference, feed_forward

from conftest import conv_spec, loop_conv_entries


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
                        # summed in the dense einsum's order, so exactly equal
                        assert np.array_equal(blk.column_squares(),
                                              np.einsum("ij,ij->j", want, want))
                        if not coupling:
                            assert np.array_equal(np.linalg.norm(blk.packed_columns(), axis=0),
                                                  np.linalg.norm(want, axis=0))
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


# --- target size: 3ch 32x32 [16,16] conv chain, 32768 columns ---------------

TARGET = conv_spec("chain", 3, 32, [16, 16])


def refuse(self, dtype=None, copy=None):
    raise AssertionError(f"a {type(self).__name__} block was densified")


def test_gram_refuses_target_size_before_allocating():
    frame = build_global_frame(TARGET, seed=0)
    assert frame.shape == (3072 + 16384, 32768)
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


def test_analyze_refuses_target_size(tmp_path, capsys):
    spec = tmp_path / "target.json"
    spec.write_text(json.dumps(serialize_spec(TARGET)))
    tracemalloc.start()
    try:
        assert main(["analyze", str(spec)]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "GB limit" in capsys.readouterr().err
    assert peak < 200e6


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

