"""Identity couplings held as diagonals, against the same frames with them held densely."""

import numpy as np
import pytest

from deepframe.framebuild import (Convolution, Diagonal, GlobalFrame, build_global_frame, gram,
                                  normalize)
from deepframe.inference import (STEP_MARGIN, bcd_inference, block_step_sizes, feed_forward,
                                 layered_basis_pursuit)

from conftest import column_block, conv_spec, fc_spec

SPECS = [
    pytest.param(fc_spec("chain", 5, [8, 6, 4]), id="fc-chain"),
    pytest.param(conv_spec("chain", 2, 4, [3, 3]), id="conv-chain"),
    pytest.param(fc_spec("residual", 4, [6, 5, 6]), id="fc-residual"),
    pytest.param(conv_spec("residual", 2, 6, [2, 3, 2], ndim=1), id="conv-residual"),
    pytest.param(fc_spec("dense", 4, [6, 5, 3]), id="fc-dense"),
    pytest.param(conv_spec("dense", 2, 3, [2, 2, 2]), id="conv-dense"),
]


def identity_keys(frame):
    return [(b.row, b.col) for b in frame.structure.blocks if b.role == "identity"]


def densified(frame):
    """The same frame with every Diagonal block as a dense array.

    Conv blocks stay typed on both sides, so the two frames differ only in
    how identity couplings are held and the comparisons stay bit for bit.
    """
    return GlobalFrame(frame.structure, frame.params,
                       {key: np.asarray(blk) if isinstance(blk, Diagonal) else blk
                        for key, blk in frame.placed.items()},
                       frame.normalized)


def test_diagonal_products_match_dense(rng):
    d, e = rng.normal(size=5), rng.normal(size=5)
    D, dense = Diagonal(d), np.diag(d)
    v, M = rng.normal(size=5), rng.normal(size=(5, 3))
    assert np.array_equal(D @ v, dense @ v)
    assert np.array_equal(D.T @ M, dense.T @ M)
    assert np.array_equal(M.T @ D, M.T @ dense)
    assert np.array_equal(D @ Diagonal(e), dense @ np.diag(e))
    assert np.array_equal(np.asarray(D / e), dense / e)


@pytest.mark.parametrize("spec", SPECS)
def test_identity_couplings_are_diagonals(spec):
    frame = build_global_frame(spec, seed=0)
    unit, _ = normalize(frame)
    keys = identity_keys(frame)
    assert keys
    for f in (frame, unit):
        for i, j in keys:
            blk = f.placed[(i, j)]
            assert isinstance(blk, Diagonal)
            assert blk.d.shape == (frame.row_dims[i],)


@pytest.mark.parametrize("spec", SPECS)
def test_normalize_and_gram_match_densified(spec):
    frame = build_global_frame(spec, seed=1)
    unit, norms = normalize(frame)
    unit_dense, norms_dense = normalize(densified(frame))
    for j in norms:
        assert np.array_equal(norms[j], norms_dense[j])
    for key, blk in unit.placed.items():
        assert np.array_equal(np.asarray(blk), unit_dense.placed[key])
    for f in (frame, unit):
        g, g_dense = gram(f), gram(densified(f))
        assert g.blocks.keys() == g_dense.blocks.keys()
        for key, blk in g.blocks.items():
            assert np.array_equal(blk, g_dense.blocks[key])
        assert g.trace == g_dense.trace


@pytest.mark.parametrize("spec", SPECS)
def test_inference_matches_densified(spec, rng):
    unit, _ = normalize(build_global_frame(spec, seed=2))
    dense = densified(unit)
    x = rng.normal(size=unit.row_dims[0])
    runs = [lambda f: feed_forward(x, f, 0.05),
            lambda f: bcd_inference(x, f, 0.05, cycles=20),
            lambda f: bcd_inference(x, f, 0.05, cycles=20, gamma=0.1)]
    if spec.is_chain:
        runs.append(lambda f: layered_basis_pursuit(x, f, 0.05, budget=20))
    for run in runs:
        got, want = run(unit), run(dense)
        assert got.objectives == want.objectives
        for a, b in zip(got.codes, want.codes):
            assert np.array_equal(a, b)


def refuse(self, dtype=None, copy=None):
    raise AssertionError(f"a {type(self).__name__} block was densified")


@pytest.mark.parametrize("spec", SPECS)
def test_hot_paths_never_densify(spec, rng, monkeypatch):
    monkeypatch.setattr(Diagonal, "__array__", refuse)
    monkeypatch.setattr(Convolution, "__array__", refuse)
    unit, _ = normalize(build_global_frame(spec, seed=3))
    gram(unit)
    x = rng.normal(size=unit.row_dims[0])
    feed_forward(x, unit, 0.05)
    bcd_inference(x, unit, 0.05, cycles=5, gamma=0.1)
    if spec.is_chain:
        layered_basis_pursuit(x, unit, 0.05, budget=5)


# the 2ch 8x8 [8,8,8] conv chain of ``deepframe infer``'s benchmark (1152 x 1536)
INFER_CHAIN = conv_spec("chain", 2, 8, [8, 8, 8])


@pytest.mark.parametrize("spec", SPECS + [pytest.param(INFER_CHAIN, id="infer-chain")])
def test_block_steps_match_stacked_oracle_without_densifying(spec, monkeypatch):
    # the oracle is 1/L of each column block, L from eigvalsh of its dense Gram
    for frame in (build_global_frame(spec, seed=0), build_global_frame(spec, seed=4),
                  normalize(build_global_frame(spec, seed=4))[0]):
        blocks = [column_block(frame, j) for j in range(frame.depth)]
        want = [1.0 / (np.linalg.eigvalsh(b.T @ b)[-1] * STEP_MARGIN) for b in blocks]
        with monkeypatch.context() as patch:
            patch.setattr(Diagonal, "__array__", refuse)
            patch.setattr(Convolution, "__array__", refuse)
            got = block_step_sizes(frame)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_block_steps_take_few_operator_products(monkeypatch):
    # the estimates for the infer chain's three column blocks take 136 Gram
    # products; a power iteration took 710 and still stopped short of L
    frame = build_global_frame(INFER_CHAIN, seed=0)
    calls = 0
    apply = Convolution._apply

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(Convolution, "_apply", counting)
    block_step_sizes(frame)
    # each column block holds one conv block, applied twice per Gram product
    assert all(isinstance(frame.placed[(i, j)], Convolution) == (i == j)
               for j, rows in enumerate(frame.structure.rows_of) for i in rows)
    assert calls / 2 <= 250
