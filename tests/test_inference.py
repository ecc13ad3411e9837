"""Sparse inference: prox, forward pass, block descent, layered pursuit."""

import math
from pathlib import Path

import numpy as np
import pytest

from deepframe.archspec import load_spec
from deepframe.framebuild import Diagonal, build_global_frame, normalize
from deepframe.inference import (
    STEP_MARGIN,
    DivergenceError,
    UnsupportedMethodError,
    bcd_inference,
    block_step_sizes,
    feed_forward,
    largest_sq_singular_value,
    layered_basis_pursuit,
    objective_value,
    prox_nonneg_soft_threshold,
    safe_step,
)

from conftest import column_block, conv_spec, fc_spec


def grid_prox_oracle(v, lam, step=1e-4):
    """Brute-force argmin of 1/2 (w - v)^2 + lam * w over w >= 0."""
    grid = np.arange(0.0, max(abs(v) * 2, 1.0), step)
    vals = 0.5 * (grid - v) ** 2 + lam * grid
    return grid[np.argmin(vals)]


def stacked_ista_oracle(x, frame, lam, iters):
    """Proximal gradient on the materialized global system.

    The global objective splits row-group-wise; stacking the placed
    blocks into one matrix with target [x; 0; ...; 0] turns it into a
    single shallow problem solved by plain ISTA.
    """
    mat = frame.materialize()
    target = np.zeros(mat.shape[0])
    target[:frame.row_dims[0]] = x
    lam_vec = np.concatenate([
        np.full(frame.col_dims[j], lam) for j in range(frame.depth)
    ])
    step = safe_step(mat)
    w = np.zeros(mat.shape[1])
    for _ in range(iters):
        grad = mat.T @ (mat @ w - target)
        w = np.maximum(w - step * grad - step * lam_vec, 0.0)
    r = mat @ w - target
    return 0.5 * float(r @ r) + float(lam_vec @ w), w


def layered_ista_oracle(x, blocks, lams, iters):
    """Nonnegative ISTA layer by layer on bare matrices.

    Layer j codes the previous layer's codes (x for layer 0) with its block
    from zero, at a step just under 1/L of the block, keeping the residual
    r = B w - target current by r += B @ (new - w).
    """
    codes, target = [], x
    for B, lam in zip(blocks, lams):
        step = safe_step(B)
        w = np.zeros(B.shape[1])
        r = -target
        for _ in range(iters):
            new = np.maximum(w - step * (B.T @ r) - step * lam, 0.0)
            r += B @ (new - w)
            w = new
        codes.append(w)
        target = w
    return codes


# --- proximal operator ------------------------------------------------------


@pytest.mark.parametrize("v,lam", [(2.0, 0.5), (0.3, 0.5), (-1.0, 0.5),
                                   (1.0, 0.0), (0.0, 0.1), (5.0, 3.0)])
def test_prox_against_grid_oracle(v, lam):
    got = prox_nonneg_soft_threshold(np.array([v]), lam)[0]
    assert got == pytest.approx(grid_prox_oracle(v, lam), abs=1e-4)


def test_prox_elementwise():
    v = np.array([-2.0, 0.2, 1.7])
    assert np.allclose(prox_nonneg_soft_threshold(v, 0.5),
                       [0.0, 0.0, 1.2])


# --- step sizes -------------------------------------------------------------


def test_largest_sq_singular_value_matches_svd(rng):
    for _ in range(10):
        mat = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        want = float(np.linalg.svd(mat, compute_uv=False)[0] ** 2)
        assert largest_sq_singular_value(mat) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("mat,want", [
    ([[1.0, -1.0]], 2.0),          # a null space beside the top eigenvector
    ([[0.0, 0.0], [0.0, 0.0]], 0.0),
])
def test_largest_sq_singular_value_null_start(mat, want):
    assert largest_sq_singular_value(np.array(mat)) == pytest.approx(want, rel=1e-12)


def test_ones_eigenvector_does_not_trap_the_estimate():
    # P^T P = [[2, -1], [-1, 2]] has the ones vector as its eigenvector of
    # eigenvalue 1; L = 3 lies on (1, -1)
    mat = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    assert largest_sq_singular_value(mat) == pytest.approx(3.0, rel=1e-12)
    assert safe_step(mat) < 1.0 / 3.0


@pytest.mark.parametrize("size", [6, 200])
def test_top_eigenvector_orthogonal_to_ones_is_found(size):
    # the second difference of an even-length grid: its top eigenvector is
    # odd about the centre, so every even vector, ones included, misses it
    mat = 2 * np.eye(size) - np.eye(size, k=1) - np.eye(size, k=-1)
    top = np.linalg.eigvalsh(mat.T @ mat)[-1]
    assert largest_sq_singular_value(mat) == pytest.approx(top, rel=1e-12)
    assert safe_step(mat) < 1.0 / top


@pytest.mark.parametrize("diag", [[1.0, 1.0, 1.0, 2.0, 2.0, 2.0], [1.0] * 12,
                                  [0.0, 0.0, 0.0, 0.0, 3.0]])
def test_invariant_krylov_space_continues_to_the_top(diag):
    # repeated eigenvalues make every Krylov space invariant after as many
    # steps as there are distinct ones
    mat = np.diag(diag)
    assert largest_sq_singular_value(mat) == pytest.approx(max(diag) ** 2, rel=1e-12)
    assert largest_sq_singular_value(Diagonal(np.array(diag))) == pytest.approx(
        max(diag) ** 2, rel=1e-12)


def test_largest_sq_singular_value_converges_on_near_degenerate_tops(rng):
    # a nearly degenerate top of the spectrum, which a power iteration
    # leaves short of the eigenvalue by more than the step margin
    for gap in (1e-3, 3e-4, 1e-4):
        u, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        v, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        sing = np.sqrt(np.array([1.0, 1.0 - gap, 1.0 - 2 * gap, 0.5, 0.4, 0.3, 0.2, 0.1]))
        mat = u[:, :8] * sing @ v.T
        top = np.linalg.eigvalsh(mat.T @ mat)[-1]
        assert largest_sq_singular_value(mat) == pytest.approx(top, rel=1e-12)
        assert safe_step(mat) < 1.0 / top


def test_largest_sq_singular_value_of_blocks_is_that_of_their_stack(rng):
    blocks = [rng.normal(size=(4, 6)), Diagonal(rng.normal(size=6)), rng.normal(size=(3, 6))]
    stacked = np.vstack([np.asarray(b) for b in blocks])
    got, want = largest_sq_singular_value(*blocks), largest_sq_singular_value(stacked)
    assert got == pytest.approx(want, rel=1e-12)
    assert safe_step(*blocks) == pytest.approx(safe_step(stacked), rel=1e-12)


def test_safe_step_is_below_lipschitz(rng):
    mat = rng.normal(size=(6, 8))
    lip = float(np.linalg.svd(mat, compute_uv=False)[0] ** 2)
    assert safe_step(mat) < 1.0 / lip



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["chain", "conv_chain"])
def test_step_sizes_hold_at_large_parameter_scales(name):
    # at 1e150 the Gram products' squared norms overflow. Identity couplings
    # keep their scale, so the oracle is each column block's top eigenvalue,
    # computed exactly on the block rescaled by a power of two
    spec = load_spec(Path(__file__).parent.parent / "docs" / "examples" / f"{name}.json")
    params = build_global_frame(spec, seed=0).params
    frame = build_global_frame(spec, params={key: 1e150 * arr for key, arr in params.items()})
    for j, step in enumerate(block_step_sizes(frame)):
        blk = column_block(frame, j) * 2.0 ** -500
        lip = np.linalg.eigvalsh(blk.T @ blk)[-1] * 2.0 ** 1000
        assert step * lip * STEP_MARGIN == pytest.approx(1.0, rel=1e-12)
    x = np.random.default_rng(0).normal(size=(spec.input_dim, 2))
    for res in bcd_inference(x, frame, 0.1, cycles=20):
        assert all(q <= p for p, q in zip(res.objectives, res.objectives[1:]))

# --- global objective and forward pass ---------------------------------------


# conv blocks take their operands padded in place, so the objective and the
# descent invariants run on conv frames too, with and without unit columns
CONV_FRAMES = [
    pytest.param(spec, normalized, id=f"{name}-{'normalized' if normalized else 'raw'}")
    for name, spec in [("conv2d-chain", conv_spec("chain", 2, 5, [3, 2])),
                       ("conv1d-residual", conv_spec("residual", 2, 8, [3, 2, 3], ndim=1))]
    for normalized in (False, True)
]


def inference_frame(spec, seed, normalized):
    frame = build_global_frame(spec, seed=seed)
    return normalize(frame)[0] if normalized else frame


def test_objective_value_by_hand():
    spec = fc_spec("chain", 2, [2])
    frame = build_global_frame(spec, params={(0, 0): np.eye(2)})
    x = np.array([1.0, 2.0])
    w = [np.array([1.0, 0.5])]
    # residual (0, 1.5), penalty 0.1 * 1.5
    assert objective_value(w, frame, x, 0.1) == pytest.approx(
        0.5 * 1.5 ** 2 + 0.15)


def test_objective_value_infinite_on_negative():
    spec = fc_spec("chain", 2, [2])
    frame = build_global_frame(spec, params={(0, 0): np.eye(2)})
    assert math.isinf(objective_value([np.array([-0.1, 0.0])], frame,
                                      np.zeros(2), 0.1))


def dense_objective(frame, codes, x, lams):
    """The global objective off the materialized operator, summed layer by layer."""
    target = np.zeros(frame.shape[0])
    target[:frame.row_dims[0]] = x
    r = frame.materialize() @ np.concatenate(codes) - target
    return 0.5 * float(r @ r) + sum(lam * float(np.sum(w)) for lam, w in zip(lams, codes))


@pytest.mark.parametrize("spec,normalized", [
    pytest.param(fc_spec("dense", 4, [6, 5, 4]), False, id="fc-dense-raw"),
    pytest.param(fc_spec("residual", 4, [6, 5, 6]), True, id="fc-residual-normalized"),
] + CONV_FRAMES)
def test_objective_value_matches_dense_oracle(spec, normalized, rng):
    frame = inference_frame(spec, 9, normalized)
    lams = [0.1 * (j + 1) for j in range(frame.depth)]
    for _ in range(3):
        codes = [np.maximum(rng.normal(size=d), 0.0) for d in frame.col_dims]
        x = rng.normal(size=frame.row_dims[0])
        assert objective_value(codes, frame, x, lams) == pytest.approx(
            dense_objective(frame, codes, x, lams), rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_objective_value_refuses_non_finite_codes(bad):
    frame = build_global_frame(fc_spec("chain", 2, [2, 3]), seed=0)
    codes = [np.array([-0.5, 0.0]), np.array([0.5, bad, 0.0])]
    with pytest.raises(ValueError, match="^layer 1: code has non-finite entries$"):
        objective_value(codes, frame, np.zeros(2), 0.1)


def test_feed_forward_single_layer_is_thresholding(rng):
    spec = fc_spec("chain", 4, [7])
    frame = build_global_frame(spec, seed=1)
    x = rng.normal(size=4)
    res = feed_forward(x, frame, 0.2)
    want = np.maximum(frame.placed[(0, 0)].T @ x - 0.2, 0.0)
    assert np.allclose(res.codes[0], want, atol=0)


def test_feed_forward_chain_recursion(rng):
    spec = fc_spec("chain", 3, [5, 4])
    frame = build_global_frame(spec, seed=2)
    x = rng.normal(size=3)
    res = feed_forward(x, frame, [0.1, 0.3])
    w0 = np.maximum(frame.placed[(0, 0)].T @ x - 0.1, 0.0)
    # row 1 couples the identity feedback: u_1 = -placed[(1,0)] w0 = w0
    w1 = np.maximum(frame.placed[(1, 1)].T @ w0 - 0.3, 0.0)
    assert np.allclose(res.codes[0], w0, atol=0)
    assert np.allclose(res.codes[1], w1, atol=0)


def test_feed_forward_validates_input():
    spec = fc_spec("chain", 3, [5])
    frame = build_global_frame(spec, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        feed_forward(np.zeros(4), frame, 0.1)
    with pytest.raises(ValueError, match="penalty"):
        feed_forward(np.zeros(3), frame, [0.1, 0.2])


@pytest.mark.parametrize("method", [feed_forward, layered_basis_pursuit,
                                    bcd_inference])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_methods_refuse_non_finite_signal(method, bad):
    spec = fc_spec("chain", 3, [5, 4])
    frame = build_global_frame(spec, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        method(np.array([0.5, bad, -1.0]), frame, 0.1)


@pytest.mark.filterwarnings("error")
def test_objective_value_refuses_overflowing_signal():
    frame = build_global_frame(fc_spec("chain", 3, [5, 4]), seed=0)
    codes = [np.zeros(d) for d in frame.col_dims]
    with pytest.raises(ValueError, match=r"^input signals \[0\] have non-finite entries "
                       r"or squared norms that overflow$"):
        objective_value(codes, frame, np.array([1e200, 0.0, -1e200]), 0.1)


# --- block coordinate descent -------------------------------------------------


def check_one_sweep_matches_feed_forward(frame, x, lam):
    ff = feed_forward(x, frame, lam)
    one = bcd_inference(x, frame, lam, cycles=1, gamma=1.0)
    assert any(np.any(w > 0) for w in ff.codes)
    for a, b in zip(ff.codes, one.codes):
        assert np.array_equal(a, b)


def check_bcd_monotone(frame, x, lam, cycles):
    res = bcd_inference(x, frame, lam, cycles=cycles)
    assert np.all(np.diff(res.objectives) <= 1e-12)


def check_maintained_objective_matches_fresh(frame, x, lam, warm, rng):
    init = [rng.uniform(0, 1, size=d) for d in frame.col_dims] if warm else None
    res = bcd_inference(x, frame, lam, cycles=500, init=init)
    fresh = objective_value(res.codes, frame, x, lam)
    assert res.final_objective == pytest.approx(fresh, rel=1e-12)


@pytest.mark.parametrize("pattern,widths", [
    ("chain", [6, 5, 4]),
    ("dense", [6, 5, 4]),
    ("residual", [6, 5, 6]),
])
def test_one_sweep_matches_feed_forward(pattern, widths, rng):
    frame = build_global_frame(fc_spec(pattern, 4, widths), seed=6)
    check_one_sweep_matches_feed_forward(frame, rng.normal(size=4), 0.15)


@pytest.mark.parametrize("spec,normalized", CONV_FRAMES)
def test_one_sweep_matches_feed_forward_conv(spec, normalized, rng):
    frame = inference_frame(spec, 6, normalized)
    check_one_sweep_matches_feed_forward(frame, rng.normal(size=frame.row_dims[0]), 0.05)


@pytest.mark.parametrize("pattern,widths", [
    ("chain", [7, 5]),
    ("dense", [7, 5]),
])
def test_bcd_matches_stacked_oracle(pattern, widths, rng):
    spec = fc_spec(pattern, 5, widths)
    frame = build_global_frame(spec, seed=8)
    x = rng.normal(size=5)
    res = bcd_inference(x, frame, 0.1, cycles=3000)
    want, _ = stacked_ista_oracle(x, frame, 0.1, iters=12000)
    assert res.final_objective == pytest.approx(want, abs=1e-8)


def test_bcd_monotone(rng):
    frame = build_global_frame(fc_spec("dense", 5, [8, 6, 5]), seed=4)
    check_bcd_monotone(frame, rng.normal(size=5), 0.05, cycles=120)


@pytest.mark.parametrize("spec,normalized", CONV_FRAMES)
def test_bcd_monotone_conv(spec, normalized, rng):
    frame = inference_frame(spec, 4, normalized)
    check_bcd_monotone(frame, rng.normal(size=frame.row_dims[0]), 0.05, cycles=120)


@pytest.mark.parametrize("warm", [False, True])
def test_bcd_maintained_objective_matches_fresh(warm, rng):
    # each cycle's objective comes from the updated residual, not a recomputation
    frame = build_global_frame(fc_spec("residual", 5, [8, 6, 8]), seed=12)
    check_maintained_objective_matches_fresh(frame, rng.normal(size=5), 0.05, warm, rng)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("spec,normalized", CONV_FRAMES)
def test_bcd_maintained_objective_matches_fresh_conv(spec, normalized, warm, rng):
    frame = inference_frame(spec, 12, normalized)
    check_maintained_objective_matches_fresh(frame, rng.normal(size=frame.row_dims[0]),
                                             0.05, warm, rng)


def test_bcd_two_inits_agree(rng):
    spec = fc_spec("chain", 5, [8, 6])
    frame = build_global_frame(spec, seed=10)
    x = rng.normal(size=5)
    cold = bcd_inference(x, frame, 0.08, cycles=2500)
    warm_start = [rng.uniform(0, 1, size=frame.col_dims[j]) for j in range(2)]
    warm = bcd_inference(x, frame, 0.08, cycles=2500, init=warm_start)
    assert warm.final_objective == pytest.approx(cold.final_objective, abs=1e-9)


def test_bcd_dominates_feed_forward(rng):
    spec = fc_spec("residual", 4, [7, 5, 7])
    frame = build_global_frame(spec, seed=3)
    for _ in range(5):
        x = rng.normal(size=4)
        ff = feed_forward(x, frame, 0.1)
        res = bcd_inference(x, frame, 0.1, cycles=150)
        assert res.final_objective <= ff.final_objective + 1e-12


def test_bcd_validates_init():
    spec = fc_spec("chain", 3, [4, 4])
    frame = build_global_frame(spec, seed=0)
    with pytest.raises(ValueError, match="initial code blocks"):
        bcd_inference(np.zeros(3), frame, 0.1, init=[np.zeros(4)])
    with pytest.raises(ValueError, match="length"):
        bcd_inference(np.zeros(3), frame, 0.1, init=[np.zeros(4), np.zeros(9)])
    with pytest.raises(ValueError, match="nonnegative"):
        bcd_inference(np.zeros(3), frame, 0.1,
                      init=[np.zeros(4), np.array([1.0, -1.0, 0.0, 0.0])])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_bcd_refuses_non_finite_init(bad):
    spec = fc_spec("chain", 3, [4, 4])
    frame = build_global_frame(spec, seed=0)
    with pytest.raises(ValueError, match="layer 1 must be finite and nonnegative"):
        bcd_inference(np.zeros(3), frame, 0.1,
                      init=[np.zeros(4), np.array([1.0, bad, 0.0, 0.0])])


def test_bcd_diverges_loudly(rng):
    spec = fc_spec("chain", 4, [8, 6])
    frame = build_global_frame(spec, seed=2)
    with pytest.raises(DivergenceError, match="cycle"):
        bcd_inference(rng.normal(size=4), frame, 0.01, cycles=400, gamma=50.0)


def test_bcd_rejects_bad_options(rng):
    spec = fc_spec("chain", 3, [4])
    frame = build_global_frame(spec, seed=0)
    with pytest.raises(ValueError, match="cycle"):
        bcd_inference(np.zeros(3), frame, 0.1, cycles=0)
    with pytest.raises(ValueError, match="step mode"):
        bcd_inference(np.zeros(3), frame, 0.1, gamma="fast")


def test_block_step_sizes_cover_column_blocks():
    spec = fc_spec("dense", 4, [7, 5])
    frame = build_global_frame(spec, seed=1)
    steps = block_step_sizes(frame)
    for j, step in enumerate(steps):
        blk = column_block(frame, j)
        lip = float(np.linalg.svd(blk, compute_uv=False)[0] ** 2)
        assert step < 1.0 / lip


# --- layered pursuit ----------------------------------------------------------


def test_layered_bp_chain_only():
    spec = fc_spec("dense", 3, [5, 4])
    frame = build_global_frame(spec, seed=0)
    with pytest.raises(UnsupportedMethodError, match="chain"):
        layered_basis_pursuit(np.zeros(3), frame, 0.1)


def test_shallow_ista_orthonormal_closed_form(rng):
    # single-layer ISTA is layered pursuit on a depth-1 chain; for orthonormal
    # B the solution is one thresholding of B^T x
    q, _ = np.linalg.qr(rng.normal(size=(6, 4)))
    frame = build_global_frame(fc_spec("chain", 6, [4]), params={(0, 0): q})
    x = rng.normal(size=6)
    res = layered_basis_pursuit(x, frame, 0.3, budget=200)
    assert np.allclose(res.codes[0], np.maximum(q.T @ x - 0.3, 0.0), atol=1e-10)


def test_shallow_ista_validates():
    frame = build_global_frame(fc_spec("chain", 2, [2]), params={(0, 0): np.eye(2)})
    with pytest.raises(ValueError, match="dimension"):
        layered_basis_pursuit(np.zeros(3), frame, 0.1)
    with pytest.raises(ValueError, match="budget"):
        layered_basis_pursuit(np.zeros(2), frame, 0.1, budget=0)


def test_layered_bp_single_layer_equals_shallow(rng):
    spec = fc_spec("chain", 4, [7])
    frame = build_global_frame(spec, seed=1)
    x = rng.normal(size=4)
    res = layered_basis_pursuit(x, frame, 0.1, budget=300)
    [want] = layered_ista_oracle(x, [frame.placed[(0, 0)]], [0.1], iters=300)
    assert np.array_equal(res.codes[0], want)


def test_layered_bp_composes_shallow_solves(rng):
    # definitionally layer by layer: layer 1 codes the codes of layer 0
    spec = fc_spec("chain", 5, [9, 7])
    frame = build_global_frame(spec, seed=7)
    x = rng.normal(size=5)
    lbp = layered_basis_pursuit(x, frame, [0.1, 0.2], budget=400)
    first, second = layered_ista_oracle(
        x, [frame.placed[(0, 0)], frame.placed[(1, 1)]], [0.1, 0.2], iters=400)
    assert np.array_equal(lbp.codes[0], first)
    assert np.array_equal(lbp.codes[1], second)


def test_layered_bp_objective_matches_fresh(rng):
    # the reported objective is read off the kept residual, couplings included
    spec = fc_spec("chain", 5, [9, 7, 6])
    frame = build_global_frame(spec, seed=4)
    x = rng.normal(size=5)
    lbp = layered_basis_pursuit(x, frame, [0.1, 0.2, 0.05], budget=200)
    fresh = objective_value(lbp.codes, frame, x, [0.1, 0.2, 0.05])
    assert lbp.final_objective == pytest.approx(fresh, rel=1e-12)


# --- batches of signals -------------------------------------------------------

BATCH_SPECS = [
    pytest.param(fc_spec("chain", 5, [8, 6, 4]), id="fc-chain"),
    pytest.param(fc_spec("residual", 4, [6, 5, 6]), id="fc-residual"),
    pytest.param(fc_spec("dense", 4, [6, 5, 3]), id="fc-dense"),
    pytest.param(conv_spec("chain", 2, 4, [3, 3]), id="conv-chain"),
]


def batch_runs(spec):
    """Each method as a function of (signals, frame), on the specs it applies to."""
    runs = {"feed_forward": lambda x, f: feed_forward(x, f, 0.05),
            "bcd": lambda x, f: bcd_inference(x, f, 0.05, cycles=40),
            "bcd_gamma": lambda x, f: bcd_inference(x, f, 0.05, cycles=40, gamma=0.1)}
    if spec.is_chain:
        runs["layered_bp"] = lambda x, f: layered_basis_pursuit(x, f, 0.05, budget=40)
    return runs


@pytest.mark.parametrize("spec", BATCH_SPECS)
def test_one_column_batch_equals_vector_call(spec, rng):
    frame, _ = normalize(build_global_frame(spec, seed=5))
    x = rng.normal(size=frame.row_dims[0])
    for name, run in batch_runs(spec).items():
        single = run(x, frame)
        [batch] = run(x[:, None], frame)
        assert batch.objectives == single.objectives, name
        assert batch.sparsity == single.sparsity, name
        assert batch.step_sizes == single.step_sizes, name
        for a, b in zip(batch.codes, single.codes):
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("spec", BATCH_SPECS)
def test_batch_columns_match_their_own_solves(spec, rng):
    frame, _ = normalize(build_global_frame(spec, seed=6))
    signals = rng.normal(size=(frame.row_dims[0], 5))
    for name, run in batch_runs(spec).items():
        batch = run(signals, frame)
        assert len(batch) == 5
        for s, got in enumerate(batch):
            want = run(signals[:, s], frame)
            assert len(got.objectives) == len(want.objectives)
            for a, b in zip(got.objectives, want.objectives):
                assert a == pytest.approx(b, rel=1e-12), name
            for a, b in zip(got.codes, want.codes):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-14, name


def test_diverging_batch_names_its_signal_and_cycle(rng):
    frame = build_global_frame(fc_spec("chain", 4, [8, 6]), seed=2)
    x = rng.normal(size=4)
    with pytest.raises(DivergenceError) as alone:
        bcd_inference(x, frame, 0.01, cycles=400, gamma=50.0)
    cycle = str(alone.value).split("cycle ")[1]
    signals = np.zeros((4, 4))
    signals[:, 2] = x
    with pytest.raises(DivergenceError, match=f"signal 2 went non-finite at cycle {cycle}$"):
        bcd_inference(signals, frame, 0.01, cycles=400, gamma=50.0)


def test_batch_refusals_name_the_signal():
    frame = build_global_frame(fc_spec("chain", 3, [4, 4]), seed=0)
    signals = np.zeros((3, 4))
    signals[1, 3] = np.nan
    with pytest.raises(ValueError, match=r"signals \[3\] have non-finite"):
        feed_forward(signals, frame, 0.1)
    with pytest.raises(ValueError, match="empty"):
        feed_forward(np.zeros((3, 0)), frame, 0.1)
    with pytest.raises(ValueError, match="initial codes for layer 0"):
        bcd_inference(np.zeros((3, 2)), frame, 0.1, init=[np.zeros(4), np.zeros(4)])
    warm = [np.full((4, 2), 0.5), np.zeros((4, 2))]
    res = bcd_inference(np.zeros((3, 2)), frame, 0.1, cycles=5, init=warm)
    assert len(res) == 2
