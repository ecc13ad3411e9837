"""Frame potential descent and its gradient."""

import json
import tracemalloc

import numpy as np
import pytest

from deepframe import archspec, framebuild, minimize
from deepframe.coherence import frame_potential, mutual_coherence
from deepframe.framebuild import FrameBuildError, build_global_frame, gram, normalize
from deepframe.minimize import (
    MinimizeError,
    MinimizeOptions,
    _FlatMap,
    minimize_deep_frame_potential,
    potential_gradient,
)

from conftest import MIXED, MIXED_IDS, conv_spec, fc_spec


def objective_at(spec, params):
    """The quantity the minimizer descends, recomputed from scratch."""
    frame = build_global_frame(spec, params=params)
    unit, _ = normalize(frame)
    g = gram(unit)
    return (g.frobenius_sq() - sum(spec.col_dims)) / g.offdiag_count


def finite_difference(spec, params, eps=1e-6):
    out = {}
    for key, arr in params.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = objective_at(spec, params)
            flat[i] = keep - eps
            lo = objective_at(spec, params)
            flat[i] = keep
            gflat[i] = (hi - lo) / (2 * eps)
        out[key] = grad
    return out


def relative_gap(analytic, numeric):
    num = np.sqrt(sum(float(np.sum((analytic[k] - numeric[k]) ** 2))
                      for k in analytic))
    den = np.sqrt(sum(float(np.sum(numeric[k] ** 2)) for k in numeric))
    return num / den


# --- options ------------------------------------------------------------------


def test_options_validate():
    with pytest.raises(ValueError):
        MinimizeOptions(max_iters=0)
    with pytest.raises(ValueError):
        MinimizeOptions(restarts=0)


# --- gradient -----------------------------------------------------------------


@pytest.mark.parametrize("pattern,widths", [
    ("chain", [5, 4]),
    ("dense", [5, 4]),
    ("residual", [4, 3, 4]),
])
def test_gradient_matches_finite_differences(pattern, widths):
    spec = fc_spec(pattern, 3, widths)
    params = build_global_frame(spec, seed=17).params
    analytic = potential_gradient(params, spec)
    numeric = finite_difference(spec, params)
    assert relative_gap(analytic, numeric) < 1e-6


@pytest.mark.parametrize("spec", [
    pytest.param(conv_spec("chain", 1, 4, [2, 2], filt=3), id="chain"),
    # learnable off-diagonal conv couplings: the transposed, negated path
    pytest.param(conv_spec("dense", 1, 3, [2, 2, 2]), id="dense"),
    pytest.param(conv_spec("residual", 2, 3, [2, 2, 2]), id="residual"),
    pytest.param(conv_spec("dense", 1, 6, [2, 2], ndim=1), id="dense-1d"),
    pytest.param(conv_spec("chain", 2, 5, [3], filt=4, stride=2), id="stride2"),
])
def test_gradient_matches_finite_differences_conv(spec):
    params = build_global_frame(spec, seed=17).params
    analytic = potential_gradient(params, spec)
    numeric = finite_difference(spec, params)
    assert relative_gap(analytic, numeric) < 1e-6


def test_gradient_shapes_match_params():
    spec = conv_spec("residual", 2, 3, [3, 3, 3])
    params = build_global_frame(spec, seed=4).params
    grads = potential_gradient(params, spec)
    assert set(grads) == set(params)
    for key in params:
        assert grads[key].shape == params[key].shape


# --- the compiled scatter map -------------------------------------------------


MAP_SPECS = [
    pytest.param(fc_spec("chain", 3, [5, 4]), id="fc-chain"),
    pytest.param(fc_spec("residual", 4, [4, 3, 4]), id="fc-residual"),
    pytest.param(fc_spec("dense", 3, [5, 4, 3]), id="fc-dense"),
    pytest.param(conv_spec("chain", 1, 4, [2, 2]), id="conv-chain"),
    pytest.param(conv_spec("residual", 2, 3, [3, 3, 3]), id="conv-residual"),
    pytest.param(conv_spec("dense", 2, 4, [3, 2, 2]), id="conv-dense"),
    pytest.param(conv_spec("dense", 2, 8, [3, 2], ndim=1), id="conv-dense-1d"),
    pytest.param(conv_spec("chain", 2, 5, [3], filt=4, stride=2), id="conv-stride2"),
    *[pytest.param(spec, id=name) for spec, name in zip(MIXED, MIXED_IDS)],
]


def block_scatter(st, gb):
    """Oracle adjoint: scatter a global-matrix gradient into blocks and taps."""
    grads = {}
    for b in st.learnable:
        key = (b.row, b.col)
        sub = gb[st.row_off[b.row]:st.row_off[b.row + 1],
                 st.col_off[b.col]:st.col_off[b.col + 1]]
        if b.form == "conv":
            rows, cols, taps, _ = st.conv_geometry[key].entries
            weights = sub[rows, cols] if b.is_diagonal else -sub[cols, rows]
            flat = np.bincount(taps, weights=weights, minlength=int(np.prod(b.shape)))
            grads[key] = flat.reshape(b.shape)
        elif b.is_diagonal:
            grads[key] = sub.copy()
        else:
            grads[key] = -sub.T
    return grads


@pytest.mark.parametrize("spec", MAP_SPECS)
def test_flat_map_matrix_equals_materialized_frame(spec):
    fm = _FlatMap(spec)
    params = fm.st.build(seed=3).params
    theta = fm.flatten(params)
    # equal entry for entry; only the sign of structural zeros may differ
    # (negated placed blocks hold -0.0 where the map's zeroed matrix holds 0.0)
    B, norms = fm.matrix(theta)
    assert np.array_equal(B, fm.st.build(params=params).materialize())
    assert np.array_equal(norms, np.linalg.norm(B, axis=0))
    back = fm.unflatten(theta)
    assert set(back) == set(params)
    for key in params:
        assert back[key].shape == params[key].shape
        assert np.array_equal(back[key], params[key])


@pytest.mark.parametrize("spec", MAP_SPECS)
def test_flat_map_adjoint_equals_block_scatter(spec):
    fm = _FlatMap(spec)
    gb = np.random.default_rng(8).standard_normal(fm.st.shape)
    got = fm.unflatten(fm.adjoint(gb))
    want = block_scatter(fm.st, gb)
    assert set(got) == set(want)
    for key in want:
        assert np.array_equal(got[key], want[key])


@pytest.mark.parametrize("spec", MAP_SPECS)
def test_flat_map_sq_norm_sums_per_parameter_array(spec):
    # theta is the parameter arrays laid end to end, each in its own memory
    # order, so the Armijo test's ||g||^2 = g @ g sums each entry once
    fm = _FlatMap(spec)
    g = fm.adjoint(np.random.default_rng(9).standard_normal(fm.st.shape))
    arrays = list(fm.unflatten(g).values())
    assert all(np.shares_memory(a, g) for a in arrays)
    assert np.array_equal(np.concatenate([a.reshape(-1) for a in arrays]), g)
    assert float(g @ g) == pytest.approx(sum(float(np.sum(a * a)) for a in arrays), rel=1e-13)


def block_descent(spec, seed, opts):
    """Oracle descent on per-block parameter dicts, rebuilding the frame per evaluation."""
    st = framebuild.FrameStructure(spec)

    def evaluate(params):
        B = st.build(params=params).materialize()
        norms = np.linalg.norm(B, axis=0)
        Bn = B / norms
        E = Bn.T @ Bn
        np.fill_diagonal(E, 0.0)
        return float(np.sum(E * E)) / st.offdiag_count, Bn, norms, E

    params = st.build(seed=seed).params
    obj, Bn, norms, E = evaluate(params)
    trajectory, step = [obj], minimize.STEP
    for _ in range(opts.max_iters):
        gt = (4.0 / st.offdiag_count) * (Bn @ E)
        gb = (gt - Bn * np.einsum("ij,ij->j", Bn, gt)) / norms
        grads = block_scatter(st, gb)
        gnorm_sq = sum(float(np.sum(g * g)) for g in grads.values())
        while step > 1e-18:
            trial = {k: params[k] - step * grads[k] for k in params}
            t_obj, t_Bn, t_norms, t_E = evaluate(trial)
            if t_obj <= obj - 1e-4 * step * gnorm_sq:
                break
            step *= 0.5
        else:
            break
        params, obj, Bn, norms, E = trial, t_obj, t_Bn, t_norms, t_E
        trajectory.append(obj)
        step *= 2.0
    return trajectory, params


@pytest.mark.parametrize("spec", [
    pytest.param(fc_spec("dense", 3, [5, 4, 3]), id="fc-dense"),
    pytest.param(fc_spec("residual", 4, [4, 3, 4]), id="fc-residual"),
    pytest.param(conv_spec("dense", 2, 4, [3, 2, 2]), id="conv-dense"),
    pytest.param(conv_spec("chain", 2, 3, [4, 4]), id="conv-chain"),
    *[pytest.param(spec, id=name) for spec, name in zip(MIXED, MIXED_IDS)],
])
def test_flat_descent_reproduces_block_descent_bitwise(spec):
    # the flat descent keeps every sum order of the block-dict descent,
    # including the per-block order of ||g||^2 in the Armijo test
    opts = MinimizeOptions(seed=2, restarts=1, max_iters=40)
    assert opts.max_iters < minimize.TOL_WINDOW  # the oracle has no tolerance stop
    res = minimize_deep_frame_potential(spec, opts)
    want_traj, want_params = block_descent(spec, 2, opts)
    assert [pt[1] for pt in res.trajectories[0]] == want_traj
    for key in want_params:
        assert np.array_equal(res.params[key], want_params[key])


@pytest.mark.parametrize("spec,zero", [
    pytest.param(fc_spec("chain", 3, [4, 3]), (slice(None), 1), id="fc"),
    pytest.param(conv_spec("chain", 1, 4, [2, 2]), 1, id="conv"),
])
def test_flat_map_refuses_dead_diagonal_column_like_build(spec, zero):
    fm = _FlatMap(spec)
    params = fm.st.build(seed=0).params
    params[(0, 0)][zero] = 0.0
    # the identity coupling below keeps every global column of layer 0 alive
    assert {(b.row, b.col): b.role for b in fm.st.blocks}[(1, 0)] == "identity"
    with pytest.raises(FrameBuildError) as want:
        fm.st.build(params=params)
    with pytest.raises(FrameBuildError) as got:
        fm.matrix(fm.flatten(params))
    assert str(got.value) == str(want.value)


def test_evaluation_allocates_less_than_one_operator():
    # every evaluation and gradient overwrites the map's workspace in place
    fm = _FlatMap(conv_spec("chain", 2, 6, [4, 4]))
    theta = fm.flatten(fm.st.build(seed=0).params)
    operator_bytes = fm.st.shape[0] * fm.st.shape[1] * 8
    tracemalloc.start()
    try:
        for _ in range(20):
            minimize._evaluate(fm, theta)
            minimize._gradient(fm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < operator_bytes


@pytest.mark.parametrize("spec,zero", [
    pytest.param(fc_spec("chain", 3, [4, 3]), (slice(None), 1), id="fc"),
    pytest.param(conv_spec("chain", 1, 4, [2, 2]), 1, id="conv"),
])
def test_workspace_keeps_nothing_from_earlier_evaluations(spec, zero):
    # what an evaluation leaves in the workspace depends on its theta alone:
    # not on a refused evaluation, another theta or a non-finite one before it
    def state(fm, theta):
        obj = minimize._evaluate(fm, theta)
        return obj, minimize._coherence(fm), minimize._gradient(fm).tobytes()

    fm = _FlatMap(spec)
    params = fm.st.build(seed=0).params
    theta = fm.flatten(params)
    want = state(_FlatMap(spec), theta)
    params[(0, 0)][zero] = 0.0
    dead = fm.flatten(params)
    other = fm.flatten(fm.st.build(seed=1).params)
    with pytest.raises(FrameBuildError):
        minimize._evaluate(fm, dead)
    assert state(fm, theta) == want
    state(fm, other)
    assert state(fm, theta) == want
    assert np.isnan(minimize._evaluate(fm, np.full_like(theta, np.nan)))
    assert state(fm, theta) == want


# --- descent ------------------------------------------------------------------


def test_reaches_welch_floor_two_three():
    spec = fc_spec("chain", 2, [3])
    res = minimize_deep_frame_potential(spec, MinimizeOptions(seed=0))
    # three unit vectors in the plane: potential floor k^2/d, coherence 1/2
    assert res.raw_frame_potential == pytest.approx(4.5, rel=1e-6)
    assert res.mu == pytest.approx(0.5, abs=1e-3)


def test_result_is_deterministic():
    spec = fc_spec("dense", 3, [5, 4])
    opts = MinimizeOptions(seed=3, restarts=2, max_iters=400)
    a = minimize_deep_frame_potential(spec, opts)
    b = minimize_deep_frame_potential(spec, opts)
    assert a.objective == b.objective
    assert a.seed == b.seed
    for key in a.params:
        assert np.array_equal(a.params[key], b.params[key])


def test_trajectory_monotone_and_bounded():
    spec = fc_spec("chain", 3, [6, 5])
    opts = MinimizeOptions(seed=1, restarts=1, max_iters=600)
    res = minimize_deep_frame_potential(spec, opts)
    for traj in res.trajectories:
        objs = [pt[1] for pt in traj]
        assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))
    assert res.iterations <= opts.max_iters
    assert res.objective >= 0.0


def test_objective_matches_recomputation():
    spec = fc_spec("residual", 4, [6, 5, 6])
    res = minimize_deep_frame_potential(
        spec, MinimizeOptions(seed=2, restarts=1, max_iters=500))
    assert objective_at(spec, res.params) == pytest.approx(res.objective,
                                                           rel=1e-12)


def test_raw_potential_matches_frame():
    spec = fc_spec("chain", 3, [5, 4])
    res = minimize_deep_frame_potential(
        spec, MinimizeOptions(seed=0, restarts=1, max_iters=500))
    frame = build_global_frame(spec, params=res.params)
    unit, _ = normalize(frame)
    assert res.raw_frame_potential == pytest.approx(frame_potential(unit),
                                                    rel=1e-10)
    assert res.mu == pytest.approx(mutual_coherence(unit), abs=1e-12)


def test_restart_seeds_cover_range():
    spec = fc_spec("chain", 2, [3])
    res = minimize_deep_frame_potential(
        spec, MinimizeOptions(seed=5, restarts=3, max_iters=300))
    assert 5 <= res.seed < 8
    assert len(res.trajectories) + len(res.failed_restarts) == 3


def test_no_offdiagonal_structure_is_an_error():
    # a single one-column layer has no pairwise angles to improve
    spec = fc_spec("chain", 2, [1])
    with pytest.raises(ValueError, match="off-diagonal"):
        minimize_deep_frame_potential(spec, MinimizeOptions(seed=0))


def test_structure_compiled_once_per_call(monkeypatch):
    # every evaluation of every restart fills values into one structure
    calls = []
    real = archspec.block_table

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(archspec, "block_table", counting)
    monkeypatch.setattr(framebuild, "block_table", counting)
    spec = conv_spec("chain", 1, 4, [2, 2], filt=3)
    res = minimize_deep_frame_potential(
        spec, MinimizeOptions(seed=0, restarts=2, max_iters=20))
    assert len(res.trajectories) == 2
    assert len(calls) == 1


def test_refuses_operator_wider_than_materialize_limit(monkeypatch):
    # refused from the geometry alone, before the structural count is taken
    def no_count(self):
        raise AssertionError("offdiag_count computed for a refused operator")

    monkeypatch.setattr(framebuild.FrameStructure, "offdiag_count",
                        property(no_count))
    spec = fc_spec("chain", 2, [framebuild.MATERIALIZE_COL_LIMIT + 1])
    with pytest.raises(framebuild.FrameBuildError, match="2x4097 operator"):
        minimize_deep_frame_potential(spec, MinimizeOptions(restarts=1, max_iters=1))


def test_restart_records_count_evaluations(monkeypatch):
    calls = []
    real = minimize._evaluate

    def counting(fm, theta):
        calls.append(1)
        return real(fm, theta)

    monkeypatch.setattr(minimize, "_evaluate", counting)
    spec = fc_spec("dense", 3, [5, 4])
    res = minimize_deep_frame_potential(
        spec, MinimizeOptions(seed=4, restarts=2, max_iters=5))
    assert [r.seed for r in res.restarts] == [4, 5]
    for record, traj in zip(res.restarts, res.trajectories):
        assert record.stop == "max_iters"
        assert record.evaluations >= 6
        assert record.evaluations == (len(traj) - 1) + record.backtracks + 1
    assert sum(r.evaluations for r in res.restarts) == len(calls)


def test_restart_records_tolerance_stop():
    res = minimize_deep_frame_potential(
        fc_spec("chain", 2, [3]), MinimizeOptions(seed=0, restarts=1))
    (record,) = res.restarts
    assert record.stop == "tolerance"
    assert res.iterations < 5000


def test_restart_records_zero_gradient_and_underflow(monkeypatch):
    spec = fc_spec("chain", 3, [4])
    opts = MinimizeOptions(seed=0, restarts=1, max_iters=10)
    monkeypatch.setattr(minimize, "_gradient", lambda fm, *state: np.zeros(fm.size))
    (record,) = minimize_deep_frame_potential(spec, opts).restarts
    assert (record.stop, record.evaluations, record.backtracks) == ("zero_gradient", 1, 0)

    monkeypatch.undo()
    real = minimize._evaluate
    calls = []

    def refuse_trials(fm, theta):
        # the first call is the initial draw; every trial after it is refused
        calls.append(1)
        if len(calls) > 1:
            raise FrameBuildError("refused")
        return real(fm, theta)

    monkeypatch.setattr(minimize, "_evaluate", refuse_trials)
    res = minimize_deep_frame_potential(spec, opts)
    (record,) = res.restarts
    assert record.stop == "step_underflow"
    assert res.iterations == 0
    # a step of 1e-2 falls to 1e-18 or below after 54 halvings, one per refused trial
    assert record.evaluations == len(calls) == 1 + 54
    assert record.backtracks == 54


def poison_gradient(monkeypatch, seeds):
    """Make the gradient NaN in the restarts of ``seeds``, so their first
    trial's objective goes non-finite."""
    real_descend, real_gradient = minimize._descend, minimize._gradient
    current = []

    def descend(fm, seed, opts):
        current[:] = [seed]
        return real_descend(fm, seed, opts)

    def gradient(fm, *state):
        grad = real_gradient(fm, *state)
        return grad * np.nan if current[0] in seeds else grad

    monkeypatch.setattr(minimize, "_descend", descend)
    monkeypatch.setattr(minimize, "_gradient", gradient)


def test_non_finite_restart_is_recorded_as_failed(monkeypatch):
    spec = fc_spec("dense", 3, [5, 4])
    opts = MinimizeOptions(seed=0, restarts=3, max_iters=20)
    want = minimize_deep_frame_potential(spec, opts)
    poison_gradient(monkeypatch, {1})
    res = minimize_deep_frame_potential(spec, opts)
    assert res.failed_restarts == [(1, "objective went non-finite at iteration 1")]
    assert [r.seed for r in res.restarts] == [0, 2]
    assert res.restarts == [want.restarts[0], want.restarts[2]]
    assert res.trajectories == [want.trajectories[0], want.trajectories[2]]


def test_every_restart_failing_raises_and_exits_two(monkeypatch, tmp_path, capsys):
    from deepframe.cli import main

    spec = fc_spec("dense", 3, [5, 4])
    poison_gradient(monkeypatch, {0, 1})
    with pytest.raises(MinimizeError, match="all 2 restarts failed"):
        minimize_deep_frame_potential(spec, MinimizeOptions(seed=0, restarts=2, max_iters=20))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(archspec.serialize_spec(spec)))
    assert main(["minimize", str(path), "--restarts", "2", "--iters", "20"]) == 2
    assert "numerical failure: all 2 restarts failed" in capsys.readouterr().err
