"""Frame potential descent and its gradient."""

import numpy as np
import pytest

from deepframe import archspec, framebuild
from deepframe.coherence import frame_potential, mutual_coherence
from deepframe.framebuild import build_global_frame, gram, normalize
from deepframe.minimize import (
    MinimizeError,
    MinimizeOptions,
    minimize_deep_frame_potential,
    potential_gradient,
)

from conftest import conv_spec, fc_spec


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
        MinimizeOptions(step=-1.0)
    with pytest.raises(ValueError):
        MinimizeOptions(restarts=0)
    with pytest.raises(ValueError):
        MinimizeOptions(tol=0.0)


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


def test_gradient_matches_finite_differences_conv():
    spec = conv_spec("chain", 1, 4, [2, 2], filt=3)
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
