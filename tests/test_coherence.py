"""Frame potential, coherence, and the analytic lower bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deepframe.coherence import (
    CSV_FIELDS,
    analyze,
    averaged_potential_bound,
    chain_lower_bound,
    conv_welch_bound,
    conv_welch_limit,
    frame_potential,
    mutual_coherence,
    sparsity_guarantee_thresholds,
    welch_bound,
)
from deepframe.framebuild import build_global_frame, gram, normalize

from conftest import conv_spec, fc_spec, random_specs


def mercedes_benz():
    """Three unit vectors in the plane at 120 degrees: every |cosine| is 1/2."""
    angles = np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3,
                       np.pi / 2 + 4 * np.pi / 3])
    return np.vstack([np.cos(angles), np.sin(angles)])


def test_frame_potential_eigenvalue_oracle(rng):
    b = rng.normal(size=(5, 9))
    b /= np.linalg.norm(b, axis=0)
    fp = frame_potential(b)
    sv = np.linalg.svd(b, compute_uv=False)
    assert fp == pytest.approx(float(np.sum(sv ** 4)), rel=1e-12)


def test_frame_potential_mercedes_benz():
    assert frame_potential(mercedes_benz()) == pytest.approx(4.5, rel=1e-12)


def test_mutual_coherence_mercedes_benz():
    assert mutual_coherence(mercedes_benz()) == pytest.approx(0.5, abs=1e-12)


def test_mutual_coherence_normalizes_internally(rng):
    b = rng.normal(size=(4, 7))
    scaled = b * rng.uniform(0.1, 10.0, size=7)
    assert mutual_coherence(scaled) == pytest.approx(mutual_coherence(b), abs=1e-12)


def test_mutual_coherence_orthonormal():
    # +0.0: np.max may pick -0.0 over 0.0
    for mat in (np.eye(4), np.ones((3, 1)), np.zeros((3, 0))):
        mu = mutual_coherence(mat)
        assert mu == 0.0 and math.copysign(1.0, mu) == 1.0


def test_mutual_coherence_propagates_nan():
    b = mercedes_benz().copy()
    b[0, 1] = np.nan
    assert math.isnan(mutual_coherence(b))


def test_mutual_coherence_accepts_frame_objects():
    spec = fc_spec("chain", 3, [5, 4])
    frame = build_global_frame(spec, seed=7)
    unit, _ = normalize(frame)
    direct = mutual_coherence(unit.materialize())
    assert mutual_coherence(frame) == pytest.approx(direct, abs=1e-12)
    assert mutual_coherence(gram(unit)) == pytest.approx(direct, abs=1e-12)


# --- Welch-type bounds ------------------------------------------------------


def test_welch_bound_frozen_value():
    assert welch_bound(4, 8) == pytest.approx(math.sqrt(1 / 7), abs=1e-15)
    assert welch_bound(4, 8) == pytest.approx(0.3779644730092272, abs=1e-15)


def test_welch_bound_undercomplete_is_zero():
    assert welch_bound(5, 5) == 0.0
    assert welch_bound(5, 3) == 0.0


def test_welch_bound_needs_two_vectors():
    with pytest.raises(ValueError):
        welch_bound(3, 1)


def test_welch_bound_below_coherence_random(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(d + 1, 2 * d + 4))
        b = rng.normal(size=(d, k))
        assert mutual_coherence(b) >= welch_bound(d, k) - 1e-12


def test_averaged_bound_matches_formula():
    fp, trace, n = 7.5, 3.0, 6
    assert averaged_potential_bound(fp, trace, n) == pytest.approx(
        math.sqrt((fp - trace) / n))
    assert averaged_potential_bound(3.0, 3.0, 0) is None


def test_averaged_bound_below_coherence_random(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 12))
        b = rng.normal(size=(d, k))
        b /= np.linalg.norm(b, axis=0)
        fp = frame_potential(b)
        bound = averaged_potential_bound(fp, float(k), k * (k - 1))
        assert bound <= mutual_coherence(b) + 1e-12


def test_conv_welch_zero_when_not_overcomplete():
    # k filters never exceed d * s^2 here, so no positive floor exists
    assert conv_welch_bound(4, 2, 3, 1, 4) == 0.0


def test_conv_welch_direct_substitution():
    p, s, f, d, k = 8, 1, 3, 1, 4
    o = math.ceil(f / s)
    denom = k * ((2 - (o - 1) * s / p) * o - 1) ** 2 - 1
    want = math.sqrt((k / (d * s * s) - 1) / denom)
    assert conv_welch_bound(p, s, f, d, k) == pytest.approx(want, rel=1e-12)


def test_conv_welch_approaches_limit_from_above():
    f, d, k = 3, 1, 4
    limit = conv_welch_limit(f, d, k)
    values = [conv_welch_bound(p, 1, f, d, k) for p in (16, 64, 256, 1024)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] > limit
    assert (values[-1] - limit) / limit < 1e-2


def test_conv_welch_limit_formula():
    f, d, k = 3, 2, 9
    want = math.sqrt((k / d - 1) / (k * (2 * f - 1) ** 2 - 1))
    assert conv_welch_limit(f, d, k) == pytest.approx(want, rel=1e-14)


# --- chain potential lower bound --------------------------------------------


def test_chain_lower_bound_depth_one():
    assert chain_lower_bound([2, 3], [np.ones(3)]) == pytest.approx(4.5)


def test_chain_lower_bound_validates():
    with pytest.raises(ValueError, match="at least one width"):
        chain_lower_bound([4], [])
    with pytest.raises(ValueError, match="magnitude vectors"):
        chain_lower_bound([2, 3, 4], [np.ones(3)])
    with pytest.raises(ValueError, match="positive"):
        chain_lower_bound([2, 3], [np.zeros(3)])
    with pytest.raises(ValueError, match="expected 3 magnitudes"):
        chain_lower_bound([2, 3], [np.ones(4)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_chain_lower_bound_holds(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    widths = [int(rng.integers(2, 10)) for _ in range(int(rng.integers(1, 5)))]
    spec = fc_spec("chain", d, widths)
    frame = build_global_frame(spec, seed=seed)
    mags = [np.linalg.norm(frame.placed[(j, j)], axis=0)
            for j in range(frame.depth)]
    unit, _ = normalize(frame)
    fp = frame_potential(unit)
    bound = chain_lower_bound([d, *widths], mags)
    assert bound <= fp + 1e-9


# --- guarantee thresholds ---------------------------------------------------


def test_thresholds_at_half():
    t = sparsity_guarantee_thresholds(0.5)
    assert t.as_tuple() == (1.5, (math.sqrt(2) - 0.5) / 0.5, 0.75)
    assert t.bp_recovery == pytest.approx(1.8284271247461903, abs=0)


def test_thresholds_formulas():
    mu = 0.3
    t = sparsity_guarantee_thresholds(mu)
    assert t.uniqueness == pytest.approx(0.5 * (1 + 1 / mu))
    assert t.bp_recovery == pytest.approx((math.sqrt(2) - 0.5) / mu)
    assert t.stability == pytest.approx(0.25 * (1 + 1 / mu))


def test_thresholds_zero_coherence_unbounded():
    t = sparsity_guarantee_thresholds(0.0)
    assert all(math.isinf(v) for v in t.as_tuple())


@pytest.mark.parametrize("mu", [-0.1, 1.5])
def test_thresholds_domain(mu):
    with pytest.raises(ValueError):
        sparsity_guarantee_thresholds(mu)


# --- report assembly --------------------------------------------------------


def test_analyze_chain_report():
    spec = fc_spec("chain", 4, [8, 6], name="probe")
    frame = build_global_frame(spec, seed=3)
    report = analyze(frame)
    assert report.name == "probe"
    assert report.rows == 4 + 8
    assert report.cols == 14
    assert report.chain_lower_bound is not None
    assert report.chain_lower_bound <= report.frame_potential + 1e-9
    assert report.averaged_bound <= report.mutual_coherence + 1e-12
    assert report.welch_bound == pytest.approx(welch_bound(12, 14))


def test_analyze_single_conv_layer_uses_conv_floor():
    spec = conv_spec("chain", 1, 8, [4], filt=3, stride=1, ndim=2)
    frame = build_global_frame(spec, seed=0)
    report = analyze(frame)
    assert report.welch_bound == pytest.approx(conv_welch_bound(8, 1, 3, 1, 4))


def test_analyze_skip_family_has_no_chain_bound():
    spec = fc_spec("dense", 4, [8, 6])
    report = analyze(build_global_frame(spec, seed=0))
    assert report.chain_lower_bound is None


def test_report_serialization_round_trip():
    spec = fc_spec("chain", 4, [8, 6], name="probe")
    report = analyze(build_global_frame(spec, seed=3))
    d = report.to_dict()
    assert list(d) == list(CSV_FIELDS)
    row = report.csv_row()
    assert len(row) == len(CSV_FIELDS)
    assert float(row[CSV_FIELDS.index("mutual_coherence")]) == report.mutual_coherence


def test_analyze_matches_direct_computation():
    for i, spec in enumerate(random_specs(5)):
        frame = build_global_frame(spec, seed=i)
        report = analyze(frame)
        unit, _ = normalize(frame)
        assert report.frame_potential == pytest.approx(frame_potential(unit),
                                                       rel=1e-10)
        assert report.mutual_coherence == pytest.approx(mutual_coherence(unit),
                                                        abs=1e-12)


@pytest.mark.parametrize("spec", [fc_spec("chain", 4, [8, 6], name="probe"),
                                  conv_spec("chain", 2, 5, [3, 3], name="conv")])
def test_analyze_of_normalized_frame_is_raw_report_without_chain_bound(spec):
    # a normalized frame has lost its raw column magnitudes, so only the
    # chain bound, which reads them, goes
    frame = build_global_frame(spec, seed=3)
    raw = analyze(frame)
    assert raw.chain_lower_bound is not None
    assert analyze(normalize(frame)[0]) == dataclasses.replace(raw, chain_lower_bound=None)
