"""Acceptance scorecard: nine checkable claims, one verdict line each.

Every test computes its measurements first, prints a single
``CRITERION n: PASS/FAIL`` line with the observed numbers, then asserts.
Run with ``pytest -s tests/test_acceptance.py`` to see the scorecard even
when everything is green.
"""

import math
import time

import numpy as np
import pytest

from deepframe import (
    MinimizeOptions,
    analyze,
    bcd_inference,
    build_global_frame,
    conv_welch_bound,
    conv_welch_limit,
    feed_forward,
    frame_potential,
    gram,
    minimize_deep_frame_potential,
    mutual_coherence,
    normalize,
    param_count,
    sparsity_guarantee_thresholds,
)
from deepframe.framebuild import conv_gram_nonzeros, conv_operator_entries
from deepframe.minimize import potential_gradient

from conftest import (conv_spec, fc_spec, gram_full, materialize_conv_operator,
                      random_specs)
from test_framebuild import naive_conv_apply
from test_inference import stacked_ista_oracle
from test_minimize import finite_difference, relative_gap


def verdict(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_welch_attainment():
    t0 = time.perf_counter()
    small = minimize_deep_frame_potential(
        fc_spec("chain", 2, [3]),
        MinimizeOptions(seed=0, restarts=3, max_iters=4000))
    elapsed = time.perf_counter() - t0
    big = minimize_deep_frame_potential(
        fc_spec("chain", 3, [6]),
        MinimizeOptions(seed=0, restarts=8, max_iters=4000))
    target = math.sqrt(1.0 / 5.0)
    ok = (abs(small.raw_frame_potential - 4.5) <= 4.5e-6
          and abs(small.mu - 0.5) <= 1e-3
          and elapsed < 5.0
          and abs(big.mu - target) <= 1e-3)
    verdict(1, ok,
            f"(2,3): potential {small.raw_frame_potential:.8f}, coherence "
            f"{small.mu:.6f} in {elapsed:.2f}s; (3,6): coherence {big.mu:.4f} "
            f"vs equiangular target {target:.4f}")
    assert small.raw_frame_potential == pytest.approx(4.5, rel=1e-6)
    assert small.mu == pytest.approx(0.5, abs=1e-3)
    assert elapsed < 5.0
    assert abs(big.mu - target) <= 1e-3, (
        f"coherence {big.mu:.4f} misses the equiangular value {target:.4f}: "
        "for 6 unit vectors in 3 dimensions the potential is constant at "
        "k^2/d = 12 everywhere on the tight-frame set, so descending it "
        "exerts no pressure toward equal pairwise angles; across 100 seeds "
        "the reached coherence stays in [0.57, 1.0]")


def test_criterion_2_bound_inequalities():
    t0 = time.perf_counter()
    specs = random_specs(500, rng=np.random.default_rng(99))
    violations = []
    for i, spec in enumerate(specs):
        rep = analyze(build_global_frame(spec, seed=i))
        if rep.averaged_bound is not None:
            if rep.averaged_bound > rep.mutual_coherence + 1e-9:
                violations.append((i, "averaged", rep.averaged_bound,
                                   rep.mutual_coherence))
        if rep.welch_bound > rep.mutual_coherence + 1e-9:
            violations.append((i, "welch", rep.welch_bound,
                               rep.mutual_coherence))
        if rep.chain_lower_bound is not None:
            if rep.chain_lower_bound > rep.frame_potential + 1e-9:
                violations.append((i, "chain", rep.chain_lower_bound,
                                   rep.frame_potential))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    verdict(2, ok,
            f"500 frames, {len(violations)} violations at 1e-9 slack, "
            f"{elapsed:.1f}s")
    assert not violations, violations[:5]
    assert elapsed < 60.0


def test_criterion_3_gram_equivalence():
    specs = random_specs(100, rng=np.random.default_rng(7))
    worst_entry = 0.0
    worst_frob = 0.0
    for i, spec in enumerate(specs):
        unit, _ = normalize(build_global_frame(spec, seed=i))
        g = gram(unit)
        dense = unit.materialize().T @ unit.materialize()
        worst_entry = max(worst_entry, float(np.max(np.abs(gram_full(g) - dense))))
        frob = math.sqrt(g.frobenius_sq())
        worst_frob = max(worst_frob,
                         abs(frob - float(np.linalg.norm(dense))))
    ok = worst_entry <= 1e-10 and worst_frob <= 1e-10
    verdict(3, ok,
            f"100 specs, max entry gap {worst_entry:.2e}, max Frobenius gap "
            f"{worst_frob:.2e}")
    assert worst_entry <= 1e-10
    assert worst_frob <= 1e-10


def test_criterion_4_conv_structure():
    rng = np.random.default_rng(11)
    # materialized operator vs the sliding-window reference, 20 inputs
    worst = 0.0
    geometries = [(1, 1, 2, 5, 3, 1), (1, 2, 3, 6, 3, 2),
                  (2, 1, 2, 4, 3, 1), (2, 2, 3, 5, 3, 2)]
    for ndim, channels, filters, spatial, f, stride in geometries:
        spec = conv_spec("chain", channels, spatial, [filters],
                         filt=f, stride=stride, ndim=ndim)
        bank = rng.normal(size=(filters, channels) + (f,) * ndim)
        mat = materialize_conv_operator(spec.layers[0], bank)
        for _ in range(5):
            x = rng.normal(size=mat.shape[0])
            ref = naive_conv_apply(bank, x, spatial, stride, ndim)
            worst = max(worst, float(np.max(np.abs(mat.T @ x - ref))))
    # closed-form structural count vs measured support overlaps
    mismatches = 0
    configs = 0
    for p in range(1, 7):
        for f in range(1, min(3, p) + 1):
            for s in (1, 2):
                if s > f:
                    continue
                for d in (1, 2):
                    for k in (1, 2, 3):
                        layer = conv_spec("chain", d, p, [k], filt=f,
                                          stride=s, ndim=2).layers[0]
                        rows, cols, _, shape = conv_operator_entries(
                            layer.channels, layer.width, layer.spatial,
                            layer.filter_size, layer.stride, layer.ndim)
                        support = np.zeros(shape, dtype=bool)
                        support[rows, cols] = True
                        overlap = support.T @ support
                        measured = (int(np.count_nonzero(overlap))
                                    - overlap.shape[0])
                        configs += 1
                        if conv_gram_nonzeros(layer) != measured:
                            mismatches += 1
    # stride-1 floor approaches the wide-input limit from above
    limit = conv_welch_limit(3, 1, 4)
    floors = [conv_welch_bound(p, 1, 3, 1, 4) for p in (16, 64, 256)]
    decreasing = all(a > b for a, b in zip(floors, floors[1:]))
    above = all(b > limit for b in floors)
    gap = (floors[-1] - limit) / limit
    ok = (worst <= 1e-12 and mismatches == 0 and decreasing and above
          and gap < 1e-2)
    verdict(4, ok,
            f"operator max err {worst:.2e}; counts exact on {configs} "
            f"configs; floor gap at p=256 is {gap:.2%}")
    assert worst <= 1e-12
    assert mismatches == 0
    assert decreasing and above
    assert gap < 1e-2


def test_criterion_5_bcd_against_stacked_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_gap = 0.0
    worst_sweep = 0.0
    monotone_breaks = 0
    for i in range(50):
        pattern = "chain" if i % 2 == 0 else "dense"
        depth = int(rng.integers(1, 4))
        dim = int(rng.integers(3, 9))
        widths = [int(rng.integers(3, 13)) for _ in range(depth)]
        frame = build_global_frame(fc_spec(pattern, dim, widths), seed=i)
        x = rng.normal(size=dim)
        res = bcd_inference(x, frame, 0.1, cycles=2500)
        want, _ = stacked_ista_oracle(x, frame, 0.1, iters=10000)
        worst_gap = max(worst_gap, abs(res.final_objective - want))
        if np.any(np.diff(res.objectives) > 1e-12):
            monotone_breaks += 1
        ff = feed_forward(x, frame, 0.1)
        one = bcd_inference(x, frame, 0.1, cycles=1, gamma=1.0)
        for a, b in zip(ff.codes, one.codes):
            worst_sweep = max(worst_sweep, float(np.max(np.abs(a - b))))
    elapsed = time.perf_counter() - t0
    ok = (worst_gap <= 1e-6 and monotone_breaks == 0
          and worst_sweep <= 1e-12 and elapsed < 120.0)
    verdict(5, ok,
            f"50 problems, oracle gap {worst_gap:.2e}, {monotone_breaks} "
            f"monotonicity breaks, one-sweep gap {worst_sweep:.2e}, "
            f"{elapsed:.1f}s")
    assert worst_gap <= 1e-6
    assert monotone_breaks == 0
    assert worst_sweep <= 1e-12
    assert elapsed < 120.0


def test_criterion_6_dominance_and_shared_optimum():
    rng = np.random.default_rng(6)
    dominance_breaks = 0
    worst_margin = -math.inf
    worst_init_gap = 0.0
    for i in range(50):
        pattern = ("chain", "dense", "residual")[i % 3]
        widths = [7, 6, 7] if pattern == "residual" else [8, 6]
        frame = build_global_frame(fc_spec(pattern, 5, widths), seed=100 + i)
        x = rng.normal(size=5)
        ff = feed_forward(x, frame, 0.08)
        res = bcd_inference(x, frame, 0.08, cycles=400)
        margin = res.final_objective - ff.final_objective
        worst_margin = max(worst_margin, margin)
        if margin > 1e-12:
            dominance_breaks += 1
        init = [rng.uniform(0.0, 1.0, size=frame.col_dims[j])
                for j in range(frame.depth)]
        warm = bcd_inference(x, frame, 0.08, cycles=2000, init=init)
        cold = bcd_inference(x, frame, 0.08, cycles=2000)
        worst_init_gap = max(worst_init_gap,
                             abs(cold.final_objective - warm.final_objective))
    ok = dominance_breaks == 0 and worst_init_gap <= 1e-6
    verdict(6, ok,
            f"50 pairs, {dominance_breaks} dominance breaks (worst margin "
            f"{worst_margin:.2e}), init gap {worst_init_gap:.2e}")
    assert dominance_breaks == 0
    assert worst_init_gap <= 1e-6


def test_criterion_7_gradient_check():
    specs = random_specs(20, rng=np.random.default_rng(77),
                         max_depth=3, max_width=8)
    worst = 0.0
    for i, spec in enumerate(specs):
        params = build_global_frame(spec, seed=i).params
        analytic = potential_gradient(params, spec)
        numeric = finite_difference(spec, params)
        worst = max(worst, relative_gap(analytic, numeric))
    ok = worst <= 1e-5
    verdict(7, ok, f"20 frames, worst relative gradient gap {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_8_trend_reproduction():
    # three ladder sizes, parameter budgets matched within 2 percent
    sizes = {
        "A": ([4] * 5, [3, 3, 3, 2, 2]),
        "B": ([5] * 5, [4, 3, 3, 3, 3]),
        "C": ([6] * 5, [5, 4, 4, 3, 3]),
    }
    tallies = {}
    for label, (ladder_widths, dense_widths) in sizes.items():
        chain = conv_spec("chain", 2, 3, ladder_widths)
        residual = conv_spec("residual", 2, 3, ladder_widths)
        dense = conv_spec("dense", 2, 3, dense_widths)
        budget = param_count(chain)
        assert param_count(residual) == budget
        assert abs(param_count(dense) - budget) / budget <= 0.02
        hits = 0
        for seed in range(5):
            opts = MinimizeOptions(seed=seed, restarts=1, max_iters=1500)
            scores = {
                "dense": minimize_deep_frame_potential(dense, opts).objective,
                "residual": minimize_deep_frame_potential(residual,
                                                          opts).objective,
                "chain": minimize_deep_frame_potential(chain, opts).objective,
            }
            if scores["dense"] <= scores["residual"] <= scores["chain"]:
                hits += 1
        tallies[label] = hits
    ok = all(hits >= 4 for hits in tallies.values())
    verdict(8, ok,
            "dense <= residual <= chain on "
            + ", ".join(f"{tallies[s]}/5 seeds at size {s}" for s in sizes))
    for label, hits in tallies.items():
        assert hits >= 4, f"size {label}: ordering held on {hits}/5 seeds"


def test_criterion_9_guarantee_thresholds():
    got = sparsity_guarantee_thresholds(0.5).as_tuple()
    want = (1.5, (math.sqrt(2.0) - 0.5) / 0.5, 0.75)
    ok = got == want
    verdict(9, ok, f"thresholds at coherence 0.5: {got}")
    assert got == want
