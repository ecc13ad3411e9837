"""Candidate evaluation and deterministic ranking."""

import dataclasses
import random

import pytest

from deepframe.coherence import analyze
from deepframe.framebuild import FrameStructure
from deepframe.minimize import MinimizeOptions
from deepframe.selection import SelectionError, evaluate_candidate, rank

from conftest import fc_spec

FAST = MinimizeOptions(seed=0, restarts=1, max_iters=300)


def make_candidates(names_and_specs, opts=FAST):
    return [evaluate_candidate(spec, opts) for spec in names_and_specs]


def test_single_candidate_ranks_first():
    (cand,) = make_candidates([fc_spec("chain", 2, [3], name="solo")])
    report = rank([cand])
    assert [c.name for c in report.candidates] == ["solo"]
    assert report.max_params is None


def test_candidate_carries_consistent_report():
    (cand,) = make_candidates([fc_spec("chain", 3, [5, 4], name="c")])
    assert cand.param_count == 3 * 5 + 5 * 4
    assert cand.score == cand.result.objective
    # the coherence column is the one minimize measured at the minimizing
    # parameters, and a fresh analysis of that frame agrees with it
    mu = cand.to_dict()["mutual_coherence"]
    assert mu == cand.result.mu
    assert rank([cand]).csv_rows()[1][3] == repr(mu)
    assert analyze(cand.result.frame).mutual_coherence == pytest.approx(mu, abs=1e-12)


def test_candidate_compiles_one_structure(monkeypatch):
    # minimize compiles the structure once, and its frame carries it
    compiled = []
    real_init = FrameStructure.__init__

    def counting(self, spec):
        compiled.append(spec)
        real_init(self, spec)

    monkeypatch.setattr(FrameStructure, "__init__", counting)
    (cand,) = make_candidates([fc_spec("dense", 3, [5, 4], name="d")])
    assert len(compiled) == 1
    assert cand.result.frame.structure.spec is cand.spec


def test_candidate_builds_one_block_table(monkeypatch):
    # the parameter counts are read off the compiled structure
    import deepframe.archspec as archspec
    import deepframe.framebuild as framebuild

    calls = []
    real = archspec.block_table

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(archspec, "block_table", counting)
    monkeypatch.setattr(framebuild, "block_table", counting)
    (cand,) = make_candidates([fc_spec("residual", 3, [5, 4, 5], name="r")])
    assert len(calls) == 1
    assert cand.param_count == archspec.param_count(cand.spec)


def test_identical_specs_tie_break_lexicographically():
    specs = [fc_spec("chain", 2, [3], name=n) for n in ("zeta", "alpha")]
    report = rank(make_candidates(specs))
    assert [c.name for c in report.candidates] == ["alpha", "zeta"]


def test_ranking_is_input_order_invariant():
    specs = [fc_spec("chain", 3, [w, 4], name=f"w{w}") for w in (4, 6, 8)]
    cands = make_candidates(specs)
    base = [c.name for c in rank(cands).candidates]
    for _ in range(5):
        random.shuffle(cands)
        assert [c.name for c in rank(cands).candidates] == base


def test_max_params_filters_and_errors_when_empty():
    specs = [fc_spec("chain", 3, [6], name="small"),
             fc_spec("chain", 3, [12, 10], name="large")]
    cands = make_candidates(specs)
    report = rank(cands, max_params=50)
    assert [c.name for c in report.candidates] == ["small"]
    assert report.max_params == 50
    with pytest.raises(SelectionError, match="max_params=1"):
        rank(cands, max_params=1)


def test_constraint_preserves_relative_order():
    specs = [fc_spec("chain", 3, [w, 4], name=f"w{w}") for w in (4, 6, 8)]
    cands = make_candidates(specs)
    unconstrained = [c.name for c in rank(cands).candidates]
    cutoff = sorted(c.param_count for c in cands)[1]
    constrained = rank(cands, max_params=cutoff)
    survivors = {c.name for c in constrained.candidates}
    assert [n for n in unconstrained if n in survivors] == [
        c.name for c in constrained.candidates]


def test_rank_rejects_empty():
    with pytest.raises(SelectionError, match="no candidates"):
        rank([])


def test_rank_rejects_inconsistent_param_count():
    (cand,) = make_candidates([fc_spec("chain", 2, [3], name="c")])
    lying = dataclasses.replace(cand, param_count=cand.param_count + 1)
    with pytest.raises(SelectionError, match="claims"):
        rank([lying])


def test_report_serialization():
    specs = [fc_spec("chain", 2, [3], name="a"), fc_spec("chain", 2, [4], name="b")]
    report = rank(make_candidates(specs))
    doc = report.to_dict()
    assert doc["constraint"] == {"max_params": None}
    assert [c["rank"] for c in doc["candidates"]] == [1, 2]
    rows = report.csv_rows()
    assert rows[0] == ["name", "param_count", "score", "mutual_coherence"]
    assert len(rows) == 3


def test_dense_outranks_chain_at_matched_budget():
    """At equal parameter budgets, richer connectivity reaches lower potential.

    460 vs 455 parameters (1.1 percent apart); the ordering holds on
    every seed, not just a majority.
    """
    chain = fc_spec("chain", 6, [10, 10, 10, 10, 10], name="chain")
    dense = fc_spec("dense", 6, [8, 7, 6, 6, 5], name="dense")
    for seed in range(5):
        opts = MinimizeOptions(seed=seed, restarts=1, max_iters=1500)
        report = rank(make_candidates([chain, dense], opts))
        assert [c.name for c in report.candidates] == ["dense", "chain"], (
            f"seed {seed}: expected dense first")
