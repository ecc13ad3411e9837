"""End-to-end command-line behavior: exit codes, envelopes, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deepframe import __version__, cli
from deepframe.archspec import load_spec
from deepframe.cli import main
from deepframe.framebuild import build_global_frame
from deepframe.matio import write_csv, write_matrix

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"


@pytest.fixture
def specdir(tmp_path):
    d = tmp_path / "specs"
    d.mkdir()
    (d / "tri.json").write_text(json.dumps({
        "input_dim": 2,
        "layers": [{"kind": "fully_connected", "width": 3}],
        "connectivity": "chain"}))
    (d / "wide.json").write_text(json.dumps({
        "input_dim": 2,
        "layers": [{"kind": "fully_connected", "width": 4}],
        "connectivity": "chain"}))
    return d


@pytest.fixture
def bad_spec(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "input_dim": 2,
        "layers": [{"kind": "fully_connected", "width": 0}],
        "connectivity": "chain"}))
    return path


def test_validate_ok(specdir, capsys):
    assert main(["validate", str(specdir / "tri.json")]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "2x3" in out


def test_validate_bad_exits_one(bad_spec, capsys):
    assert main(["validate", str(bad_spec)]) == 1
    assert "width" in capsys.readouterr().out


def test_validate_directory_mixed(specdir, bad_spec, capsys):
    (specdir / "broken.json").write_text(bad_spec.read_text())
    assert main(["validate", str(specdir)]) == 1
    out = capsys.readouterr().out
    assert out.count("OK") == 2
    assert out.count("FAIL") == 1


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1


def test_analyze_envelope_and_determinism(specdir, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["analyze", str(specdir / "tri.json"), "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["tool"] == {"name": "deepframe", "version": __version__}
    assert doc["seed"] == 7
    assert len(doc["specs"][0]["sha256"]) == 64
    assert doc["report"]["rows"] == 2
    assert doc["report"]["cols"] == 3


def test_analyze_csv_format(specdir, capsys):
    assert main(["analyze", str(specdir / "tri.json"), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("name,rows,cols")
    assert len(lines) == 2


def test_analyze_etf_params_file(tmp_path, specdir):
    # three unit vectors at 120 degrees: coherence exactly one half
    angles = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
    write_csv(tmp_path / "etf.csv", np.vstack([np.cos(angles), np.sin(angles)]))
    out = tmp_path / "etf.json"
    assert main(["analyze", str(specdir / "tri.json"),
                 "--params", str(tmp_path / "etf.csv"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["mutual_coherence"] == pytest.approx(0.5, abs=1e-12)
    assert report["welch_bound"] == pytest.approx(0.5, abs=1e-15)


def test_analyze_params_rejected_for_multiblock(tmp_path):
    spec = tmp_path / "two.json"
    spec.write_text(json.dumps({
        "input_dim": 2,
        "layers": [{"kind": "fully_connected", "width": 3},
                   {"kind": "fully_connected", "width": 3}],
        "connectivity": "chain"}))
    write_csv(tmp_path / "m.csv", np.eye(2, 3))
    assert main(["analyze", str(spec), "--params", str(tmp_path / "m.csv")]) == 1


@pytest.mark.parametrize("ndim", [True, 2.0])
def test_analyze_refuses_non_integer_ndim(tmp_path, capsys, ndim):
    spec = tmp_path / "conv.json"
    spec.write_text(json.dumps({
        "input_dim": 32,
        "layers": [{"kind": "convolutional", "width": 3, "channels": 2, "spatial": 4,
                    "filter": 3, "stride": 1, "ndim": ndim}],
        "connectivity": "chain"}))
    assert main(["analyze", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"layers[0].ndim: expected 1 or 2, got {ndim!r}" in captured.err


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_analyze_refuses_non_finite_params(specdir, tmp_path, capsys, suffix):
    params = tmp_path / f"p{suffix}"
    if suffix == ".json":
        params.write_text('{"0,0": [[1.0, 0.0, NaN], [0.0, 1.0, 1.0]]}')
    else:
        params.write_text("1.0,0.0,nan\n0.0,1.0,1.0\n")
    assert main(["analyze", str(specdir / "tri.json"),
                 "--params", str(params)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(params) in captured.err and "non-finite" in captured.err


@pytest.mark.parametrize("doc,key", [
    ('{"result": 5}', "'result'"),
    ('{"0,0": {"a": 1}}', "'0,0'"),
    ('{"0,0": [[1, 2], [3]]}', "'0,0'"),
    ('{"0,0": [[1, "a"]]}', "'0,0'"),
], ids=["result-not-object", "block-object", "ragged", "not-numbers"])
def test_analyze_refuses_malformed_params_json(tmp_path, capsys, doc, key):
    params = tmp_path / "p.json"
    params.write_text(doc)
    assert main(["analyze", str(EXAMPLES / "chain.json"), "--params", str(params)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(params) in captured.err and key in captured.err


@pytest.mark.parametrize("layer,mu", [
    # a 16x4 frame of disjoint windows: orthogonal, with no overlap to bound
    ({"channels": 1, "spatial": 4, "filter": 2, "stride": 2}, 0.0),
    ({"channels": 1, "spatial": 3, "filter": 3, "stride": 1}, None),
], ids=["stride2", "stride1"])
def test_analyze_one_filter_conv_has_no_welch_bound(tmp_path, layer, mu):
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({
        "input_dim": layer["channels"] * layer["spatial"] ** 2,
        "layers": [{"kind": "convolutional", "width": 1, "ndim": 2, **layer}],
        "connectivity": "chain"}))
    out = tmp_path / "out.json"
    assert main(["analyze", str(spec), "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["welch_bound"] is None
    if mu is not None:
        assert report["mutual_coherence"] == mu
        assert math.copysign(1.0, report["mutual_coherence"]) == 1.0
        assert report["offdiag_count"] == 0
        assert report["averaged_bound"] is None


@pytest.mark.parametrize("method", ["feed_forward", "layered_bp", "bcd"])
def test_infer_refuses_non_finite_signals(specdir, tmp_path, capsys, method):
    write_csv(tmp_path / "x.csv", np.array([[0.3, 0.9], [np.inf, 0.1]]))
    assert main(["infer", str(specdir / "tri.json"), str(tmp_path / "x.csv"),
                 "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(tmp_path / "x.csv") in captured.err and "[1]" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["feed_forward", "layered_bp", "bcd"])
def test_infer_refuses_overflowing_signals(tmp_path, capsys, method):
    # finite entries whose squared norm overflows: one refusal for every method
    signals = tmp_path / "x.csv"
    write_csv(signals, np.array([[1.0] * 8, [1e200, 2e200, -1e200, 3e200] + [1e200] * 4]))
    out = tmp_path / "out.json"
    assert main(["infer", str(EXAMPLES / "chain.json"), str(signals),
                 "--method", method, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("deepframe infer: input signals [1] have non-finite entries "
                            "or squared norms that overflow\n")
    assert not out.exists()


def test_minimize_outputs_and_reruns_identically(specdir, tmp_path):
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    argv = ["minimize", str(specdir / "tri.json"), "--seed", "0",
            "--iters", "2000", "--restarts", "2"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["result"]["raw_frame_potential"] == pytest.approx(4.5, rel=1e-6)
    assert doc["result"]["mutual_coherence"] == pytest.approx(0.5, abs=1e-3)
    traj = (tmp_path / "m1.trajectory.csv").read_text().splitlines()
    assert traj[0] == "iteration,objective,mutual_coherence"
    assert len(traj) > 2


def test_minimize_params_feed_analyze(specdir, tmp_path):
    mout = tmp_path / "min.json"
    assert main(["minimize", str(specdir / "tri.json"), "--iters", "2000",
                 "--out", str(mout)]) == 0
    aout = tmp_path / "ana.json"
    assert main(["analyze", str(specdir / "tri.json"),
                 "--params", str(mout), "--out", str(aout)]) == 0
    mu_min = json.loads(mout.read_text())["result"]["mutual_coherence"]
    mu_ana = json.loads(aout.read_text())["report"]["mutual_coherence"]
    assert mu_ana == pytest.approx(mu_min, abs=1e-12)


def test_rank_directory(specdir, tmp_path):
    out = tmp_path / "rank.json"
    assert main(["rank", str(specdir), "--iters", "800", "--restarts", "1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    names = [c["name"] for c in doc["ranking"]["candidates"]]
    assert sorted(names) == ["tri", "wide"]
    csv_lines = (tmp_path / "rank.csv").read_text().splitlines()
    assert csv_lines[0] == "name,param_count,score,mutual_coherence"
    assert len(csv_lines) == 3


def test_rank_respects_max_params(specdir, capsys):
    assert main(["rank", str(specdir), "--iters", "300", "--restarts", "1",
                 "--max-params", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in doc["ranking"]["candidates"]] == ["tri"]


def test_rank_refuses_csv_out_before_scoring(specdir, tmp_path, capsys, monkeypatch):
    # the CSV lands at --out with a .csv suffix, which would overwrite the JSON
    def never(*args, **kwargs):
        raise AssertionError("a candidate was scored")
    monkeypatch.setattr(cli, "evaluate_candidate", never)
    out = tmp_path / "r.csv"
    assert main(["rank", str(specdir), "--iters", "20", "--restarts", "1",
                 "--out", str(out)]) == 1
    assert str(out) in capsys.readouterr().err
    assert not out.exists()


def test_rank_empty_directory_exits_one(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["rank", str(empty)]) == 1
    assert "no .json spec files" in capsys.readouterr().err


def test_infer_bcd_improves_on_feed_forward(specdir, tmp_path):
    rng = np.random.default_rng(3)
    write_csv(tmp_path / "x.csv", rng.normal(size=(4, 2)))
    ff_out = tmp_path / "ff.json"
    bcd_out = tmp_path / "bcd.json"
    base = ["infer", str(specdir / "tri.json"), str(tmp_path / "x.csv"),
            "--lambda", "0.05", "--seed", "1"]
    assert main(base + ["--method", "feed_forward", "--out", str(ff_out)]) == 0
    assert main(base + ["--method", "bcd", "--iters", "200",
                        "--out", str(bcd_out)]) == 0
    ff = json.loads(ff_out.read_text())["results"]
    bcd = json.loads(bcd_out.read_text())["results"]
    for a, b in zip(bcd, ff):
        assert a["final_objective"] <= b["final_objective"] + 1e-12


def two_layer_chain(tmp_path, n_signals):
    """A depth-2 FC chain spec and a CSV of ``n_signals`` signals for it."""
    spec = tmp_path / "two.json"
    spec.write_text(json.dumps({
        "input_dim": 3,
        "layers": [{"kind": "fully_connected", "width": 5},
                   {"kind": "fully_connected", "width": 4}],
        "connectivity": "chain"}))
    write_csv(tmp_path / "x.csv",
              np.random.default_rng(5).normal(size=(n_signals, 3)))
    return spec


def run_counting_safe_step(tmp_path, monkeypatch, method, n_signals):
    """Run infer on a depth-2 chain; return its results and, per safe_step
    call, the shapes of the blocks it was given."""
    import deepframe.inference as inference

    spec = two_layer_chain(tmp_path, n_signals)
    calls = []
    real = inference.safe_step

    def counting(*blocks):
        calls.append(tuple(b.shape for b in blocks))
        return real(*blocks)

    monkeypatch.setattr(inference, "safe_step", counting)
    out = tmp_path / "out.json"
    assert main(["infer", str(spec), str(tmp_path / "x.csv"), "--method", method,
                 "--iters", "20", "--out", str(out)]) == 0
    return json.loads(out.read_text())["results"], calls


def test_infer_bcd_estimates_steps_once_per_frame(tmp_path, monkeypatch):
    # one step per column block: layer 0's own block over its identity coupling
    results, calls = run_counting_safe_step(tmp_path, monkeypatch, "bcd", 3)
    assert len(results) == 3
    assert calls == [((3, 5), (5, 5)), ((5, 4),)]


def test_infer_layered_bp_estimates_steps_once_per_frame(tmp_path, monkeypatch):
    # one step per diagonal block, shared by every signal
    results, calls = run_counting_safe_step(tmp_path, monkeypatch, "layered_bp", 4)
    assert len(results) == 4
    assert calls == [((3, 5),), ((5, 4),)]


@pytest.mark.parametrize("method,solver", [("feed_forward", "feed_forward"),
                                           ("layered_bp", "layered_basis_pursuit"),
                                           ("bcd", "bcd_inference")])
def test_infer_solves_every_signal_in_one_call(tmp_path, monkeypatch, method, solver):
    import deepframe.cli as cli

    spec = two_layer_chain(tmp_path, 3)
    calls = []
    real = getattr(cli, solver)

    def counting(x, *args, **kwargs):
        calls.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(cli, solver, counting)
    out = tmp_path / "out.json"
    assert main(["infer", str(spec), str(tmp_path / "x.csv"), "--method", method,
                 "--iters", "20", "--out", str(out)]) == 0
    assert calls == [(3, 3)]
    assert len(json.loads(out.read_text())["results"]) == 3


@pytest.mark.parametrize("method,gamma", [("bcd", None), ("bcd", 0.05),
                                          ("layered_bp", None), ("feed_forward", None)])
def test_infer_reports_step_sizes(tmp_path, method, gamma):
    from deepframe.archspec import load_spec
    from deepframe.framebuild import build_global_frame
    from deepframe.inference import block_step_sizes, safe_step

    spec = two_layer_chain(tmp_path, 2)
    out = tmp_path / "out.json"
    argv = ["infer", str(spec), str(tmp_path / "x.csv"), "--method", method,
            "--iters", "20", "--seed", "3", "--out", str(out)]
    if gamma is not None:
        argv += ["--gamma", str(gamma)]
    assert main(argv) == 0
    frame = build_global_frame(load_spec(spec), seed=3)
    want = {
        ("bcd", None): list(block_step_sizes(frame)),
        ("bcd", 0.05): [0.05, 0.05],
        ("layered_bp", None): [safe_step(frame.placed[(j, j)]) for j in range(2)],
        ("feed_forward", None): [1.0, 1.0],
    }[(method, gamma)]
    assert json.loads(out.read_text())["step_sizes"] == want


@pytest.mark.parametrize("method", ["feed_forward", "layered_bp"])
def test_infer_refuses_gamma_without_bcd(specdir, tmp_path, capsys, method):
    write_csv(tmp_path / "x.csv", np.array([[0.3, 0.9]]))
    assert main(["infer", str(specdir / "tri.json"), str(tmp_path / "x.csv"),
                 "--method", method, "--gamma", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--gamma" in captured.err and f"--method {method}" in captured.err


def test_infer_accepts_binary_container(specdir, tmp_path, capsys):
    write_matrix(tmp_path / "x.mat", np.array([[0.5, -1.0]]))
    assert main(["infer", str(specdir / "tri.json"), str(tmp_path / "x.mat"),
                 "--method", "feed_forward"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]) == 1


def test_infer_rerun_identical_modulo_wall_clock(specdir, tmp_path):
    write_csv(tmp_path / "x.csv", np.array([[0.3, 0.9]]))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["infer", str(specdir / "tri.json"), str(tmp_path / "x.csv"),
                     "--method", "bcd", "--iters", "40",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for rec in doc["results"]:
            rec.pop("wall_clock")
        outs.append(doc)
    assert outs[0] == outs[1]


def test_infer_dimension_mismatch_exits_one(specdir, tmp_path, capsys):
    write_csv(tmp_path / "x.csv", np.zeros((2, 5)))
    assert main(["infer", str(specdir / "tri.json"),
                 str(tmp_path / "x.csv")]) == 1
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["layered_bp", "bcd"])
def test_infer_zero_budget_exits_one(specdir, tmp_path, capsys, method):
    write_csv(tmp_path / "x.csv", np.array([[0.3, 0.9]]))
    assert main(["infer", str(specdir / "tri.json"), str(tmp_path / "x.csv"),
                 "--method", method, "--iters", "0"]) == 1
    assert "budget" in capsys.readouterr().err


def test_infer_divergence_exits_two(specdir, tmp_path, capsys):
    write_csv(tmp_path / "x.csv", np.array([[5.0, -3.0]]))
    code = main(["infer", str(specdir / "tri.json"), str(tmp_path / "x.csv"),
                 "--method", "bcd", "--iters", "500", "--gamma", "80.0"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_bad_flag_exits_one(specdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(specdir / "tri.json"), "--format", "yaml"])
    assert exc.value.code == 1


# --- the JSON writer ---------------------------------------------------------


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


@pytest.fixture
def conv_signals(tmp_path):
    """A CSV of three signals for docs/examples/conv_chain.json."""
    dim = json.loads((EXAMPLES / "conv_chain.json").read_text())["input_dim"]
    path = tmp_path / "x.csv"
    write_csv(path, np.random.default_rng(2).normal(size=(3, dim)))
    return path


def test_json_writer_matches_json_dumps_on_every_command(tmp_path, monkeypatch, conv_signals):
    payloads, real = [], cli._emit_json
    monkeypatch.setattr(cli, "_emit_json",
                        lambda payload, out: (payloads.append(payload), real(payload, out)))
    out = tmp_path / "out.json"
    conv = str(EXAMPLES / "conv_chain.json")
    commands = [["analyze", conv], ["analyze", str(EXAMPLES / "residual.json")],
                ["minimize", str(EXAMPLES / "chain.json"), "--iters", "60", "--restarts", "2"],
                ["rank", str(EXAMPLES), "--iters", "40", "--restarts", "1"]]
    commands += [["infer", conv, str(conv_signals), "--method", method, "--iters", "30"]
                 for method in ("feed_forward", "layered_bp", "bcd")]
    for argv in commands:
        assert main(argv + ["--out", str(out)]) == 0, argv
        assert out.read_text() == dumps(payloads[-1]) + "\n", argv
    assert len(payloads) == len(commands)


@pytest.mark.parametrize("value", [
    {}, [], {"a": [], "b": {}}, [[]], [{}], [[1, 2], [3, [4, 5]], []], None, True, False, 7,
    "caf\u00e9 \u2603 \"q\"\n", -0.0, 1e16, 5e-324, [1e16, -0.0, 5e-324, 0.1],
    {"z": [None, True, False, 1, 1.5, "s"], "a": {"n": [2.0, 3], "m": (1.0, 2.0)}},
    {1: "int key", 2.5: "float key"}, {True: "bool key"}, {None: "null key"},
    [np.float64(0.1), 2.0], {"k": np.float64(1e-300)},
], ids=repr)
def test_json_writer_matches_json_dumps_on_edge_cases(value):
    assert cli._json_text(value) == dumps(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("where", [
    lambda v: v, lambda v: [1.0, v], lambda v: [1, v], lambda v: {"a": {"b": v}},
    lambda v: {"a": [[0.5], [2.0, v]]}, lambda v: [None, "s", v],
], ids=["scalar", "float-list", "mixed-list", "dict", "nested-list", "other-list"])
def test_json_writer_refuses_non_finite(bad, where):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._json_text(where(bad))


def test_non_finite_output_exits_one_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                         conv_signals):
    real = cli.feed_forward

    def poisoned(*args, **kwargs):
        results = real(*args, **kwargs)
        results[1].objectives[-1] = math.inf
        return results

    monkeypatch.setattr(cli, "feed_forward", poisoned)
    out = tmp_path / "out.json"
    assert main(["infer", str(EXAMPLES / "conv_chain.json"), str(conv_signals),
                 "--method", "feed_forward", "--out", str(out)]) == 1
    assert "not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


# --- python -m deepframe -------------------------------------------------------


@pytest.mark.parametrize("spec,code", [("chain", 0), ("bad", 1)])
def test_module_entry_point_exit_codes(bad_spec, spec, code):
    path = EXAMPLES / "chain.json" if spec == "chain" else bad_spec
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "deepframe", "validate", str(path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith("OK" if code == 0 else "FAIL")


def test_params_refused_by_build_names_the_file(tmp_path, capsys):
    # build refuses every misfit block together; the message names the file first
    params = tmp_path / "p.json"
    params.write_text('{"result": {"params": {"0,0": [[1]]}}}')
    signals = tmp_path / "x.csv"
    write_csv(signals, np.ones((1, 8)))
    diagnostics = ("block (0, 0): expected shape (8, 12), got (1, 1); "
                   "block (1, 1): missing parameters; block (2, 2): missing parameters")
    for argv in (["analyze", str(EXAMPLES / "chain.json")],
                 ["infer", str(EXAMPLES / "chain.json"), str(signals)]):
        assert main(argv + ["--params", str(params)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"deepframe {argv[0]}: {params}: {diagnostics}\n"


@pytest.mark.filterwarnings("error")
def test_infer_forward_pass_overflow_is_a_numerical_failure(tmp_path, capsys):
    # every block's sum of squares is finite, but the codes of the forward
    # pass overflow by the last layer
    spec = EXAMPLES / "chain.json"
    params = build_global_frame(load_spec(spec), seed=0).params
    path = tmp_path / "p.json"
    path.write_text(json.dumps({f"{j},{k}": (1e150 * arr).tolist()
                                for (j, k), arr in params.items()}))
    signals, out = tmp_path / "x.csv", tmp_path / "out.json"
    write_csv(signals, np.ones((1, load_spec(spec).input_dim)))
    assert main(["infer", str(spec), str(signals), "--params", str(path),
                 "--method", "feed_forward", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("deepframe infer: numerical failure: iterates of signal 0 "
                            "went non-finite in the forward pass\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["chain", "conv_chain"])
@pytest.mark.parametrize("total", [False, True], ids=["per-block", "total"])
def test_params_with_overflowing_squares_exit_one(tmp_path, capsys, name, total):
    # every block's sum of squares overflows, or each is finite and their total is not
    spec = EXAMPLES / f"{name}.json"
    params = build_global_frame(load_spec(spec), seed=0).params
    assert len(params) >= 2
    scale = {key: math.sqrt(1e308 / np.sum(arr * arr)) if total else 1e200
             for key, arr in params.items()}
    scaled = {f"{j},{k}": (arr * scale[(j, k)]).tolist() for (j, k), arr in params.items()}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(scaled))
    signals = tmp_path / "x.csv"
    write_csv(signals, np.ones((1, load_spec(spec).input_dim)))
    for argv in (["analyze", str(spec)],
                 *(["infer", str(spec), str(signals), "--method", method]
                   for method in ("feed_forward", "layered_bp", "bcd"))):
        assert main(argv + ["--params", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"deepframe {argv[0]}: {path}: ")
        assert f"blocks {sorted(params)}" in captured.err and "non-finite" in captured.err
        assert "Warning" not in captured.err
