"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its
unit by every workload, that corrupted program output is counted as a
failure, and the self-time arithmetic on a synthetic span tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from argparse import Namespace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from deepframe import cli, selection  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    args = Namespace(workload=workload, seed=0, seconds=0.0, trace=trace)
    with contextlib.redirect_stdout(out):
        run.run_one(args, tiny=True)
    lines = out.getvalue().strip().splitlines()
    assert lines[-2].startswith("env "), lines
    stored = run.WORKDIR / f"result-{workload}-0-trace{trace}.json"
    return json.loads(lines[-1]), json.loads(stored.read_text())


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(gen.WORKLOADS))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            for workload in gen.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, stored = _tiny_run(workload, trace)
                    self.assertEqual(set(stored["metrics"]), set(want))
                    self.assertEqual(set(stored["env"]),
                                     {"git_sha", "nproc", "python", "numpy", "blas",
                                      "blas_threads", "l2", "l3", "seed"})
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)
                    if trace == 0:
                        for k, v in result["metrics"].items():
                            self.assertGreater(v["value"], 0, k)


class CorruptionCounted(unittest.TestCase):
    def _run(self, workload):
        return workloads.run_workload(workload, 0, 0.0, False, run.WORKDIR, tiny=True)

    def test_wrong_score(self):
        original = selection.evaluate_candidate

        def corrupt(spec, options=None):
            cand = original(spec, options)
            cand.result.objective *= 1.0 + 1e-6
            return cand
        selection.evaluate_candidate = corrupt
        try:
            result = self._run("rank-fc")
        finally:
            selection.evaluate_candidate = original
        self.assertFalse(result["correct"])
        self.assertGreater(result["extra"]["error_rate"], 0.0)

    def test_wrong_ranking_order(self):
        original = selection.rank

        def corrupt(candidates, max_params=None):
            report = original(candidates, max_params)
            return selection.RankingReport(candidates=report.candidates[::-1],
                                           max_params=report.max_params)
        selection.rank = corrupt
        try:
            result = self._run("rank-conv")
        finally:
            selection.rank = original
        self.assertGreater(result["extra"]["error_rate"], 0.0)

    def test_non_finite_cli_output(self):
        original = cli.main

        def corrupt(argv=None):
            code = original(argv)
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(out.read_text().replace('"final_objective": ',
                                                   '"final_objective": NaN, "x": ', 1))
            return code
        cli.main = corrupt
        try:
            result = self._run("infer-bcd")
        finally:
            cli.main = original
        self.assertGreater(result["extra"]["error_rate"], 0.0)

    def test_bound_above_coherence(self):
        original = cli.main

        def corrupt(argv=None):
            code = original(argv)
            out = Path(argv[argv.index("--out") + 1])
            doc = json.loads(out.read_text())
            doc["report"]["averaged_bound"] = doc["report"]["mutual_coherence"] * 2
            out.write_text(json.dumps(doc))
            return code
        cli.main = corrupt
        try:
            result = self._run("analyze-conv")
        finally:
            cli.main = original
        self.assertEqual(result["extra"]["error_rate"], 1.0)


class SelfTimeArithmetic(unittest.TestCase):
    def test_synthetic_tree(self):
        tree = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 3.0, 0],
            ["b", 2.0, 5.0, 0],      # overlaps a: the union is counted once
            ["c", 7.0, 8.0, 0],
            ["d", 1.5, 2.5, 1],
            ["root", 20.0, 24.0, -1],
            ["a", 21.0, 22.0, 5],
        ]
        self.assertEqual(spans.self_times(tree), [5.0, 1.0, 3.0, 1.0, 1.0, 3.0, 1.0])
        self.assertEqual(spans.root_of(tree), [0, 0, 0, 0, 0, 5, 5])
        self.assertEqual(spans.descendants_named(tree, "root", "a"), {0: 1, 5: 1})
        table = spans.summarize(tree)
        self.assertEqual(table["a"], {"calls": 2, "self_s": 2.0, "total_s": 3.0})

    def test_nested_self_times_add_up(self):
        tree = [["op", 0.0, 4.0, -1], ["x", 0.5, 3.0, 0], ["y", 1.0, 2.0, 1],
                ["z", 3.0, 3.5, 0]]
        self.assertAlmostEqual(sum(spans.self_times(tree)), 4.0, places=12)


if __name__ == "__main__":
    unittest.main()
