"""The benchmark's workloads, their output checks and the timed loop.

Every workload is a closed loop with one client in one process: the next
operation is issued after the previous one has completed and been
checked. Operations are grouped in rounds (a rank block with its
ranking, one CLI command, one pass over the analyze set) and a run
always ends on a round boundary, so every run sees the same mix.

An item is what a user waits for: a scored candidate (rank-*), a signal
(infer-*) or a frame report (analyze-conv). Latency samples are per item;
for infer-* a command's time is shared equally by the signals of its batch.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from deepframe import archspec, cli, framebuild, inference, matio, selection
from deepframe.minimize import MinimizeOptions

import gen
import spans as spanlib

# Captured before any instrumentation so the public cache_info/cache_clear
# stay reachable while the module attribute is wrapped.
_CONV_ENTRIES = framebuild.conv_operator_entries

SETUP_REPEATS = 9
SETUP_SECONDS = 1.0

# what each end-to-end metric is called on each workload
ALIASES = {
    "rank-fc": {"items_per_s": "candidates_per_s", "item_s.p50": "candidate_s.p50",
                "item_s.p90": "candidate_s.p90"},
    "rank-conv": {"items_per_s": "candidates_per_s", "item_s.p50": "candidate_s.p50"},
    "infer-bcd": {"items_per_s": "bcd_signals_per_s", "item_s.p50": "bcd_signal_s.p50"},
    "infer-lbp": {"items_per_s": "layered_bp_signals_per_s",
                  "item_s.p50": "layered_bp_signal_s.p50"},
    "infer-ff": {"items_per_s": "feed_forward_signals_per_s",
                 "item_s.p50": "feed_forward_signal_s.p50"},
    "analyze-conv": {"items_per_s": "frames_per_s", "item_s.p50": "analyze_s.p50"},
}


@dataclass
class Op:
    """One timed operation, the check of its output, and what it produced."""

    kind: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], list]
    prepare: Callable[[], None] | None = None
    facts: Callable[[object], dict] | None = None
    dims: tuple[int, int] | None = None


@dataclass
class Pass:
    """Outcome of one timed pass over whole rounds."""

    busy: float = 0.0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    items: int = 0
    latencies: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    roots: list = field(default_factory=list)
    conv_hits: int = 0
    conv_misses: int = 0


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _conv_cache_info():
    info = getattr(_CONV_ENTRIES, "cache_info", None)
    return info() if info is not None else None


def clear_conv_cache() -> None:
    """Start with cold convolution index maps, as a fresh process does."""
    clear = getattr(_CONV_ENTRIES, "cache_clear", None)
    if clear is not None:
        clear()


# ---------------------------------------------------------------------------
# rank-fc, rank-conv


def check_candidate(cand) -> list[str]:
    """The score equals the potential recomputed at the returned params."""
    frame = framebuild.build_global_frame(cand.spec, params=cand.result.params)
    g = framebuild.gram(framebuild.normalize(frame)[0])
    fp = g.frobenius_sq()
    potential = (fp - g.trace) / g.offdiag_count
    # fp - trace cancels when the frame is nearly orthogonal: allow the
    # rounding of that difference on top of the relative tolerance
    floor = 64 * np.finfo(float).eps * fp / g.offdiag_count
    if abs(potential - cand.score) > 1e-9 * max(abs(potential), abs(cand.score)) + floor:
        return [f"{cand.name}: score {cand.score!r} but recomputed potential {potential!r}"]
    return []


def check_ranking(report, pool, budget) -> list[str]:
    """Exactly the in-budget candidates, sorted by (score, params, name)."""
    want = sorted((c for c in pool if c.param_count <= budget),
                  key=lambda c: (c.score, c.param_count, c.name))
    got = [c.name for c in report.candidates]
    if got != [c.name for c in want]:
        return [f"ranking {got} != expected {[c.name for c in want]}"]
    if report.max_params != budget:
        return [f"ranking records budget {report.max_params}, asked {budget}"]
    return []


class RankWorkload:
    def __init__(self, manifest, indir: Path, workdir: Path):
        self.m = manifest
        self.indir = indir
        self.specs: dict = {}
        self.budgets: list = []

    def setup(self):
        """Validate every spec of the pool and fix each block's budget."""
        clear_conv_cache()
        self.specs = {}
        counts = {}
        for block in self.m["blocks"]:
            for item in block:
                spec = archspec.load_spec(str(self.indir / item["spec"]))
                self.specs[item["spec"]] = spec
                counts[item["spec"]] = archspec.param_count(spec)
        # about half of a fully connected block fits; the matched conv
        # ladders (within 2%) all fit
        self.budgets = [int(1.02 * statistics.median(counts[i["spec"]] for i in block))
                        for block in self.m["blocks"]]

    def _block_ops(self, b: int) -> list[Op]:
        block = self.m["blocks"][b]
        budget = self.budgets[b]
        pool: list = []
        ops = []
        for item in block:
            path = str(self.indir / item["spec"])
            opts = MinimizeOptions(seed=item["seed"], restarts=self.m["restarts"],
                                   max_iters=self.m["max_iters"])
            spec = self.specs[item["spec"]]

            def run(path=path, opts=opts):
                cand = selection.evaluate_candidate(archspec.load_spec(path), opts)
                pool.append(cand)
                return cand

            ops.append(Op("candidate", 1, run, check_candidate,
                          facts=lambda c: {"minimize.iterations": sum(
                              len(t) - 1 for t in c.result.trajectories)},
                          dims=(spec.total_rows, spec.total_cols)))
        ops.append(Op("rank", 0,
                      lambda: selection.rank(list(pool), max_params=budget),
                      lambda report: check_ranking(report, pool, budget)))
        return ops

    def rounds(self):
        per_round = self.m.get("round_blocks", 1)
        n_blocks = len(self.m["blocks"])
        b = 0
        while True:
            ops = []
            for _ in range(per_round):
                ops += self._block_ops(b % n_blocks)
                b += 1
            yield ops


# ---------------------------------------------------------------------------
# infer-bcd, infer-lbp, infer-ff


class InferWorkload:
    def __init__(self, manifest, indir: Path, workdir: Path):
        self.m = manifest
        self.spec_path = str(indir / manifest["spec"])
        self.signals_path = str(indir / manifest["signals"])
        self.out_path = workdir / "infer_out.json"
        self._ff: dict = {}

    def setup(self):
        """What ``deepframe infer`` does before its solve loop."""
        clear_conv_cache()
        self.spec = archspec.load_spec(self.spec_path)
        self.frame = framebuild.build_global_frame(self.spec, seed=self.m["frame_seed"])
        self.signals = matio.load_signals(self.signals_path, self.spec.input_dim)

    def argv(self) -> list[str]:
        return ["infer", self.spec_path, self.signals_path,
                "--method", self.m["method"], "--iters", str(self.m["iters"]),
                "--lambda", repr(self.m["lambda"]), "--seed", str(self.m["frame_seed"]),
                "--out", str(self.out_path)]

    def _ff_objective(self, i: int) -> float:
        if i not in self._ff:
            res = inference.feed_forward(self.signals[i], self.frame, self.m["lambda"])
            self._ff[i] = res.final_objective
        return self._ff[i]

    def check(self, rc) -> list[str]:
        if rc != 0:
            return [f"infer exited with {rc}"]
        doc = strict_json(self.out_path.read_text())
        results = doc["results"]
        if len(results) != len(self.signals):
            return [f"{len(results)} results for {len(self.signals)} signals"]
        errors = []
        lam = self.m["lambda"]
        for i, rec in enumerate(results):
            codes = [np.asarray(c, dtype=float) for c in rec["codes"]]
            if [c.shape[0] for c in codes] != list(self.frame.col_dims):
                errors.append(f"signal {i}: code sizes {[c.shape[0] for c in codes]}")
                continue
            if any(np.any(c < 0) for c in codes):
                errors.append(f"signal {i}: negative codes")
            final = rec["final_objective"]
            objs = rec["objectives"]
            recomputed = inference.objective_value(codes, self.frame, self.signals[i], lam)
            if final != objs[-1] or not _close(final, recomputed, 1e-12):
                errors.append(f"signal {i}: final objective {final!r}, "
                              f"objective at the codes {recomputed!r}")
            if self.m["method"] == "bcd":
                if any(b > a + 1e-12 * abs(a) for a, b in zip(objs, objs[1:])):
                    errors.append(f"signal {i}: bcd objective increased")
                ff = self._ff_objective(i)
                if final > ff + 1e-12 * abs(ff):
                    errors.append(f"signal {i}: bcd {final!r} above feed_forward {ff!r}")
        return errors

    def facts(self, rc) -> dict:
        out = {"cli.output_bytes": self.out_path.stat().st_size}
        if self.m["method"] == "bcd":
            doc = json.loads(self.out_path.read_text())
            out["inference.cycles"] = sum(len(r["objectives"]) for r in doc["results"])
        return out

    def rounds(self):
        argv = self.argv()
        while True:
            yield [Op("command", self.m["batch"], lambda: cli.main(argv),
                      self.check, facts=self.facts)]


# ---------------------------------------------------------------------------
# analyze-conv


class AnalyzeWorkload:
    def __init__(self, manifest, indir: Path, workdir: Path):
        self.m = manifest
        self.paths = {k: str(indir / v["spec"]) for k, v in manifest["specs"].items()}
        self.out_path = workdir / "analyze_out.json"
        self._dense: dict = {}

    def setup(self):
        """Parse each spec and build its frame from cold index maps."""
        self.specs = {}
        for key, path in self.paths.items():
            clear_conv_cache()
            self.specs[key] = archspec.load_spec(path)
            framebuild.build_global_frame(self.specs[key], seed=self.m["specs"][key]["seed"])
        self.smallest = min(self.specs, key=lambda k: (self.specs[k].total_rows
                                                       * self.specs[k].total_cols))

    def dense_reference(self, key) -> dict:
        """Frame potential, coherence and overlap count from the dense matrix."""
        if key not in self._dense:
            spec = self.specs[key]
            frame = framebuild.build_global_frame(spec, seed=self.m["specs"][key]["seed"])
            B = frame.materialize(max_cols=spec.total_cols)
            Bn = B / np.linalg.norm(B, axis=0)
            G = Bn.T @ Bn
            S = (B != 0).astype(float)
            overlap = (S.T @ S) > 0
            np.fill_diagonal(G, 0.0)
            self._dense[key] = {
                "frame_potential": float(np.sum(G * G)) + spec.total_cols,
                "mutual_coherence": float(np.max(np.abs(G))),
                "offdiag_count": int(overlap.sum()) - spec.total_cols,
            }
        return self._dense[key]

    def check(self, key, rc) -> list[str]:
        if rc != 0:
            return [f"analyze {key} exited with {rc}"]
        report = strict_json(self.out_path.read_text())["report"]
        mu = report["mutual_coherence"]
        errors = []
        for bound in ("averaged_bound", "welch_bound"):
            value = report[bound]
            if value is not None and value > mu * (1 + 1e-12):
                errors.append(f"{key}: {bound} {value!r} exceeds coherence {mu!r}")
        if key == self.smallest:
            ref = self.dense_reference(key)
            for name in ("frame_potential", "mutual_coherence"):
                if abs(report[name] - ref[name]) > 1e-10 * max(1.0, abs(ref[name])):
                    errors.append(f"{key}: {name} {report[name]!r}, dense {ref[name]!r}")
            if report["offdiag_count"] != ref["offdiag_count"]:
                errors.append(f"{key}: offdiag_count {report['offdiag_count']}, "
                              f"dense {ref['offdiag_count']}")
        return errors

    def rounds(self):
        n = len(self.m["rounds"])
        r = 0
        while True:
            ops = []
            for key in self.m["rounds"][r % n]:
                argv = ["analyze", self.paths[key], "--seed",
                        str(self.m["specs"][key]["seed"]), "--out", str(self.out_path)]
                ops.append(Op("command", 1, lambda argv=argv: cli.main(argv),
                              lambda rc, key=key: self.check(key, rc),
                              prepare=clear_conv_cache,
                              facts=lambda rc: {"cli.output_bytes":
                                                self.out_path.stat().st_size}))
            r += 1
            yield ops


def make_workload(manifest, indir: Path, workdir: Path):
    name = manifest["workload"]
    if name.startswith("rank-"):
        return RankWorkload(manifest, indir, workdir)
    if name.startswith("infer-"):
        return InferWorkload(manifest, indir, workdir)
    return AnalyzeWorkload(manifest, indir, workdir)


# ---------------------------------------------------------------------------
# timed loop


def measure(work, seconds: float, rec: spanlib.Recorder | None = None,
            max_rounds: int | None = None) -> Pass:
    """Run whole rounds until ``seconds`` of operation time (or ``max_rounds``)."""
    out = Pass()
    for rnd in work.rounds():
        for op in rnd:
            if op.prepare is not None:
                op.prepare()
            cache_before = _conv_cache_info()
            root = -1
            if rec is not None:
                rec.new_command()
                rec.active = True
                root = rec.open("bench." + op.kind)
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{op.kind} raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if rec is not None:
                rec.close(root)
                rec.active = False
            cache_after = _conv_cache_info()
            if cache_before is not None and cache_after is not None:
                out.conv_hits += cache_after.hits - cache_before.hits
                out.conv_misses += cache_after.misses - cache_before.misses
            out.busy += dt
            out.attempted += 1
            if error is None:
                try:
                    errors = op.check(result)
                except Exception as exc:  # unreadable output fails its check
                    errors = [f"{op.kind} output rejected: {type(exc).__name__}: {exc}"]
            else:
                errors = [error]
            if errors:
                out.failed += 1
                for e in errors:
                    print(f"check failed: {e}", file=sys.stderr)
                continue
            out.items += op.items
            if op.items:
                out.latencies.append(dt / op.items)
            facts = op.facts(result) if op.facts is not None else {}
            for k, v in facts.items():
                out.facts[k] = out.facts.get(k, 0) + v
            if rec is not None:
                out.roots.append((root, op.dims, facts))
        out.rounds += 1
        if max_rounds is not None:
            if out.rounds >= max_rounds:
                break
        elif out.busy >= seconds:
            break
    return out


def timed_setup(work) -> float:
    """Median wall time of the workload's set-up, repeated from cold.

    The first few repetitions in a process run slower, so set-up repeats
    for at least ``SETUP_SECONDS`` and ``SETUP_REPEATS`` times, which puts
    the median past them.
    """
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        work.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passed: Pass, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "items_per_s": passed.items / passed.busy if passed.busy else 0.0,
        "item_s.p50": statistics.median(passed.latencies) if passed.latencies else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def p90(values) -> float:
    """The 90th percentile as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def per_layer(traced: Pass, untraced: Pass, rec: spanlib.Recorder) -> dict:
    """Per-layer metrics of the traced pass, normalized per item."""
    spans = rec.spans
    table = spanlib.summarize(spans)
    items = max(traced.items, 1)
    counts = rec.counts
    facts = traced.facts

    def calls(name):
        return table.get(name, {}).get("calls", 0) / items

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0) / items

    builds = spanlib.descendants_named(spans, "minimize.minimize_deep_frame_potential",
                                       "framebuild.build_global_frame")
    roots = spanlib.root_of(spans)
    evals_by_root: dict = {}
    for m, n in builds.items():
        evals_by_root[roots[m]] = evals_by_root.get(roots[m], 0) + n
    evaluations = sum(builds.values())
    gflop = 0.0
    for root, dims, op_facts in traced.roots:
        if dims is not None and root in evals_by_root:
            rows, cols = dims
            gflop += rows * cols ** 2 * (2 * evals_by_root[root]
                                         + 4 * op_facts.get("minimize.iterations", 0)) / 1e9
    minimize_s = table.get("minimize.minimize_deep_frame_potential", {}).get("total_s", 0.0)
    iterations = facts.get("minimize.iterations", 0)
    hits, misses = traced.conv_hits, traced.conv_misses
    step_calls = table.get("inference.safe_step", {}).get("calls", 0)

    return {
        "archspec.col_dim.calls": counts["archspec.col_dim.calls"] / items,
        "archspec.block_table.calls": calls("archspec.block_table"),
        "archspec.load_spec.self_s": self_s("archspec.load_spec"),
        "framebuild.build_global_frame.calls": calls("framebuild.build_global_frame"),
        "framebuild.build_global_frame.self_s": self_s("framebuild.build_global_frame"),
        "framebuild.materialize.calls": calls("framebuild.materialize"),
        "framebuild.materialize.self_s": self_s("framebuild.materialize"),
        "framebuild.materialize.mb_computed":
            counts["framebuild.materialize.mb_computed"] / items,
        "framebuild.conv_operator_entries.calls": calls("framebuild.conv_operator_entries"),
        "framebuild.conv_operator_entries.self_s": self_s("framebuild.conv_operator_entries"),
        "framebuild.conv_operator_entries.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "framebuild.normalize.self_s": self_s("framebuild.normalize"),
        "framebuild.gram.calls": calls("framebuild.gram"),
        "framebuild.gram.self_s": self_s("framebuild.gram"),
        "coherence.analyze.calls": calls("coherence.analyze"),
        "coherence.analyze.self_s": self_s("coherence.analyze"),
        "coherence.mutual_coherence.self_s": self_s("coherence.mutual_coherence"),
        "minimize.minimize_deep_frame_potential.calls":
            calls("minimize.minimize_deep_frame_potential"),
        "minimize.minimize_deep_frame_potential.self_s":
            self_s("minimize.minimize_deep_frame_potential"),
        "minimize.dense_gflop": gflop / items,
        "minimize.gflop_per_s": gflop / minimize_s if minimize_s else 0.0,
        "minimize.evaluations": evaluations / items,
        "minimize.iterations": iterations / items,
        "minimize.accept_ratio": iterations / evaluations if evaluations else 0.0,
        "selection.evaluate_candidate.self_s": self_s("selection.evaluate_candidate"),
        "selection.rank.self_s": self_s("selection.rank"),
        "inference.safe_step.calls": calls("inference.safe_step"),
        "inference.safe_step.self_s": self_s("inference.safe_step"),
        "inference.largest_sq_singular_value.self_s":
            self_s("inference.largest_sq_singular_value"),
        "inference.step_reuse_ratio":
            counts["inference.safe_step.distinct"] / step_calls if step_calls else 0.0,
        "inference.bcd_inference.calls": calls("inference.bcd_inference"),
        "inference.bcd_inference.self_s": self_s("inference.bcd_inference"),
        "inference.objective_value.calls": calls("inference.objective_value"),
        "inference.objective_value.self_s": self_s("inference.objective_value"),
        "inference.cycles": facts.get("inference.cycles", 0) / items,
        "inference.feed_forward.self_s": self_s("inference.feed_forward"),
        "inference.layered_basis_pursuit.self_s": self_s("inference.layered_basis_pursuit"),
        "inference.shallow_ista.self_s": self_s("inference.shallow_ista"),
        "matio.load_signals.self_s": self_s("matio.load_signals"),
        "matio.bytes_read": counts["matio.bytes_read"] / items,
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.output_bytes": facts.get("cli.output_bytes", 0) / items,
        "trace.overhead_ratio": traced.busy / untraced.busy - 1.0 if untraced.busy else 0.0,
    }


def trace_consistency(traced: Pass, rec: spanlib.Recorder) -> list[str]:
    """Self times of all spans add up to the traced time of the operations."""
    selfs = spanlib.self_times(rec.spans)
    root_total = sum(s[2] - s[1] for s in rec.spans if s[3] < 0)
    if not _close(sum(selfs), root_total, 1e-9):
        return [f"span self times sum to {sum(selfs)!r}, operations took {root_total!r}"]
    return []


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 tiny: bool = False) -> dict:
    """Generate the inputs, set up, measure and check one workload."""
    import resource

    indir = workdir / "inputs" / f"{name}-{seed}"
    manifest = gen.generate(name, seed, indir, tiny=tiny)
    work = make_workload(manifest, indir, workdir)
    setup_s = timed_setup(work)
    errors: list[str] = []
    if not trace:
        clear_conv_cache()
        main = measure(work, seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(main, setup_s, rss)
        passes = [main]
        extra = {"item_s.p90": p90(main.latencies),
                 "samples": len(main.latencies)}
    else:
        clear_conv_cache()
        untraced = measure(work, seconds / 2)
        clear_conv_cache()
        rec = spanlib.Recorder()
        restore = spanlib.instrument(rec)
        try:
            traced = measure(work, math.inf, rec=rec, max_rounds=untraced.rounds)
        finally:
            restore()
        rec.dump(workdir / f"spans-{name}-{seed}.json")
        errors += trace_consistency(traced, rec)
        metrics = per_layer(traced, untraced, rec)
        passes = [untraced, traced]
        extra = {"spans": len(rec.spans)}
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(errors)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "extra": {**extra, "error_rate": failed / attempted if attempted else 1.0,
                  "items": sum(p.items for p in passes),
                  "busy_s": sum(p.busy for p in passes),
                  "rounds": [p.rounds for p in passes]},
    }
