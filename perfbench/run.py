"""Benchmark of the deepframe package: one workload, one seed, one run.

    python3 perfbench/run.py --workload rank-fc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15

Run from the repository root. The program is imported from ``src/``; the
inputs are generated from the seed under ``.perfbench/`` (which also gets
the span dumps and a JSON result file per run). With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced replay.
The line before it is the environment stamp. ``--all`` runs every workload
in its own process, one after the other, and prints a table of the
end-to-end metrics under their per-workload names.
"""

from __future__ import annotations

import os

# One BLAS thread on every run: fewer than the CPUs, and the same each time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"

BENCHMARK = ROOT / "BENCHMARK.json"
# figures --all prints beside the end-to-end metrics of BENCHMARK.json
EXTRA_UNITS = {"item_s.p90": "s", "error_rate": "ratio", "samples": "count"}


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run reports, in BENCHMARK.json order."""
    doc = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_size(level: int) -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "seed": seed,
    }


def _program_present() -> bool:
    return (ROOT / "src" / "deepframe" / "__init__.py").is_file()


def _import_program() -> None:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def run_one(args, tiny: bool = False) -> int:
    """Run one workload and print the environment stamp and the result line."""
    _import_program()
    import gen
    import workloads

    if args.workload not in gen.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {gen.WORKLOADS}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), WORKDIR, tiny=tiny)
    env = environment(args.seed)
    result["env"] = env
    stem = f"result-{args.workload}-{args.seed}-trace{args.trace}"
    (WORKDIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in metric_units(args.trace).items()}
    extra = result["extra"]
    print(f"summary {args.workload}: " + ", ".join(
        f"{k}={v}" for k, v in sorted(extra.items())), file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table under the per-workload names."""
    _import_program()
    import gen
    import workloads

    units = {**metric_units(0), **EXTRA_UNITS}
    rows = []
    status = 0
    for name in gen.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        stem = f"result-{name}-{args.seed}-trace0"
        result = json.loads((WORKDIR / f"{stem}.json").read_text())
        values = {**result["metrics"], **result["extra"]}
        aliases = workloads.ALIASES[name]
        keys = list(units)
        if name != "rank-fc":  # elsewhere too few samples for a p90
            keys.remove("item_s.p90")
        for key in keys:
            rows.append((name, aliases.get(key, key), values[key], units[key]))
    width = max(len(r[1]) for r in rows) if rows else 0
    for name, label, value, unit in rows:
        print(f"{name:13s} {label:{width}s} {value:.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print the table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _program_present():
        print(f"deepframe sources not found under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
