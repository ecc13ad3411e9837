"""Command-line interface.

Five subcommands cover the pipeline: ``validate`` checks spec files,
``analyze`` reports frame quality, ``minimize`` searches for the
lowest-potential parameters, ``rank`` orders a directory of specs by that
score, and ``infer`` runs sparse inference on input signals.

Every JSON output embeds the tool version, the seed, and the sha256 of
each input spec file, so a result can be traced back to exactly what
produced it; rerunning a command with the same inputs reproduces the
same bytes except for wall-clock fields. Exit codes: 0 success, 1 bad
input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .archspec import ArchitectureSpec, block_table, load_spec, param_count
from .coherence import CSV_FIELDS, analyze
from .framebuild import FrameBuildError, build_global_frame
from .inference import DivergenceError, bcd_inference, feed_forward, layered_basis_pursuit
from .matio import load_array, load_signals
from .minimize import MinimizeError, MinimizeOptions, minimize_deep_frame_potential
from .selection import evaluate_candidate, rank

# every bad-input error the package raises (SpecError, FrameBuildError and
# the rest) is a ValueError
_USER_ERRORS = (OSError, ValueError)
_NUMERICAL_ERRORS = (MinimizeError, DivergenceError, FloatingPointError)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; we reserve 2 for math."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    def _fail(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _spec_stamp(path) -> dict:
    return {"file": Path(path).name, "sha256": _sha256(path)}


def _envelope(seed: int | None, specs) -> dict:
    return {
        "tool": {"name": "deepframe", "version": __version__},
        "seed": seed,
        "specs": [_spec_stamp(p) for p in specs],
    }


_encode_scalar = json.JSONEncoder(allow_nan=False).encode


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``, byte
    for byte, at the given indentation of ``value``'s own line.

    Dicts (keys sorted) and lists (tuples too) are written here, a list of
    finite Python floats in one join of their ``repr``, which is how
    ``json`` writes a float; every other scalar, and every key, goes
    through a ``json.JSONEncoder``, which refuses NaN and infinities with
    a ValueError.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = (_encode_scalar(key if isinstance(key, str) else _encode_scalar(key))
                 + ": " + _json_text(value[key], inner) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if all(type(v) is float for v in value) and all(map(math.isfinite, value)):
            items = map(float.__repr__, value)
        else:
            items = (_json_text(v, inner) for v in value)
    else:
        return _encode_scalar(value)
    if not value:
        return brackets
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{brackets[1]}")


def _emit_json(payload: dict, out: str | None) -> None:
    text = _json_text(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _spec_paths(root) -> list[Path]:
    p = Path(root)
    if p.is_dir():
        found = sorted(q for q in p.iterdir() if q.suffix == ".json")
        if not found:
            raise ValueError(f"{root}: directory contains no .json spec files")
        return found
    return [p]


def _params_from_json(doc, where: str) -> dict[tuple[int, int], np.ndarray]:
    result = doc.get("result") if isinstance(doc, dict) else None
    if isinstance(result, dict) and "params" in result:
        doc = result["params"]
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected an object mapping 'row,col' to arrays")
    out: dict[tuple[int, int], np.ndarray] = {}
    for key, value in doc.items():
        try:
            j, k = (int(part) for part in key.split(","))
        except ValueError:
            raise ValueError(
                f"{where}: bad block key {key!r}, expected 'row,col'"
            ) from None
        try:
            out[(j, k)] = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(
                f"{where}: block {key!r}: expected a rectangular array of numbers"
            ) from None
    return out


def _load_params(path, spec: ArchitectureSpec):
    """Read block parameters from a JSON mapping or a single-matrix file.

    JSON accepts either a flat ``{"row,col": nested lists}`` object or a
    whole ``minimize`` output (its stored parameters are reused). A CSV
    or binary matrix file is shorthand for a spec whose only learnable
    block is the first diagonal one.
    """
    path = str(path)
    if path.endswith(".json"):
        params = _params_from_json(json.loads(Path(path).read_text()), path)
    else:
        arr = load_array(path)
        learnable = [(b.row, b.col) for b in block_table(spec) if b.role == "learnable"]
        if learnable != [(0, 0)]:
            raise ValueError(
                f"{path}: a bare matrix file can only parameterize a spec whose "
                f"single learnable block is (0, 0); this spec has {learnable}"
            )
        params = {(0, 0): np.asarray(arr, dtype=float)}
    bad = sorted(key for key, arr in params.items() if not np.all(np.isfinite(arr)))
    if bad:
        raise ValueError(f"{path}: non-finite parameter values in blocks {bad}")
    return params


def _params_jsonable(params) -> dict:
    return {f"{j},{k}": arr.tolist() for (j, k), arr in sorted(params.items())}


def cmd_validate(args) -> int:
    failures = 0
    for path in [q for root in args.specs for q in _spec_paths(root)]:
        try:
            spec = load_spec(path)
        except _USER_ERRORS as exc:
            failures += 1
            print(f"FAIL {path}: {exc}")
            continue
        rows, cols = sum(spec.row_dims), sum(spec.col_dims)
        print(f"OK   {path}: depth {spec.depth}, frame {rows}x{cols}, "
              f"{param_count(spec)} parameters")
    return 1 if failures else 0


def _load_frame(args):
    """The frame of ``args.spec`` from its ``--params`` file, else from
    ``--seed``, and the seed the envelope records (None for a params file)."""
    spec = load_spec(args.spec)
    if not args.params:
        return build_global_frame(spec, seed=args.seed), args.seed
    params = _load_params(args.params, spec)
    try:
        return build_global_frame(spec, params=params), None
    except FrameBuildError as exc:  # a refusal of the file's values names the file
        raise FrameBuildError(f"{args.params}: {exc}") from None


def cmd_analyze(args) -> int:
    frame, seed = _load_frame(args)
    report = analyze(frame)
    if args.format == "csv":
        rows = [list(CSV_FIELDS), report.csv_row()]
        if args.out:
            _write_csv(args.out, rows)
        else:
            csv.writer(sys.stdout).writerows(rows)
        return 0
    payload = _envelope(seed, [args.spec])
    payload["report"] = report.to_dict()
    _emit_json(payload, args.out)
    return 0


def cmd_minimize(args) -> int:
    spec = load_spec(args.spec)
    opts = MinimizeOptions(seed=args.seed, max_iters=args.iters,
                           restarts=args.restarts)
    result = minimize_deep_frame_potential(spec, opts)
    payload = _envelope(args.seed, [args.spec])
    payload["options"] = {
        "max_iters": opts.max_iters, "step": opts.step, "tol": opts.tol,
        "tol_window": opts.tol_window, "restarts": opts.restarts,
    }
    payload["result"] = {
        "objective": result.objective,
        "mutual_coherence": result.mu,
        "raw_frame_potential": result.raw_frame_potential,
        "iterations": result.iterations,
        "winning_seed": result.seed,
        "failed_restarts": [list(t) for t in result.failed_restarts],
        "param_count": result.frame.structure.param_count,
        "params": _params_jsonable(result.params),
    }
    _emit_json(payload, args.out)
    if args.out:
        best = min(result.trajectories, key=lambda t: t[-1][1])
        rows = [["iteration", "objective", "mutual_coherence"]]
        rows += [[str(i), repr(obj), repr(mu)] for i, obj, mu in best]
        _write_csv(Path(args.out).with_suffix(".trajectory.csv"), rows)
    return 0


def cmd_rank(args) -> int:
    if args.out and Path(args.out).suffix == ".csv":
        raise ValueError(f"--out {args.out}: the CSV ranking is written beside the JSON "
                         f"with a .csv suffix, so --out needs another suffix")
    paths = _spec_paths(args.specdir)
    opts = MinimizeOptions(seed=args.seed, max_iters=args.iters,
                           restarts=args.restarts)
    candidates = [evaluate_candidate(load_spec(p), opts) for p in paths]
    report = rank(candidates, max_params=args.max_params)
    payload = _envelope(args.seed, paths)
    payload["ranking"] = report.to_dict()
    _emit_json(payload, args.out)
    if args.out:
        _write_csv(Path(args.out).with_suffix(".csv"), report.csv_rows())
    return 0


def cmd_infer(args) -> int:
    if args.gamma is not None and args.method != "bcd":
        raise ValueError(f"--gamma sets the step size of --method bcd; "
                         f"--method {args.method} takes no step size")
    frame, seed = _load_frame(args)
    batch = load_signals(args.inputs, frame.spec.input_dim).T
    if args.method == "feed_forward":
        results = feed_forward(batch, frame, args.penalty)
    elif args.method == "layered_bp":
        results = layered_basis_pursuit(batch, frame, args.penalty, budget=args.iters)
    else:
        results = bcd_inference(batch, frame, args.penalty, cycles=args.iters,
                                gamma="auto" if args.gamma is None else args.gamma)
    payload = _envelope(seed, [args.spec])
    payload["method"] = args.method
    payload["penalty"] = args.penalty
    payload["step_sizes"] = list(results[0].step_sizes)
    payload["results"] = [{
        "final_objective": res.final_objective,
        "objectives": res.objectives,
        "sparsity": res.sparsity,
        "codes": [w.tolist() for w in res.codes],
        "wall_clock": res.wall_clock,
    } for res in results]
    _emit_json(payload, args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="deepframe", description=__doc__.split("\n\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check spec files and summarize them")
    p.add_argument("specs", nargs="+", help="spec files or directories")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="frame-quality report for one spec")
    p.add_argument("spec")
    p.add_argument("--params", help="JSON or matrix file of block parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("minimize", help="search for minimum-potential parameters")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--out", help="JSON path; a .trajectory.csv lands beside it")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("rank", help="order a directory of specs by score")
    p.add_argument("specdir")
    p.add_argument("--max-params", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--out", help="JSON path; a .csv lands beside it")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("infer", help="sparse inference on input signals")
    p.add_argument("spec")
    p.add_argument("inputs", help="CSV or binary container, one signal per row")
    p.add_argument("--params", help="JSON or matrix file of block parameters")
    p.add_argument("--method", choices=("feed_forward", "bcd", "layered_bp"),
                   default="bcd")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--lambda", dest="penalty", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=None,
                   help="manual step size for bcd (default: safe automatic); "
                        "refused with the other methods")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"deepframe {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(f"deepframe {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
