"""Span recorder for the traced run, attached from outside the program.

:func:`instrument` replaces every function a deepframe module exports in
``__all__`` (plus ``cli.main``) with a wrapper, at every import site: the
defining module, each module that imported the name, and the package
namespace. ``ArchitectureSpec.col_dim`` is wrapped as a counted method
(calls only, it runs hundreds of thousands of times per run) and
``GlobalFrame.materialize`` as a timed one. A wrapper records a span only
while the recorder is active, which the harness switches on around each
timed operation, so checks and set-up leave no spans.

Spans are kept in memory as ``[name, start, end, parent]`` and written
out when the run ends. A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("archspec", "framebuild", "coherence", "minimize", "selection",
          "inference", "matio", "cli")


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._digests: set = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def new_command(self) -> None:
        """Forget which operators were seen; each CLI call is a fresh process."""
        self._digests.clear()

    def note_step_operator(self, mat) -> None:
        """Count a safe_step call and whether its operator is new to this command."""
        digest = hashlib.blake2b(np.ascontiguousarray(mat).data, digest_size=16).digest()
        if digest not in self._digests:
            self._digests.add(digest)
            self.counts["inference.safe_step.distinct"] += 1

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table plus [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows,
                       "counts": dict(self.counts)}, fh)


def _merged_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = _merged_length(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(i, ()) if spans[c][2] > start and spans[c][1] < end)
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# instrumentation


def _span_wrapper(rec: Recorder, name: str, fn, before=None):
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if before is not None:
            before(*args, **kwargs)
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    key = name + ".calls"

    def wrapper(*args, **kwargs):
        if rec.active:
            rec.counts[key] += 1
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def _exported_routines(mod):
    names = list(getattr(mod, "__all__", ()))
    if mod.__name__.endswith(".cli"):
        names.append("main")
    for attr in names:
        obj = getattr(mod, attr, None)
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield attr, obj


def instrument(rec: Recorder):
    """Wrap the program's exported functions; returns an undo callable."""
    from deepframe import archspec, framebuild

    hooks = {
        "matio.load_signals":
            lambda path, *a, **k: rec.counts.update(
                {"matio.bytes_read": os.path.getsize(path)}),
        "inference.safe_step": lambda mat, *a, **k: rec.note_step_operator(mat),
    }
    replace = {}
    for layer in LAYERS:
        mod = sys.modules[f"deepframe.{layer}"]
        for attr, fn in _exported_routines(mod):
            if fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            replace[id(fn)] = (fn, _span_wrapper(rec, name, fn, hooks.get(name)))

    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "deepframe" or modname.startswith("deepframe.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))

    def materialize_before(frame, *a, **k):
        rows, cols = frame.shape
        rec.counts["framebuild.materialize.mb_computed"] += rows * cols * 8 / 1e6

    methods = [
        (archspec.ArchitectureSpec, "col_dim",
         lambda fn: _count_wrapper(rec, "archspec.col_dim", fn)),
        (framebuild.GlobalFrame, "materialize",
         lambda fn: _span_wrapper(rec, "framebuild.materialize", fn,
                                  materialize_before)),
    ]
    for cls, attr, make in methods:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        undo.append((cls, attr, original))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics


def summarize(spans) -> dict:
    """Per span name: call count, total self time, total inclusive time."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span, own in zip(spans, selfs):
        entry = out[span[0]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span[2] - span[1]
    return dict(out)


def descendants_named(spans, ancestor_name: str, name: str) -> dict[int, int]:
    """For each span called ``ancestor_name``: how many ``name`` spans it contains."""
    owner = [-1] * len(spans)
    counts: dict[int, int] = {}
    for i, (span_name, _, _, parent) in enumerate(spans):
        if span_name == ancestor_name:
            owner[i] = i
            counts[i] = 0
        elif parent >= 0:
            owner[i] = owner[parent]
        if span_name == name and owner[i] >= 0 and owner[i] != i:
            counts[owner[i]] += 1
    return counts


def root_of(spans) -> list[int]:
    """Index of each span's outermost ancestor (spans are in start order)."""
    roots = []
    for i, (_, _, _, parent) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
    return roots
