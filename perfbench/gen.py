"""Seeded input generator for the deepframe benchmark.

Writes the files a workload feeds to the program (spec JSON documents and
signal containers) plus a ``manifest.json`` that lists the operations the
harness issues against them: which spec is scored with which minimizer
seed, which command runs in which order. The program sees only the files;
the harness sees only the manifest. The same (workload, seed) always
gives byte-identical files.

Run standalone to inspect the inputs of one seed:

    python3 perfbench/gen.py --workload rank-fc --seed 1 --out .perfbench/inspect

``HOLDOUT_SEED`` is never used while tuning the benchmark or a change; a
claimed gain is re-checked on it before it is accepted.
"""

from __future__ import annotations

import argparse
import json
import struct
from pathlib import Path

import numpy as np

HOLDOUT_SEED = 20211

WORKLOADS = ("rank-fc", "rank-conv", "infer-bcd", "infer-lbp", "infer-ff",
             "analyze-conv")

# rank-fc: one block holds every (pattern, depth) cell once, residual twice
# because it only admits odd depths; a run scores whole blocks.
FC_CELLS = [("chain", d) for d in (1, 2, 3, 4)] + \
           [("dense", d) for d in (1, 2, 3, 4)] + \
           [("residual", 1), ("residual", 3), ("residual", 1), ("residual", 3)]
FC_BLOCKS = 40

# rank-conv: the criterion-8 ladders, parameter budgets matched within 2%.
CONV_LADDERS = {
    "A": ([4] * 5, [3, 3, 3, 2, 2]),
    "B": ([5] * 5, [4, 3, 3, 3, 3]),
    "C": ([6] * 5, [5, 4, 4, 3, 3]),
}
CONV_ROUNDS = 20

# infer-*: one frame, one batch of signals, every command runs the batch.
INFER_BATCH = 4
INFER_ITERS = 100
INFER_LAMBDA = 0.1
# The power iteration behind every step size runs 80 to 300 rounds per
# block depending on the frame's parameters, so a frame drawn per seed
# would move the cost by a third between seeds. The frame is fixed; the
# signals come from the seed.
INFER_FRAME_SEED = 0

ANALYZE_ROUNDS = 40

_MAGIC = b"DFMAT001"


def conv_doc(pattern, channels, spatial, widths, filt=3, stride=1, ndim=2,
             name=None):
    """A convolutional spec document; channels chain from layer to layer."""
    layers, prev = [], channels
    for w in widths:
        layers.append({"kind": "convolutional", "width": w, "channels": prev,
                       "spatial": spatial, "filter": filt, "stride": stride,
                       "ndim": ndim})
        prev = w
    doc = {"input_dim": channels * spatial ** ndim, "layers": layers,
           "connectivity": pattern}
    if name is not None:
        doc["name"] = name
    return doc


def fc_doc(pattern, input_dim, widths):
    return {"input_dim": input_dim,
            "layers": [{"kind": "fully_connected", "width": w} for w in widths],
            "connectivity": pattern}


def write_signals(path, values) -> None:
    """Write a matrix in the program's binary container format."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sI", _MAGIC, arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(arr.tobytes())


def _write_spec(out: Path, stem: str, doc: dict) -> str:
    path = out / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path.name


def _rank_fc(rng, out: Path, tiny: bool) -> dict:
    blocks = []
    for b in range(2 if tiny else FC_BLOCKS):
        order = rng.permutation(len(FC_CELLS))
        items = []
        for pos, cell in enumerate(order):
            pattern, depth = FC_CELLS[cell]
            widths = [int(rng.integers(2, 17)) for _ in range(depth)]
            for j in range(2, depth):
                if pattern == "residual":
                    widths[j] = widths[j - 2]
            doc = fc_doc(pattern, int(rng.integers(2, 9)), widths)
            stem = f"b{b:03d}_{pos:02d}_{pattern}{depth}"
            items.append({"spec": _write_spec(out, stem, doc),
                          "seed": int(rng.integers(0, 2 ** 31))})
        blocks.append(items)
    return {"blocks": blocks, "restarts": 1,
            "max_iters": 20 if tiny else 300}


def _rank_conv(rng, out: Path, tiny: bool) -> dict:
    ladders = {"A": CONV_LADDERS["A"]} if tiny else CONV_LADDERS
    files = {}
    for size, (ladder, dense) in ladders.items():
        for pattern, widths in (("chain", ladder), ("residual", ladder),
                                ("dense", dense)):
            doc = conv_doc(pattern, 2, 3, widths)
            files[size, pattern] = _write_spec(out, f"{size}_{pattern}", doc)
    blocks = []
    for _ in range(1 if tiny else CONV_ROUNDS):
        for size in rng.permutation(sorted(ladders)):
            blocks.append([
                {"spec": files[size, pattern],
                 "seed": int(rng.integers(0, 2 ** 31))}
                for pattern in rng.permutation(["chain", "residual", "dense"])
            ])
    # a round is one block per ladder size, so every run scores whole rounds
    return {"blocks": blocks, "round_blocks": len(ladders), "restarts": 1,
            "max_iters": 5 if tiny else 100}


def _infer(rng, out: Path, tiny: bool, method: str) -> dict:
    spatial = 4 if tiny else 8
    doc = conv_doc("chain", 2, spatial, [8, 8, 8])
    batch = 2 if tiny else INFER_BATCH
    signals = rng.standard_normal((batch, doc["input_dim"]))
    write_signals(out / "signals.bin", signals)
    return {"spec": _write_spec(out, "infer_chain", doc),
            "signals": "signals.bin", "batch": batch, "method": method,
            "iters": 5 if tiny else INFER_ITERS, "lambda": INFER_LAMBDA,
            "frame_seed": INFER_FRAME_SEED}


def _analyze(rng, out: Path, tiny: bool) -> dict:
    if tiny:
        docs = {"chain2d": conv_doc("chain", 2, 5, [3, 3]),
                "stride2d": conv_doc("chain", 2, 6, [4], filt=4, stride=2),
                "residual1d": conv_doc("residual", 2, 8, [3, 3, 3], ndim=1),
                "dense2d": conv_doc("dense", 2, 4, [2, 2, 2])}
    else:
        docs = {"chain2d": conv_doc("chain", 3, 12, [8, 8]),
                "stride2d": conv_doc("chain", 3, 20, [16], filt=4, stride=2),
                "residual1d": conv_doc("residual", 4, 64, [8, 8, 8], ndim=1),
                "dense2d": conv_doc("dense", 2, 10, [6, 6, 6])}
    specs = {k: {"spec": _write_spec(out, k, d),
                 "seed": int(rng.integers(0, 2 ** 31))}
             for k, d in docs.items()}
    rounds = [[str(k) for k in rng.permutation(sorted(docs))]
              for _ in range(1 if tiny else ANALYZE_ROUNDS)]
    return {"specs": specs, "rounds": rounds}


def generate(workload: str, seed: int, out_dir, tiny: bool = False) -> dict:
    """Write the inputs of one workload and seed; return the manifest.

    ``tiny`` shrinks every shape and iteration budget so the benchmark's
    own smoke test finishes in seconds; measured runs never set it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed % 2 ** 64])
    if workload == "rank-fc":
        plan = _rank_fc(rng, out, tiny)
    elif workload == "rank-conv":
        plan = _rank_conv(rng, out, tiny)
    elif workload == "analyze-conv":
        plan = _analyze(rng, out, tiny)
    else:
        method = {"infer-bcd": "bcd", "infer-lbp": "layered_bp",
                  "infer-ff": "feed_forward"}[workload]
        plan = _infer(rng, out, tiny, method)
    manifest = {"workload": workload, "seed": seed, "tiny": tiny, **plan}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
