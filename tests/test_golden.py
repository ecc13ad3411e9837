"""``analyze`` against reports recorded before conv Gram blocks were held by offsets.

``golden_analyze.json`` holds the spec documents of every ``docs/examples``
spec and of the small analyze-conv shapes (a 2-D chain, a stride-2 layer, a
1-D residual and dense conv couplings), and for each spec and seed 0-2 the
report that the dense Gram path produced. Later Gram paths may reorder
floating-point sums, so floats must agree to 1e-12 relative; integers,
strings and absent bounds must agree exactly. The file is data, not a
snapshot of the current code: do not regenerate it to make this test pass.
"""

import json
from pathlib import Path

import pytest

from deepframe.archspec import parse_spec
from deepframe.coherence import analyze
from deepframe.framebuild import build_global_frame

GOLDEN = json.loads((Path(__file__).parent / "golden_analyze.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=lambda c: f"{c['spec']}-seed{c['seed']}")
def test_analyze_matches_recorded_report(case):
    spec = parse_spec(GOLDEN["specs"][case["spec"]])
    got = analyze(build_global_frame(spec, seed=case["seed"])).to_dict()
    assert got.keys() == case["report"].keys()
    for field, want in case["report"].items():
        if isinstance(want, float):
            assert got[field] == pytest.approx(want, rel=1e-12, abs=0), field
        else:
            assert got[field] == want and type(got[field]) is type(want), field
