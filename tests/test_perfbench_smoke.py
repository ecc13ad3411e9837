"""The benchmark's own smoke test runs against the current program."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    # perfbench reads normalize(...)[0], the placed blocks and materialize,
    # so a change to those types must not break the benchmark silently
    proc = subprocess.run([sys.executable, "perfbench/test_smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
