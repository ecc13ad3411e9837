"""Every exported name resolves: tools that wrap ``__all__`` by name rely on it."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import deepframe

MODULES = ["deepframe"] + [f"deepframe.{m.name}"
                           for m in pkgutil.iter_modules(deepframe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_package_exports_are_module_exports():
    # the benchmark's span recorder times a function only through its own
    # module's __all__, so a name the package re-exports must be listed there
    for attr in deepframe.__all__:
        home = getattr(getattr(deepframe, attr), "__module__", "")
        if home.startswith("deepframe."):
            assert attr in importlib.import_module(home).__all__, attr


# Imports every module and runs ``python -m deepframe validate`` with SciPy
# unimportable: the runtime dependencies are NumPy alone, though SciPy may
# be installed beside it.
NO_SCIPY = """
import importlib, runpy, sys
sys.modules["scipy"] = None
for name in sys.argv[1:]:
    if name != "deepframe.__main__":
        importlib.import_module(name)
sys.argv = ["deepframe", "validate", "docs/examples"]
runpy.run_module("deepframe", run_name="__main__")
"""


def test_runs_without_scipy():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, *MODULES], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("OK") == 4
