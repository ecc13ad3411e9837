"""Every exported name resolves: tools that wrap ``__all__`` by name rely on it."""

import importlib
import pkgutil

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
