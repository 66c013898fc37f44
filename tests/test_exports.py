"""Every name a module exports resolves, so a deleted name cannot stay exported."""

import importlib
import pkgutil

import bugsize
import pytest

# __main__ runs the CLI on import and exports nothing
MODULES = ["bugsize"] + [
    f"bugsize.{info.name}"
    for info in pkgutil.iter_modules(bugsize.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
