"""Every name a module exports resolves, so a deleted name cannot stay exported."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_package_loads_no_submodule():
    # each exported name loads its module on first use, so a command imports only
    # what it runs; dir() lists the names before then.  A fresh interpreter, since
    # this one has loaded every module
    probe = ("import sys, bugsize\n"
             "def loaded(): return sorted(m for m in sys.modules if m.startswith('bugsize.'))\n"
             "print(loaded(), set(bugsize.__all__) <= set(dir(bugsize)))\n"
             "bugsize.reliability_curve\n"
             "print(loaded())\n")
    src = str(Path(bugsize.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=120, check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.splitlines() == [
        "[] True", "['bugsize.model', 'bugsize.reliability', 'bugsize.sampler']"]
