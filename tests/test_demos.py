"""Demo scripts import only names the package still provides.

Each demo is parsed, not run: running all five takes about 16 s, most of it
sampling (2-core Xeon), so the CI workflow runs them in a step of its own.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def bugsize_imports(path):
    """(module, name) pairs a script imports from bugsize; name None for ``import m``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bugsize":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bugsize":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(bugsize_imports(path))
    assert imports, f"{path.name} imports nothing from bugsize"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name!r}"
