"""Demo scripts and the README's python blocks import only names the package provides.

Each demo is parsed, not run: running all five takes about 16 s, most of it
sampling (2-core Xeon), so the CI workflow runs them in a step of its own.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def bugsize_imports(source, filename):
    """(module, name) pairs a script imports from bugsize; name None for ``import m``."""
    tree = ast.parse(source, filename=filename)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bugsize":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bugsize":
                    yield alias.name, None


def assert_imports_resolve(source, filename):
    imports = list(bugsize_imports(source, filename))
    assert imports, f"{filename} imports nothing from bugsize"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{filename}: {module} has no {name!r}"


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    assert_imports_resolve(path.read_text(encoding="utf-8"), path.name)


def test_readme_imports_resolve():
    assert README_BLOCKS, "README.md has no python block"
    for i, block in enumerate(README_BLOCKS):
        assert_imports_resolve(block, f"README.md python block {i + 1}")
