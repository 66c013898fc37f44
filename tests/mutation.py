"""Mutation score of the test suite over ``src/bugsize``.

A mutant changes one operator or literal in one module: ``<`` and ``<=``,
``>`` and ``>=``, ``==`` and ``!=``, ``+`` and ``-``, and ``*`` and ``/`` swap,
and an integer literal gains 1.  The sites are every such place in the
chosen modules, in module and source order, and the sample is a seeded
draw from them, so a seed, a count and a module list name a fixed set of
mutants while the source stays the same.  Each mutant runs, with ``-x``, only
the test files that import its module (directly, or through ``helpers``),
against a fresh copy of the package.  A mutant is killed when those tests
fail or time out, and survives when they pass.  ``EQUIVALENT`` lists the
mutants that no test can kill, with the reason; they count in neither the
killed nor the surviving share.

Standard library only; pytest does not collect this file.  From the
repository root::

    python3 tests/mutation.py --seed 0 --count 24
    python3 tests/mutation.py --seed 1 --count 16 --modules sampler model reliability

Before the mutants, the unmutated package runs each test file the sample
needs; they must pass.  A killed mutant's tests take seconds and a
survivor's up to a minute on a 2-core VM.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bugsize"
TESTS = ROOT / "tests"
SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
         ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
         ast.Div: ("/", "*")}
# a mutant whose tests run longer than this loops or crawls, and counts as killed
TIMEOUT_S = 600
# address space of each test process, so that no mutant takes the machine's memory
MEMORY_LIMIT = 4 << 30

# (module, function, source line, mutation) -> why no test can tell the mutant apart
EQUIVALENT = {
    ("diagnostics", "_autocovariance", "size = 1 << int(np.ceil(np.log2(2 * n)))", "2 -> 3"):
        "any FFT length of at least 2n - 1 gives the exact linear autocovariance",
    ("diagnostics", "_isf", "if not lo < t < hi:", "< -> <= #2"):
        "differs only when a step lands exactly on the bracket's upper end",
    ("sampler", "update_sizes", "accept = np.log(u[scored]) < log_ratio", "< -> <="):
        "differs only on an exact float tie between log(u) and the log ratio",
    ("sampler", "update_mean_sizes",
     "accept = np.log(rng.random(state.max_bugs)) < log_ratio", "< -> <="):
        "differs only on an exact float tie between log(u) and the log ratio",
    ("sampler", "update_inclusion", "state.include[n:] = rng.random(state.max_bugs - n) < q",
     "< -> <="):
        "differs only on an exact float tie between u and the inclusion probability",
    ("dataio", "read_campaign", "rows, end = [], 0", "0 -> 1"):
        "moves only the header's line number, which no message names",
}


@dataclass(frozen=True)
class Site:
    module: str
    function: str
    line: int
    text: str  # the source line, stripped
    start: int  # byte offsets of the mutated token in the module's source
    end: int
    new: str  # what replaces it
    mutation: str  # "old -> new", then " #k" for the line's k-th such site from 2 on

    @property
    def key(self):
        return (self.module, self.function, self.text, self.mutation)

    def __str__(self):
        return f"{self.module}.py:{self.line} {self.function}: {self.mutation} in {self.text!r}"


def _operator_at(source: bytes, start: int, end: int, token: str) -> int | None:
    """Offset of ``token`` in ``source[start:end]`` past parentheses, white space,
    line continuations and comments; None if anything else comes first."""
    at = start
    while at < end:
        char = source[at : at + 1]
        if char in b" \t\r\n()\\":
            at += 1
        elif char == b"#":
            at = source.index(b"\n", at)
        else:
            longer = token in "<>" and source[at + 1 : at + 2] == b"="
            return at if source.startswith(token.encode(), at) and not longer else None
    return None


def sites(module: str) -> list[Site]:
    """Every mutation site of ``src/bugsize/<module>.py``, in source order."""
    source = (PACKAGE / f"{module}.py").read_bytes()
    line_starts = [0]
    for line in source.split(b"\n"):
        line_starts.append(line_starts[-1] + len(line) + 1)

    def offset(lineno, col):  # ast columns count UTF-8 bytes
        return line_starts[lineno - 1] + col

    tree = ast.parse(source)
    # skipped: f-string internals, whose positions are unreliable before Python
    # 3.12, and module-level tables of literals, which are data that pins check
    skipped = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
               for n in ast.walk(f)}
    for statement in tree.body:
        if (isinstance(statement, ast.Assign)
                and isinstance(statement.value, (ast.Tuple, ast.List, ast.Set, ast.Dict))):
            try:
                ast.literal_eval(statement.value)
            except ValueError:
                continue
            skipped.update(id(n) for n in ast.walk(statement.value))
    found, functions = [], []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append((offset(node.lineno, node.col_offset),
                              offset(node.end_lineno, node.end_col_offset), node.name))
        pairs = []
        if isinstance(node, ast.BinOp):
            pairs = [(node.op, node.left, node.right)]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = list(zip(node.ops, operands, operands[1:]))
        for op, left, right in pairs:
            if type(op) in SWAPS:
                old, new = SWAPS[type(op)]
                at = _operator_at(source, offset(left.end_lineno, left.end_col_offset),
                                  offset(right.lineno, right.col_offset), old)
                if at is not None:
                    found.append((at, at + len(old), old, new))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            if source[start:end].isdigit():
                found.append((start, end, source[start:end].decode(), str(node.value + 1)))
    result, seen = [], {}
    for start, end, old, new in sorted(found):
        line = max(i for i, s in enumerate(line_starts, 1) if s <= start)
        around = [f for f in functions if f[0] <= start < f[1]]
        k = seen[line, old, new] = seen.get((line, old, new), 0) + 1
        text = source[line_starts[line - 1] : line_starts[line] - 1].decode().strip()
        result.append(Site(module, max(around)[2] if around else "<module>", line, text,
                           start, end, new, f"{old} -> {new}" + (f" #{k}" if k > 1 else "")))
    return result


def mutant_source(site: Site) -> bytes:
    source = (PACKAGE / f"{site.module}.py").read_bytes()
    return source[: site.start] + site.new.encode() + source[site.end :]


def _imports(path: Path) -> set[str]:
    """The bugsize modules a test file imports, through ``helpers`` too."""
    homes = {}
    for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_HOMES":
            homes = ast.literal_eval(node.value)
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            modules.update(n.split(".")[1] if "." in n else "__init__"
                           for n in names if n.split(".")[0] == "bugsize")
            if "helpers" in names:
                modules |= _imports(TESTS / "helpers.py")
        elif isinstance(node, ast.ImportFrom) and node.module == "helpers":
            modules |= _imports(TESTS / "helpers.py")
        elif isinstance(node, ast.ImportFrom) and node.module == "bugsize":
            modules.add("__init__")
            modules.update(a.name if (PACKAGE / f"{a.name}.py").exists() else homes[a.name]
                           for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bugsize."):
            modules.add(node.module.split(".")[1])
    return modules


def test_files(module: str) -> list[Path]:
    return [p for p in sorted(TESTS.glob("test_*.py")) if module in _imports(p)]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def passes(package: Path, files: list[Path]) -> bool:
    """Whether ``files`` pass with ``package`` imported as bugsize (a timeout fails)."""
    env = {**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *map(str, files)]
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True,
                          preexec_fn=_limit_memory) as run:
        try:
            return run.wait(TIMEOUT_S) == 0
        except subprocess.TimeoutExpired:
            return False
        finally:
            # the tests' own worker processes share the session
            try:
                os.killpg(run.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=24, help="mutants to draw")
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__main__")
    parser.add_argument("--modules", nargs="+", choices=modules, default=modules)
    args = parser.parse_args(argv)

    every = [site for module in args.modules for site in sites(module)]
    sample = random.Random(args.seed).sample(every, min(args.count, len(every)))
    print(f"{len(sample)} of {len(every)} sites in {', '.join(args.modules)}, "
          f"seed {args.seed}", flush=True)
    killed, survived, equivalent = [], [], []
    with tempfile.TemporaryDirectory(prefix="bugsize-mutation-") as work:
        package = Path(work) / "bugsize"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        files = sorted({f for site in sample for f in test_files(site.module)})
        if not passes(package, files):
            print("the unmutated package fails its tests; no score", file=sys.stderr)
            return 1
        for site in sample:
            target = package / f"{site.module}.py"
            target.write_bytes(mutant_source(site))
            try:
                alive = passes(package, test_files(site.module))
            finally:
                shutil.copyfile(PACKAGE / f"{site.module}.py", target)
            if not alive:
                label, kind = "killed", killed
            elif site.key in EQUIVALENT:
                label, kind = "equivalent", equivalent
            else:
                label, kind = "SURVIVED", survived
            kind.append(site)
            print(f"  {label}: {site}", flush=True)
    scored = len(killed) + len(survived)
    print(f"score: {len(killed)} of {scored} killed"
          + (f" ({100 * len(killed) / scored:.0f}%)" if scored else "")
          + f", {len(equivalent)} equivalent")
    for site in equivalent:
        print(f"equivalent: {site}: {EQUIVALENT[site.key]}")
    for site in survived:
        print(f"survivor: {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
