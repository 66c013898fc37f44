"""Seeded fuzz of the three readers: the campaign CSV, the draws file and ``--epsilon``.

Mutants of one valid input each go through ``cli.main`` in-process, so no
process starts: ``fit`` reads the campaign mutants, ``reliability`` and
``diagnose`` the draws mutants, and ``reliability`` the ``--epsilon``
mutants.  Every call must return 0 or 1 without raising, within
``CALL_SECONDS``, and a 1 must leave ``bugsize: error:`` as the last line on
stderr, naming the mutated file for a campaign or draws mutant.

Each input gets every bad value in every field of its leading lines (a
campaign's header and first row; a draws file's meta line, first chain line,
header and first row), then ``MUTANTS`` mutants drawn from a seeded
generator: a line dropped, duplicated or swapped, the text cut short, a
random field of a random line made bad, or the first line changed.  Last,
each of ``BAD_BYTES`` goes at the end of each of those leading lines: such a
file must fail, naming its file and that line.
"""

import time

import numpy as np
import pytest

from bugsize.cli import main

BAD_VALUES = ("nan", "inf", "1_0", "99999999999999999999", "1000000000000", "-1", "")
# bytes that are not UTF-8: an invalid start byte, and a two-byte piece of a three-byte character
BAD_BYTES = (b"\xff", b"\xe2\x82")
MUTANTS = 30
SEED = 22
CAMPAIGN = """mission,phase,test_cases,bugs_detected
M1,1,8,2
M1,2,3,0
M1,3,5,1
M2,1,6,1
M2,2,2,0
M2,3,4,1
"""
FIT = ["--iters", "20", "--threads", "1", "--max-bugs", "30"]
# The most one call may take, so that no input makes a command hang: about 250
# times the slowest of the 442 text-mutant calls this file makes, over three
# runs on a 2-core VM (8.2 ms, a reliability call; fit calls took at most 7.0 ms)
CALL_SECONDS = 2.0


def field_count(line: str) -> int:
    """Fields of a line: comma-separated, or a comment's tokens after ``#`` and its kind."""
    return len(line.split(" ")) - 2 if line.startswith("#") else line.count(",") + 1


def with_field(line: str, k: int, value: str) -> str:
    """``line`` with field ``k`` set to ``value``; a comment's ``key=`` token keeps its key."""
    if not line.startswith("#"):
        parts = line.split(",")
        parts[k] = value
        return ",".join(parts)
    parts = line.split(" ")
    key, eq, _ = parts[k + 2].rpartition("=")
    parts[k + 2] = f"{key}{eq}{value}"
    return " ".join(parts)


def mutants(text: str, lead: list[int], rng: np.random.Generator):
    """Every bad value in every field of lines ``lead``, then ``MUTANTS`` random mutants."""
    lines = text.splitlines()
    for i in lead:
        for k in range(field_count(lines[i])):
            for value in BAD_VALUES:
                yield "\n".join([*lines[:i], with_field(lines[i], k, value), *lines[i + 1 :]])
    for _ in range(MUTANTS):
        edited = list(lines)
        i, j = rng.integers(len(lines), size=2)
        kind = rng.integers(6)
        if kind == 0:
            del edited[i]
        elif kind == 1:
            edited.insert(i, edited[i])
        elif kind == 2:
            edited[i], edited[j] = edited[j], edited[i]
        elif kind == 3:
            yield text[: rng.integers(len(text))]
            continue
        elif kind == 4 and field_count(edited[i]) > 0:
            k = rng.integers(field_count(edited[i]))
            edited[i] = with_field(edited[i], k, BAD_VALUES[rng.integers(len(BAD_VALUES))])
        else:
            edited[0] = "# bugsize-draws-v2"
        yield "\n".join(edited) + "\n"


def byte_mutants(text: str, lead: list[int]):
    """``text`` as UTF-8 with each of ``BAD_BYTES`` ending each line ``lead``, and that
    line's ``path:line:`` suffix."""
    lines = text.encode().split(b"\n")
    for i in lead:
        for bad in BAD_BYTES:
            yield b"\n".join([*lines[:i], lines[i] + bad, *lines[i + 1 :]]), f":{i + 1}:"


def check(capsys, argv, path=None):
    """Run one command in-process; it must exit 0 or 1 within ``CALL_SECONDS``, a 1 with
    one error as its last line, which names ``path`` if one is given.  Returns the code."""
    capsys.readouterr()
    began = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - began
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1), (argv, code, err)
    assert elapsed < CALL_SECONDS, (argv, elapsed)
    if code == 1:
        assert err and err[-1].startswith("bugsize: error: "), (argv, err)
        assert path is None or str(path) in err[-1], (argv, err)
    return code


@pytest.fixture(scope="module")
def fitted_draws(tmp_path_factory):
    """The draws file of a tiny fit of ``CAMPAIGN`` and its text."""
    tmp = tmp_path_factory.mktemp("fuzz-fit")
    (tmp / "campaign.csv").write_text(CAMPAIGN)
    assert main(["fit", str(tmp / "campaign.csv"), *FIT, "--out", str(tmp)]) == 0
    return (tmp / "draws.csv").read_text()


def test_fuzz_campaign_reader(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "campaign.csv"
    for n, text in enumerate(mutants(CAMPAIGN, [0, 1], rng)):
        path.write_text(text)
        check(capsys, ["fit", str(path), *FIT, "--out", str(tmp_path / f"out{n}")], path)
    for data, line in byte_mutants(CAMPAIGN, [0, 1]):
        path.write_bytes(data)
        out = tmp_path / "out-bytes"
        assert check(capsys, ["fit", str(path), *FIT, "--out", str(out)], f"{path}{line}") == 1
        assert not out.exists()


def test_fuzz_draws_reader(tmp_path, capsys, fitted_draws):
    rng = np.random.default_rng(SEED + 1)
    lines = fitted_draws.splitlines()
    header = lines.index("chain,iteration,parameter,value")
    lead = [1, 2, header, header + 1]  # meta, chain 0, header, first row
    path = tmp_path / "draws.csv"
    for text in mutants(fitted_draws, lead, rng):
        path.write_text(text)
        check(capsys, ["reliability", str(path), "--epsilon", "10,50", "--out", str(tmp_path)],
              path)
        check(capsys, ["diagnose", str(path), "--out", str(tmp_path)], path)
    for data, line in byte_mutants(fitted_draws, lead):
        path.write_bytes(data)
        for argv in (["reliability", str(path), "--epsilon", "10,50"], ["diagnose", str(path)]):
            assert check(capsys, [*argv, "--out", str(tmp_path)], f"{path}{line}") == 1


def test_fuzz_epsilon_parser(tmp_path, capsys, fitted_draws):
    rng = np.random.default_rng(SEED + 2)
    path = tmp_path / "draws.csv"
    path.write_text(fitted_draws)
    # each threshold a line, so a line mutation is a threshold mutation
    for text in mutants("10\n50", [0, 1], rng):
        grid = ",".join(text.splitlines())
        check(capsys, ["reliability", str(path), f"--epsilon={grid}", "--out", str(tmp_path)])
