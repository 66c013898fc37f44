"""Output checks for the benchmark, independent of the bugsize package.

The draws file is parsed here from its documented format rather than with
``bugsize.dataio.read_draws``, so a defect in the program's reader cannot
hide a defect in its writer.  Every check returns ``(ok, detail)`` and
never raises: a malformed file is a failed check, not a crashed benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DRAWS_STAMP = "# bugsize-draws-v1"
DRAWS_HEADER = "chain,iteration,parameter,value"
SCALARS = ("total_bugs", "remaining_size", "inclusion_prob")

# Acceptance criterion 6 (tests/test_acceptance.py) on the bundled campaign.
FLIGHT_MEAN_BAND = (61.0, 64.0)
FLIGHT_CI_LOWER_MAX = 61.0
FLIGHT_CI_UPPER_MIN = 63.0
FLIGHT_P100_BAND = (0.77, 0.93)

# The report's 95% interval misses the truth on about one seed in twenty
# even when the sampler is exact, so coverage is checked at four posterior
# standard deviations: a correct fit fails it about once in 15,000 seeds.
COVERAGE_SDS = 4.0


def read_draws_table(path) -> dict[str, np.ndarray]:
    """Parameter name -> (chains, kept) matrix, from a stamped draws CSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != DRAWS_STAMP:
        raise ValueError(f"{path}: missing {DRAWS_STAMP!r} stamp")
    try:
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    except StopIteration:
        raise ValueError(f"{path}: no header row") from None
    if lines[header] != DRAWS_HEADER:
        raise ValueError(f"{path}: bad header {lines[header]!r}")
    columns: dict[str, dict[int, list[float]]] = {}
    for lineno, line in enumerate(lines[header + 1 :], start=header + 2):
        fields = line.split(",")
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields")
        try:
            chain, value = int(fields[0]), float(fields[3])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad number") from None
        columns.setdefault(fields[2], {}).setdefault(chain, []).append(value)
    if not columns:
        raise ValueError(f"{path}: no draws")
    table = {}
    for name, chains in columns.items():
        lengths = {len(v) for v in chains.values()}
        if len(lengths) != 1:
            raise ValueError(f"{path}: chains of {name} differ in length")
        table[name] = np.array([chains[c] for c in sorted(chains)])
    shapes = {m.shape for m in table.values()}
    if len(shapes) != 1:
        raise ValueError(f"{path}: parameters differ in draw count")
    return table


def _guard(check):
    def run(*args):
        try:
            return check(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return False, f"{type(exc).__name__}: {exc}"

    run.__name__ = check.__name__
    run.__doc__ = check.__doc__
    return run


@_guard
def flight_bands(draws_path) -> tuple[bool, str]:
    """Criterion 6: total_bugs mean and interval, and Pr(rem < 100), in band."""
    table = read_draws_table(draws_path)
    bugs = table["total_bugs"].ravel()
    mean = float(bugs.mean())
    lo, hi = np.quantile(bugs, [0.025, 0.975])
    p100 = float(np.count_nonzero(table["remaining_size"] < 100.0) / bugs.size)
    ok = (
        FLIGHT_MEAN_BAND[0] <= mean <= FLIGHT_MEAN_BAND[1]
        and lo <= FLIGHT_CI_LOWER_MAX
        and hi >= FLIGHT_CI_UPPER_MIN
        and FLIGHT_P100_BAND[0] <= p100 <= FLIGHT_P100_BAND[1]
    )
    return ok, f"total_bugs mean {mean:.3f} [{lo:.0f}, {hi:.0f}], Pr(rem<100) {p100:.4f}"


@_guard
def covers_truth(draws_path, truth_path) -> tuple[bool, str]:
    """The total_bugs posterior covers the simulated true bug count."""
    truth = json.loads(Path(truth_path).read_text(encoding="utf-8"))["true_bugs"]
    bugs = read_draws_table(draws_path)["total_bugs"].ravel()
    mean, sd = float(bugs.mean()), float(bugs.std(ddof=1))
    ok = abs(mean - truth) <= COVERAGE_SDS * sd
    return ok, f"true_bugs {truth}, posterior {mean:.1f} +- {sd:.1f}"


@_guard
def diagnose_matches_report(diagnose_stdout, report_path) -> tuple[bool, str]:
    """R-hat, its upper bound and ESS printed by diagnose equal report.json's."""
    params = json.loads(Path(report_path).read_text(encoding="utf-8"))["parameters"]

    def token(value, decimals):
        # report.json stores non-finite values as null
        return ("inf", "nan") if value is None else (f"{value:.{decimals}f}",)

    printed = {}
    for line in Path(diagnose_stdout).read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split()
        if len(fields) == 4 and fields[0] in params:
            printed[fields[0]] = fields[1:]
    bad = []
    for name, p in params.items():
        want = (token(p["rhat"], 4), token(p["rhat_upper"], 4), token(p["ess"], 2))
        got = printed.get(name)
        if got is None or any(g not in w for g, w in zip(got, want)):
            bad.append(name)
    return not bad, f"mismatched: {', '.join(bad)}" if bad else f"{len(params)} rows"


@_guard
def reliability_matches_draws(curve_path, draws_path, epsilons) -> tuple[bool, str]:
    """reliability.csv equals Pr(remaining_size < eps) recomputed from draws."""
    rem = read_draws_table(draws_path)["remaining_size"].ravel()
    rows = Path(curve_path).read_text(encoding="utf-8").splitlines()
    if rows[0] != "epsilon,probability":
        return False, "bad header"
    got = [tuple(float(v) for v in row.split(",")) for row in rows[1:]]
    want = [(float(e), float(np.count_nonzero(rem < e) / rem.size)) for e in epsilons]
    return got == want, f"{len(want)} thresholds" if got == want else f"{got} != {want}"


@_guard
def traces_match_draws(out_dir, draws_path) -> tuple[bool, str]:
    """diagnose wrote one trace file per parameter, holding that parameter's draws."""
    table = read_draws_table(draws_path)
    bad = []
    for name, matrix in table.items():
        safe = name.replace("[", "_").replace("]", "")
        rows = Path(out_dir, f"trace_{safe}.csv").read_text(encoding="utf-8").splitlines()
        values = [float(row.rsplit(",", 1)[1]) for row in rows[1:]]
        if rows[0] != "chain,iteration,value" or values != matrix.ravel().tolist():
            bad.append(name)
    return not bad, f"mismatched: {', '.join(bad)}" if bad else f"{len(table)} traces"


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def corrupt_draws(src, dst) -> None:
    """Write a damaged but well-formed copy of a draws file.

    Every total_bugs draw is tripled (moves means and intervals, keeps
    R-hat and ESS) and chain 0's remaining_size draws gain 10,000 (moves
    R-hat, ESS and every reliability point).
    """
    out = []
    for line in Path(src).read_text(encoding="utf-8").splitlines():
        fields = line.split(",")
        if len(fields) == 4 and fields[2] == "total_bugs":
            fields[3] = repr(3.0 * float(fields[3]))
        elif len(fields) == 4 and fields[2] == "remaining_size" and fields[0] == "0":
            fields[3] = repr(float(fields[3]) + 10_000.0)
        out.append(",".join(fields))
    Path(dst).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")
