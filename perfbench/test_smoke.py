"""Smoke test of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench -q

Every workload runs at toy size in a few seconds, each output check passes
on real outputs and fails on a corrupted draws file, and the benchmark
refuses to run where there is no program to measure.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FLIGHT_EPSILONS = (100, 120, 140, 160, 180, 200)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_toy_size(workload, trace):
    done = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def cli(*args, must_pass=True):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "bugsize", *map(str, args)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 or not must_pass, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def flight_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("flight")
    code = ("import sys\nfrom bugsize.dataio import write_campaign\n"
            "from bugsize.datasets import flight_software_campaign\n"
            "write_campaign(flight_software_campaign(), sys.argv[1])\n")
    subprocess.run([sys.executable, "-c", code, out / "flight.csv"], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    cli("fit", out / "flight.csv", "--iters", 400, "--seed", 5, "--out", out)
    cli("reliability", out / "draws.csv", "--epsilon", ",".join(map(str, FLIGHT_EPSILONS)),
        "--out", out)
    (out / "diagnose.out").write_text(cli("diagnose", out / "draws.csv", "--out", out))
    (out / "truth.json").write_text(json.dumps({"true_bugs": 62}))
    return out


def run_checks(out: Path, draws: Path) -> dict:
    """Every check, given the fit's outputs in ``out`` and a draws file."""
    # diagnose may rightly refuse a damaged file; then it prints no table
    rediagnose = cli("diagnose", draws, "--out", out / "rediagnose", must_pass=False)
    (out / "rediagnose.out").write_text(rediagnose)
    return {
        "traces": checks.traces_match_draws(out, draws),
        "bands": checks.flight_bands(draws),
        "coverage": checks.covers_truth(draws, out / "truth.json"),
        "diagnose": checks.diagnose_matches_report(out / "rediagnose.out",
                                                   out / "report.json"),
        "reliability": checks.reliability_matches_draws(out / "reliability.csv", draws,
                                                        FLIGHT_EPSILONS),
    }


def test_checks_pass_on_real_outputs(flight_outputs):
    results = run_checks(flight_outputs, flight_outputs / "draws.csv")
    assert all(ok for ok, _ in results.values()), results


def test_checks_fail_on_corrupted_values(flight_outputs):
    bad = flight_outputs / "corrupted.csv"
    checks.corrupt_draws(flight_outputs / "draws.csv", bad)
    results = run_checks(flight_outputs, bad)
    assert not any(ok for ok, _ in results.values()), results


def test_checks_fail_on_truncated_file(flight_outputs):
    text = (flight_outputs / "draws.csv").read_text()
    bad = flight_outputs / "truncated.csv"
    bad.write_text(text[: len(text) // 2])
    results = run_checks(flight_outputs, bad)
    assert not any(ok for ok, _ in results.values()), results


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "flight-fit", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
