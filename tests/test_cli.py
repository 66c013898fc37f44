import json
import os
import subprocess
import sys
import time
from pathlib import Path

import bugsize
from bugsize.cli import main
from bugsize.dataio import read_campaign, write_campaign
from bugsize.model import TestCampaign


def small_campaign_file(tmp_path, name="campaign.csv"):
    campaign = TestCampaign(
        test_cases=[[8, 3], [6, 2], [7, 4]],
        bugs_detected=[[2, 0], [1, 0], [1, 1]],
    )
    path = tmp_path / name
    write_campaign(campaign, path)
    return path


def run_fit(tmp_path, campaign_path, out_name="fit", extra=()):
    out = tmp_path / out_name
    code = main(
        [
            "fit", str(campaign_path),
            "--chains", "3", "--iters", "200", "--seed", "9",
            "--max-bugs", "20", "--nu", "1.0", "--out", str(out),
            *extra,
        ]
    )
    return code, out


# ---------------------------------------------------------------- simulate

def test_simulate_writes_campaign_and_truth(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate", "--missions", "4", "--phases", "3", "--true-bugs", "10",
            "--max-bugs", "40", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    campaign = read_campaign(out / "campaign.csv")
    assert (campaign.missions, campaign.phases) == (4, 3)
    assert (out / "truth.json").exists()
    assert "detected=" in capsys.readouterr().out


def test_simulate_no_real_bugs(tmp_path):
    out = tmp_path / "sim0"
    assert main(["simulate", "--true-bugs", "0", "--missions", "3", "--phases", "2",
                 "--max-bugs", "5", "--seed", "1", "--out", str(out)]) == 0
    campaign = read_campaign(out / "campaign.csv")
    assert campaign.detected_total == 0


def test_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["simulate", "--missions", "3", "--phases", "2", "--true-bugs", "5",
            "--max-bugs", "20", "--seed", "11"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert (out1 / "campaign.csv").read_bytes() == (out2 / "campaign.csv").read_bytes()
    assert (out1 / "truth.json").read_bytes() == (out2 / "truth.json").read_bytes()


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BUGSIZE_OUT_DIR", str(tmp_path / "from_env"))
    assert main(["simulate", "--missions", "2", "--phases", "2", "--true-bugs", "2",
                 "--max-bugs", "10", "--seed", "1"]) == 0
    assert (tmp_path / "from_env" / "campaign.csv").exists()


# --------------------------------------------------------------------- fit

def test_fit_smoke_is_quick(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    start = time.time()
    code, out = run_fit(tmp_path, campaign_path)
    elapsed = time.time() - start
    assert code == 0
    assert elapsed < 5.0
    assert (out / "draws.csv").exists() and (out / "report.json").exists()
    stdout = capsys.readouterr().out
    assert "total bugs" in stdout and "worst split R-hat" in stdout


def test_fit_missing_file(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_fit_ceiling_below_detections(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    code = main(["fit", str(campaign_path), "--max-bugs", "2", "--iters", "50",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "ceiling" in capsys.readouterr().err


def test_fit_strict_convergence_warning(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    # an impossible threshold guarantees the warning path
    code, _ = run_fit(tmp_path, campaign_path, "warn", extra=("--rhat-warn", "0.999", "--strict"))
    assert code == 2
    assert "warning" in capsys.readouterr().err
    code, _ = run_fit(tmp_path, campaign_path, "soft", extra=("--rhat-warn", "0.999"))
    assert code == 0


def test_fit_deterministic_files(tmp_path):
    campaign_path = small_campaign_file(tmp_path)
    _, out1 = run_fit(tmp_path, campaign_path, "d1")
    _, out2 = run_fit(tmp_path, campaign_path, "d2")
    assert (out1 / "draws.csv").read_bytes() == (out2 / "draws.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# -------------------------------------------------------------- reliability

def test_reliability_curve_command(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    _, out = run_fit(tmp_path, campaign_path)
    code = main(["reliability", str(out / "draws.csv"),
                 "--epsilon", "10,50,100", "--out", str(out)])
    assert code == 0
    lines = (out / "reliability.csv").read_text().splitlines()
    assert lines[0] == "epsilon,probability"
    assert len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)
    assert "reliability" in capsys.readouterr().out


def test_reliability_single_and_unsorted(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    _, out = run_fit(tmp_path, campaign_path)
    assert main(["reliability", str(out / "draws.csv"), "--epsilon", "42",
                 "--out", str(out)]) == 0
    assert main(["reliability", str(out / "draws.csv"), "--epsilon", "100,50",
                 "--out", str(out)]) == 1
    assert "strictly increasing" in capsys.readouterr().err


# ----------------------------------------------------------------- diagnose

def test_diagnose_prints_and_exports(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    _, out = run_fit(tmp_path, campaign_path)
    code = main(["diagnose", str(out / "draws.csv"), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "R-hat" in stdout and "ESS" in stdout
    assert (out / "trace_inclusion_prob.csv").exists()
    assert (out / "trace_total_bugs.csv").exists()


def test_diagnose_single_chain_rejected(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    out = tmp_path / "single"
    assert main(["fit", str(campaign_path), "--chains", "1", "--iters", "100",
                 "--max-bugs", "20", "--seed", "2", "--out", str(out)]) == 0
    assert main(["diagnose", str(out / "draws.csv"), "--out", str(out)]) == 1
    assert ">=2 chains" in capsys.readouterr().err


def test_diagnose_unknown_parameter(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    _, out = run_fit(tmp_path, campaign_path)
    code = main(["diagnose", str(out / "draws.csv"), "--params", "nope", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "nope" in err and "inclusion_prob" in err


# -------------------------------------------------------------- exit codes

def test_diagnose_malformed_draws(tmp_path, capsys):
    code, out = run_fit(tmp_path, small_campaign_file(tmp_path))
    assert code == 0
    draws = out / "draws.csv"
    lines = draws.read_text().splitlines()
    draws.write_text("\n".join(l for l in lines if not l.startswith("1,199,")) + "\n")
    capsys.readouterr()
    assert main(["diagnose", str(draws), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{draws}: chain 1 has 99 draws of 'inclusion_prob', chain 0 has 100" in err


def test_diagnose_non_numeric_draw(tmp_path, capsys):
    code, out = run_fit(tmp_path, small_campaign_file(tmp_path))
    assert code == 0
    draws = out / "draws.csv"
    lines = draws.read_text().splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith("1,150,total_bugs,"))
    lines[at] = "1,150,total_bugs,abc"
    draws.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["diagnose", str(draws), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"bugsize: error: {draws}:{at + 1}: chain and iteration must be integers" in err


def test_usage_error_exits_one(capsys):
    assert main(["fit"]) == 1          # missing positional
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------- import hygiene

SCIPY_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import bugsize.cli
seen["import"] = scipy_modules()
draws, campaign, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert bugsize.cli.main(["reliability", draws, "--epsilon", "10,50", "--out", out]) == 0
    seen["reliability"] = scipy_modules()
    assert bugsize.cli.main(["fit", campaign, "--chains", "2", "--iters", "40",
                             "--max-bugs", "10", "--out", out]) == 0
seen["fit"] = scipy_modules()
print(json.dumps(seen))
"""


def test_commands_load_scipy_only_for_rhat(tmp_path):
    # scipy.stats costs over a second to import; only R-hat's bound needs
    # scipy at all, and then only scipy.special
    campaign_path = small_campaign_file(tmp_path)
    _, out = run_fit(tmp_path, campaign_path)
    src = str(Path(bugsize.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(out / "draws.csv"), str(campaign_path),
         str(tmp_path / "probe")],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    seen = json.loads(probe.stdout)
    assert seen["import"] == []
    assert seen["reliability"] == []
    assert "scipy.special" in seen["fit"]
    assert not any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in seen["fit"])
