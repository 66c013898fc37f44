import gc
import json
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import bugsize
import pytest
from bugsize import cli
from bugsize.cli import main
from bugsize.dataio import read_campaign, write_campaign
from bugsize.datasets import flight_software_campaign
from bugsize.model import TestCampaign
from bugsize.sampler import SamplerConfig


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


def test_simulate_defaults_echo_in_truth(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out)]) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert (truth["seed"], truth["true_bugs"]) == (0, 100)
    assert truth["config"] == {"missions": 30, "phases": 8, "max_bugs": 400,
                               "size_exponent": 1.5, "dispersion": 50.0, "t_range": [0, 50]}


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


def test_simulate_rejects_empty_grid(tmp_path, capsys):
    for missions in ("0", "-1"):
        code = main(["simulate", "--missions", missions, "--out", str(tmp_path / "s")])
        assert code == 1
        assert "need missions >= 1 and phases >= 1" in capsys.readouterr().err
    assert not (tmp_path / "s" / "campaign.csv").exists()


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


@pytest.mark.parametrize("iters, burn_in", [("200", 100), ("1000", 200)])
def test_fit_reports_its_burn_in(tmp_path, capsys, iters, burn_in):
    # the default burn-in is half the run, at most 200 sweeps per chain
    code, out = run_fit(tmp_path, small_campaign_file(tmp_path), extra=("--iters", iters))
    assert code == 0
    kept = int(iters) - burn_in
    assert f"burn-in {burn_in} of {iters} sweeps per chain, {kept} kept\n" in capsys.readouterr().out
    meta = (out / "draws.csv").read_text().splitlines()[1]
    assert f" iterations={iters} burn_in={burn_in} " in meta


def test_fit_help_gives_the_default_burn_in(capsys):
    assert main(["fit", "--help"]) == 0
    assert "half of --iters, at most 200" in " ".join(capsys.readouterr().out.split())


def hidden_wide_campaign(tmp_path):
    """`simulate`'s hidden-wide campaign: 146 of 400 bugs detected, t_max 1,999."""
    out = tmp_path / "hidden"
    assert main(["simulate", "--true-bugs", "400", "--max-bugs", "4000", "--t-max", "2000",
                 "--seed", "11", "--out", str(out)]) == 0
    return out / "campaign.csv"


def test_fit_warns_when_total_bugs_reaches_the_ceiling(tmp_path, capsys):
    # about 400 real bugs cannot fit under a ceiling of 300 candidates
    campaign = hidden_wide_campaign(tmp_path)
    capsys.readouterr()
    # a warning, not a failure: even under --strict the exit code is R-hat's alone
    assert main(["fit", str(campaign), "--iters", "300", "--max-bugs", "300", "--threads", "1",
                 "--seed", "4", "--strict", "--out", str(tmp_path / "low")]) == 0
    err = capsys.readouterr().err
    totals = [float(line.split(",")[3]) for line in
              (tmp_path / "low" / "draws.csv").read_text().splitlines()
              if ",total_bugs," in line]
    at_ceiling = sum(total == 300 for total in totals)
    assert 0 < at_ceiling < len(totals)
    assert (f"warning: {at_ceiling} of {len(totals)} kept total_bugs draws "
            f"({at_ceiling / len(totals):.1%}) sit at the --max-bugs ceiling of 300") in err
    assert "refit with a larger --max-bugs" in err


@pytest.mark.parametrize("which", ["hidden-wide", "bundled"])
def test_fit_is_quiet_below_the_ceiling(tmp_path, capsys, which):
    if which == "bundled":
        campaign, max_bugs = tmp_path / "flight.csv", "400"
        write_campaign(flight_software_campaign(), campaign)
    else:
        campaign, max_bugs = hidden_wide_campaign(tmp_path), "4000"
    assert main(["fit", str(campaign), "--iters", "100", "--max-bugs", max_bugs,
                 "--threads", "1", "--out", str(tmp_path / "fit")]) == 0
    assert "ceiling" not in capsys.readouterr().err


def test_fit_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["fit", str(missing), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bugsize: error: ") and str(missing) in err


@pytest.mark.parametrize("command, extra", [("diagnose", ()),
                                            ("reliability", ("--epsilon", "10"))])
def test_draws_commands_name_a_missing_file(tmp_path, capsys, command, extra):
    missing = tmp_path / "nope.csv"
    assert main([command, str(missing), *extra, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bugsize: error: ") and str(missing) in err


def test_unwritable_out_dir_is_named(tmp_path, capsys):
    _, out = run_fit(tmp_path, small_campaign_file(tmp_path))
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    capsys.readouterr()
    assert main(["reliability", str(out / "draws.csv"), "--epsilon", "10",
                 "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bugsize: error: ") and str(blocker) in err


def drop_rows(source, target, parameter):
    """Copy a draws file without the rows of one parameter."""
    lines = source.read_text().splitlines(keepends=True)
    target.write_text("".join(l for l in lines if f",{parameter}," not in l))
    return target


def short_fit(tmp_path, campaign_path):
    """A two-chain fit that keeps 3 draws per chain, too few for split R-hat."""
    out = tmp_path / "short"
    assert main(["fit", str(campaign_path), "--chains", "2", "--iters", "5",
                 "--max-bugs", "20", "--seed", "4", "--out", str(out)]) == 0
    return out / "draws.csv"


@pytest.mark.parametrize("case", ["fit-missing-file", "fit-threads-0", "fit-low-ceiling",
                                  "fit-no-effort", "fit-dispersion", "diagnose-short-chains",
                                  "reliability-missing-param", "simulate-empty-grid"])
def test_failed_command_leaves_no_out_dir(tmp_path, capsys, case):
    campaign = small_campaign_file(tmp_path)
    if case == "reliability-missing-param":
        _, fitted = run_fit(tmp_path, campaign)
        partial = drop_rows(fitted / "draws.csv", tmp_path / "partial.csv", "remaining_size")
    if case == "fit-no-effort":
        write_campaign(TestCampaign(test_cases=[[0, 0]], bugs_detected=[[0, 0]]), campaign)
    argv = {
        "fit-missing-file": lambda: ["fit", str(tmp_path / "nope.csv")],
        "fit-threads-0": lambda: ["fit", str(campaign), "--threads", "0"],
        # the sampler's own input checks run before --out is made
        "fit-low-ceiling": lambda: ["fit", str(campaign), "--max-bugs", "4"],
        "fit-no-effort": lambda: ["fit", str(campaign)],
        # a chain fails after --out is made, so the fit removes it again
        "fit-dispersion": lambda: ["fit", str(campaign), "--iters", "20",
                                   "--dispersion", "1e-40"],
        "diagnose-short-chains": lambda: ["diagnose", str(short_fit(tmp_path, campaign))],
        "reliability-missing-param": lambda: ["reliability", str(partial), "--epsilon", "10"],
        "simulate-empty-grid": lambda: ["simulate", "--missions", "0"],
    }[case]()
    out = tmp_path / "never"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bugsize: error: ")
    # a data error names the file it read
    assert case in ("fit-threads-0", "fit-dispersion", "simulate-empty-grid") or argv[1] in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["campaign-grouped-test-cases", "campaign-huge-detections",
                                  "campaign-detections-2-to-the-63",
                                  "campaign-test-cases-below-int64", "epsilon-inf", "epsilon-grouped", "epsilon-empty-inner",
                                  "epsilon-empty-last"])
def test_malformed_numbers_exit_one_with_one_error_line(tmp_path, capsys, case):
    campaign = small_campaign_file(tmp_path)
    lines = campaign.read_text().splitlines()
    if case.startswith("campaign"):
        # one cell's test_cases or bugs_detected field, as read_campaign parses them
        # int64 runs from -2**63 to 2**63 - 1
        field = {"campaign-grouped-test-cases": (2, "1_0"),
                 "campaign-huge-detections": (3, "99999999999999999999"),
                 "campaign-detections-2-to-the-63": (3, str(2**63)),
                 "campaign-test-cases-below-int64": (2, str(-(2**63) - 1))}[case]
        row = lines[1].split(",")
        row[field[0]] = field[1]
        lines[1] = ",".join(row)
        campaign.write_text("\n".join(lines) + "\n")
        argv, names = ["fit", str(campaign)], f"{campaign}:2: counts must be integers"
    else:
        _, fitted = run_fit(tmp_path, campaign)
        grid = {"epsilon-inf": "10,inf", "epsilon-grouped": "1_0",
                "epsilon-empty-inner": "100,,200", "epsilon-empty-last": "100,"}[case]
        token = "" if "empty" in case else grid.split(",")[-1]
        argv = ["reliability", str(fitted / "draws.csv"), "--epsilon", grid]
        names = f"--epsilon: threshold {token!r} must be a number"
    out = tmp_path / "never"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"bugsize: error: {names}\n"
    assert not out.exists()


def test_fit_names_a_detected_count_past_int64(tmp_path, capsys):
    # an int64 sum of these two cells wraps to -8446744073709551616
    path = tmp_path / "campaign.csv"
    path.write_text("mission,phase,test_cases,bugs_detected\n"
                    "M1,1,5,5000000000000000000\nM1,2,10,5000000000000000000\n")
    assert main(["fit", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"bugsize: error: {path}: candidate ceiling 400 below "
                                       "detected count 10000000000000000000\n")


def test_fit_run_settings_default_to_sampler_config():
    args = cli._build_parser().parse_args(["fit", "x.csv"])
    config = SamplerConfig()
    assert (args.chains, args.iters, args.burn_in) == (
        config.chains, config.iterations, config.burn_in)


def test_fit_flags_set_every_sampler_config_field(tmp_path, monkeypatch):
    # SamplerConfig holds fit's run settings and nothing else: each field comes
    # from a flag, so a field no flag sets fails here
    seen = []
    real_run_all = cli.run_all

    def record_then_run(campaign, model_config, sampler_config):
        seen.append(sampler_config)
        return real_run_all(campaign, model_config, sampler_config)

    monkeypatch.setattr(cli, "run_all", record_then_run)
    assert main(["fit", str(small_campaign_file(tmp_path)), "--chains", "2", "--iters", "30",
                 "--burn-in", "5", "--seed", "7", "--threads", "1",
                 "--out", str(tmp_path / "fit")]) == 0
    (config,) = seen
    assert {f.name: getattr(config, f.name) for f in fields(SamplerConfig)} == {
        "chains": 2, "iterations": 30, "burn_in": 5, "seed": 7, "workers": 1}


def test_fit_threads_below_one_names_the_flag(tmp_path, capsys):
    code, _ = run_fit(tmp_path, small_campaign_file(tmp_path), extra=("--threads", "0"))
    assert code == 1
    assert "--threads must be >= 1, got 0" in capsys.readouterr().err


NUMERIC_FLAGS = {
    "simulate": ("--max-bugs", "--nu", "--dispersion", "--seed", "--missions", "--phases",
                 "--true-bugs", "--t-min", "--t-max"),
    "fit": ("--max-bugs", "--nu", "--dispersion", "--seed", "--chains", "--iters",
            "--burn-in", "--threads"),
}


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in
                                           NUMERIC_FLAGS.items() for flag in flags])
def test_numeric_flags_follow_the_number_rule(tmp_path, capsys, command, flag):
    # the rule of numbers read from files: no "_" grouping, floats finite, and
    # integers within int64, except the seed, which numpy takes at any size but
    # not below 0; 99999999999999999999 is a finite float, so only integer flags
    # refuse it
    values = ["1_0", "nan", "inf", ""]
    if flag == "--seed":
        values.append("-1")
    elif flag not in ("--nu", "--dispersion"):
        values.append("99999999999999999999")
    # a value wrongly taken starts at most a short fit: the tested flag comes last
    fit = [str(small_campaign_file(tmp_path)), "--iters", "20", "--threads", "1"]
    argv = [command, *(fit if command == "fit" else [])]
    for value in values:
        out = tmp_path / "never"
        assert main([*argv, flag, value, "--out", str(out)]) == 1, (flag, value)
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"bugsize {command}: error: argument {flag}: "
                                               "invalid "), (flag, value, err)
        assert f"value: '{value}'" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("message, printed", [("", "out of memory"),
                                              ("Unable to allocate 58.2 TiB", None)])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, message, printed):
    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(bugsize.simulate, "generate_campaign", out_of_memory)
    assert main(["simulate", "--missions", "1000000000000", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"bugsize: error: {printed or message}\n"
    assert not (tmp_path / "o").exists()


def test_fit_checks_out_dir_before_sampling(tmp_path, capsys, monkeypatch):
    def must_not_sample(*args):
        raise AssertionError("sampled before creating --out")

    monkeypatch.setattr(cli, "run_all", must_not_sample)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["fit", str(small_campaign_file(tmp_path)), "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bugsize: error: ") and str(blocker) in err


def test_fit_ceiling_below_detections(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    code = main(["fit", str(campaign_path), "--max-bugs", "2", "--iters", "50",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--nu", "nan"), ("--dispersion", "nan"),
                                         ("--dispersion", "inf")])
def test_fit_rejects_non_finite_model_values(tmp_path, capsys, flag, value):
    campaign_path = small_campaign_file(tmp_path)
    code, out = run_fit(tmp_path, campaign_path, extra=(flag, value))
    assert code == 1
    assert f"argument {flag}: invalid finite number value: '{value}'" in capsys.readouterr().err
    assert not (out / "draws.csv").exists()


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_dispersion_numpy_cannot_draw_from_is_named(tmp_path, capsys, command):
    # at dispersion 1e-40 numpy's negative binomial refuses to draw any size
    argv = {"fit": ["fit", str(small_campaign_file(tmp_path)), "--iters", "20"],
            "simulate": ["simulate"]}[command]
    assert main([*argv, "--dispersion", "1e-40", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bugsize: error: dispersion 1e-40 is too small for numpy's "
                          "negative-binomial size draw: ")


@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_certain_detection_prints_no_runtime_warning(tmp_path, command):
    # at nu = 1000 every size from 3 up has an infinite detection rate, which
    # means certain detection: numpy's overflow and nan warnings are not news
    argv = {"fit": ["fit", str(small_campaign_file(tmp_path)), "--iters", "20",
                    "--threads", "1"],
            "simulate": ["simulate"]}[command]
    src = str(Path(bugsize.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "bugsize", *argv, "--nu", "1000", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr
    assert "RuntimeWarning" not in run.stderr


def test_fit_strict_convergence_warning(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    # 20 sweeps leave these chains unmixed: the worst split R-hat is a number above
    # the fixed threshold, not the nan of a fit too short to check
    code, _ = run_fit(tmp_path, campaign_path, "warn", extra=("--iters", "20", "--strict"))
    assert code == 2
    captured = capsys.readouterr()
    worst = float(captured.out.split("worst split R-hat: ")[1].split()[0])
    assert worst > cli.RHAT_WARN
    assert f"exceeds {cli.RHAT_WARN}; consider more iterations" in captured.err
    code, _ = run_fit(tmp_path, campaign_path, "soft", extra=("--iters", "20"))
    assert code == 0


@pytest.mark.parametrize("extra", [("--iters", "3"), ("--chains", "1")],
                         ids=["three-iterations", "one-chain"])
def test_fit_without_rhat_is_not_reported_converged(tmp_path, capsys, extra):
    campaign_path = small_campaign_file(tmp_path)
    code, _ = run_fit(tmp_path, campaign_path, "strict", extra=(*extra, "--strict"))
    assert code == 2
    captured = capsys.readouterr()
    assert "worst split R-hat: nan" in captured.out
    assert "convergence was not checked" in captured.err
    assert "2 chains of at least 4 kept draws" in captured.err
    code, _ = run_fit(tmp_path, campaign_path, "soft", extra=extra)
    assert code == 0
    assert "convergence was not checked" in capsys.readouterr().err


def test_fit_deterministic_files(tmp_path):
    campaign_path = small_campaign_file(tmp_path)
    _, out1 = run_fit(tmp_path, campaign_path, "d1")
    _, out2 = run_fit(tmp_path, campaign_path, "d2")
    assert (out1 / "draws.csv").read_bytes() == (out2 / "draws.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


@pytest.mark.parametrize(
    "cpus, extra, workers",
    [(1, (), 1), (64, (), 3), (None, (), 1), (64, ("--threads", "2"), 2),
     (64, ("--threads", "1"), 1), (1, ("--threads", "2"), 1), (4, ("--threads", "5000"), 4),
     (None, ("--threads", "3"), 1)],
    ids=["one-cpu", "64-cpus", "no-cpu-count", "threads-2", "threads-1",
         "threads-2-on-one-cpu", "threads-5000-on-4-cpus", "threads-3-no-cpu-count"],
)
def test_fit_default_workers_one_per_chain_up_to_usable_cpus(
    tmp_path, monkeypatch, cpus, extra, workers
):
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    seen = []
    real_run_all = cli.run_all

    def record_then_run_serially(campaign, model_config, sampler_config):
        seen.append(sampler_config.workers)
        return real_run_all(campaign, model_config, replace(sampler_config, workers=1))

    monkeypatch.setattr(cli, "run_all", record_then_run_serially)
    code, _ = run_fit(tmp_path, small_campaign_file(tmp_path), extra=extra)
    assert code == 0 and seen == [workers]


def test_fit_default_matches_serial_files(tmp_path):
    campaign_path = small_campaign_file(tmp_path)
    _, default = run_fit(tmp_path, campaign_path, "default")
    _, serial = run_fit(tmp_path, campaign_path, "serial", extra=("--threads", "1"))
    for name in ("draws.csv", "report.json"):
        assert (default / name).read_bytes() == (serial / name).read_bytes()


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


def test_reliability_prints_each_threshold_as_the_csv_writes_it(tmp_path, capsys):
    _, out = run_fit(tmp_path, small_campaign_file(tmp_path))
    capsys.readouterr()
    assert main(["reliability", str(out / "draws.csv"), "--epsilon", "0.01,0.04",
                 "--out", str(out)]) == 0
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:3]]
    written = [line.split(",")[0] for line in
               (out / "reliability.csv").read_text().splitlines()[1:]]
    assert printed == written == ["0.01", "0.04"]


def test_reliability_rejects_nan_threshold(tmp_path, capsys):
    _, out = run_fit(tmp_path, small_campaign_file(tmp_path))
    capsys.readouterr()
    for grid in ("nan,100", "100,nan"):
        where = tmp_path / grid.replace(",", "_")
        assert main(["reliability", str(out / "draws.csv"), "--epsilon", grid,
                     "--out", str(where)]) == 1
        assert "nan" in capsys.readouterr().err
        assert not (where / "reliability.csv").exists()


def test_draws_of_a_seed_past_int64_read_back(tmp_path, capsys):
    # numpy seeds a fit from any non-negative integer, so no base seed is bounded
    code, out = run_fit(tmp_path, small_campaign_file(tmp_path), extra=("--seed", str(2**64)))
    assert code == 0
    assert f"base_seed={2**64}\n" in (out / "draws.csv").read_text()
    draws = str(out / "draws.csv")
    assert main(["reliability", draws, "--epsilon", "10", "--out", str(out)]) == 0
    assert main(["diagnose", draws, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


# ----------------------------------------------------------------- diagnose

def test_diagnose_prints_and_exports(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    _, out = run_fit(tmp_path, campaign_path)
    code = main(["diagnose", str(out / "draws.csv"), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "R-hat" in stdout and "ESS" in stdout
    # a default fit records only the posterior quantities, one trace file each
    lines = (out / "draws.csv").read_text().splitlines()
    header = lines.index("chain,iteration,parameter,value")
    assert {row.split(",")[2] for row in lines[header + 1:]} == {
        "inclusion_prob", "total_bugs", "remaining_size"}
    assert sorted(path.name for path in out.glob("trace_*.csv")) == [
        "trace_inclusion_prob.csv", "trace_remaining_size.csv", "trace_total_bugs.csv"]


@pytest.mark.parametrize("renames, refused", [
    # a[1] maps to trace_a_1.csv, so one trace file would overwrite the other
    ({"total_bugs": "a[1]", "inclusion_prob": "a_1"},
     "parameter names 'a_1', 'a[1]' map to one trace file name"),
    # a name of other characters could name any path; the reader refuses it
    ({"total_bugs": "../../escape"},
     "parameter name '../../escape' must be one or more ASCII letters, digits, '_', "
     "'[' or ']'"),
], ids=["clashing", "unsafe"])
def test_diagnose_refuses_trace_names_before_writing_any(tmp_path, capsys, renames, refused):
    code, fit = run_fit(tmp_path, small_campaign_file(tmp_path))
    assert code == 0
    draws = fit / "draws.csv"
    text = draws.read_text()
    for old, new in renames.items():
        text = text.replace(f",{old},", f",{new},")
    draws.write_text(text)
    capsys.readouterr()
    out = tmp_path / "traces"
    (out / "trace_..").mkdir(parents=True)  # where ../../escape would resolve
    assert main(["diagnose", str(draws), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bugsize: error: {draws}: {refused}\n"
    assert [path.name for path in out.iterdir()] == ["trace_.."]
    assert not list(tmp_path.glob("**/escape.csv"))


def test_diagnose_single_chain_rejected(tmp_path, capsys):
    campaign_path = small_campaign_file(tmp_path)
    out = tmp_path / "single"
    assert main(["fit", str(campaign_path), "--chains", "1", "--iters", "100",
                 "--max-bugs", "20", "--seed", "2", "--out", str(out)]) == 0
    assert main(["diagnose", str(out / "draws.csv"), "--out", str(out)]) == 1
    assert ">=2 chains" in capsys.readouterr().err


def test_diagnose_short_chains_rejected(tmp_path, capsys):
    draws = short_fit(tmp_path, small_campaign_file(tmp_path))
    capsys.readouterr()
    assert main(["diagnose", str(draws), "--out", str(tmp_path / "fresh")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"bugsize: error: {draws}: split R-hat needs at least 4 kept "
                            "draws per chain, the file holds 3\n")


# -------------------------------------------------------------- exit codes

def test_diagnose_malformed_draws(tmp_path, capsys):
    code, out = run_fit(tmp_path, small_campaign_file(tmp_path))
    assert code == 0
    draws = out / "draws.csv"
    lines = [l for l in draws.read_text().splitlines() if not l.startswith("1,199,")]
    draws.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["diagnose", str(draws), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # chain 1's first block ends a row early, so its next block starts too soon
    at = next(i for i, l in enumerate(lines) if l.startswith("1,100,total_bugs,"))
    assert (f"bugsize: error: {draws}:{at + 1}: expected a row starting "
            f"'1,199,inclusion_prob,', got {lines[at]!r}") in err


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
    assert (f"bugsize: error: {draws}:{at + 1}: the value of row '1,150,total_bugs,abc' "
            "must be a number") in err


def test_reliability_malformed_comment_line(tmp_path, capsys):
    code, out = run_fit(tmp_path, small_campaign_file(tmp_path))
    assert code == 0
    draws = out / "draws.csv"
    lines = draws.read_text().splitlines()
    lines[1] = lines[1].replace("burn_in=100", "burn_in=x")
    draws.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["reliability", str(draws), "--epsilon", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"bugsize: error: {draws}:2: meta field 'burn_in=x' must be an integer" in err


def test_usage_error_exits_one(capsys):
    assert main(["fit"]) == 1          # missing positional
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_entry_freezes_the_import_before_the_command(tmp_path, monkeypatch):
    # a command's process exits once the command returns; frozen, the objects
    # its imports made are not collected again at exit.  main() leaves the
    # collector as it found it, for callers that run commands in-process
    before = gc.get_freeze_count()
    assert main(["simulate", "--missions", "2", "--phases", "2", "--true-bugs", "3",
                 "--max-bugs", "5", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before
    frozen_at_main = []
    monkeypatch.setattr(cli, "main", lambda: frozen_at_main.append(gc.get_freeze_count()))
    try:
        with pytest.raises(SystemExit):
            cli.entry()
    finally:
        gc.unfreeze()
    assert frozen_at_main[0] > before


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
    assert bugsize.cli.main(["diagnose", draws, "--out", out]) == 0
    seen["diagnose"] = scipy_modules()
    assert bugsize.cli.main(["fit", campaign, "--chains", "2", "--iters", "40",
                             "--max-bugs", "10", "--out", out]) == 0
seen["fit"] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_command_loads_scipy(tmp_path):
    # importing scipy.special more than doubles a command's start-up time;
    # split R-hat's bound computes its quantiles with the standard library
    campaign_path = small_campaign_file(tmp_path)
    _, out = run_fit(tmp_path, campaign_path)
    src = str(Path(bugsize.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(out / "draws.csv"), str(campaign_path),
         str(tmp_path / "probe")],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(probe.stdout) == {
        "import": [], "reliability": [], "diagnose": [], "fit": []}


NB_LOG_PMF_PROBE = """
import bugsize
assert abs(bugsize.nb_log_pmf(0, 1.0, 1.0) + 0.6931471805599453) < 1e-15
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was importable")
"""


def test_cli_checks_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, the library
    # and the same end-to-end script that CI runs on the console script must work
    blocker = tmp_path / "no-scipy" / "scipy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text('raise ImportError("scipy is blocked")\n')
    src = str(Path(bugsize.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(blocker.parent), src])}
    for command in (
        [sys.executable, "-c", NB_LOG_PMF_PROBE],
        ["bash", str(Path(__file__).with_name("cli_end_to_end.sh")),
         sys.executable, "-m", "bugsize"],
    ):
        run = subprocess.run(command, capture_output=True, text=True, timeout=300, env=env)
        assert run.returncode == 0, run.stdout + run.stderr
