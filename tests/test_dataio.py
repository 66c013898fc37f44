import json

import numpy as np
import pytest

from bugsize.dataio import (
    build_report,
    read_campaign,
    read_draws,
    write_campaign,
    write_draws,
    write_reliability_curve,
    write_report,
    write_trace,
)
from bugsize.cli import main
from bugsize.datasets import SAMPLE_CAMPAIGN_CSV
from bugsize.diagnostics import summarize, trace_export
from bugsize.model import ModelConfig, TestCampaign
from bugsize.sampler import SamplerConfig, run_all
from helpers import make_chainset


@pytest.fixture
def small_chainset():
    campaign = TestCampaign(test_cases=[[6, 2]], bugs_detected=[[1, 1]])
    config = ModelConfig(max_bugs=8, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    return campaign, config, run_all(
        campaign, config,
        SamplerConfig(chains=3, iterations=40, burn_in=20, seed=60, track=(0, 1, 6, 7)),
    )


# ---------------------------------------------------------- campaign CSV

def test_read_campaign_sample_rows(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text(SAMPLE_CAMPAIGN_CSV)
    campaign = read_campaign(path)
    assert (campaign.missions, campaign.phases) == (2, 3)
    # published anchors: mission 1 phase 1 has 61 cases / 3 bugs, mission 2 has 59 / 9
    assert campaign.test_cases[0, 0] == 61 and campaign.bugs_detected[0, 0] == 3
    assert campaign.test_cases[1, 0] == 59 and campaign.bugs_detected[1, 0] == 9


def test_campaign_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    for _ in range(10):
        j, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        campaign = TestCampaign(
            test_cases=rng.integers(0, 99, size=(j, k)),
            bugs_detected=rng.integers(0, 5, size=(j, k)),
        )
        path = tmp_path / "roundtrip.csv"
        write_campaign(campaign, path)
        assert read_campaign(path) == campaign


def test_read_campaign_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("")
    with pytest.raises(ValueError, match="no rows"):
        read_campaign(path)

    path.write_text("mission,phase,test_cases,bugs_detected\n")
    with pytest.raises(ValueError, match="no rows"):
        read_campaign(path)

    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_campaign(path)

    path.write_text("mission,phase,test_cases,bugs_detected\nM1,1,5,0\nM1,1,6,0\n")
    with pytest.raises(ValueError, match=r"duplicate cell \(M1, 1\)"):
        read_campaign(path)

    path.write_text("mission,phase,test_cases,bugs_detected\nM1,1,5,0\nM2,2,6,0\n")
    with pytest.raises(ValueError, match=r"missing cell \(M1, 2\)"):
        read_campaign(path)

    path.write_text("mission,phase,test_cases,bugs_detected\nM1,1,-5,0\n")
    with pytest.raises(ValueError, match="negative"):
        read_campaign(path)

    path.write_text("mission,phase,test_cases,bugs_detected\nM1,1,many,0\n")
    with pytest.raises(ValueError, match="integers"):
        read_campaign(path)

    with pytest.raises(OSError):
        read_campaign(tmp_path / "missing.csv")


# --------------------------------------------------------------- draws CSV

def written_lines(tmp_path, chainset):
    """Write a chain set's draws file; return its path and its lines."""
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    return path, path.read_text().splitlines()


def rejection(path) -> str:
    with pytest.raises(ValueError) as err:
        read_draws(path)
    return str(err.value)


def test_draws_round_trip(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    loaded = read_draws(path)
    assert loaded.base_seed == chainset.base_seed
    assert loaded.iterations == chainset.iterations
    assert loaded.burn_in == chainset.burn_in
    assert loaded.thin == chainset.thin
    assert loaded.kept_iterations == chainset.kept_iterations == range(20, 40)
    assert loaded.names == chainset.names
    assert loaded.seed_keys() == chainset.seed_keys() == ["60:0", "60:1", "60:2"]
    assert loaded.acceptance == chainset.acceptance
    assert loaded.draws.shape == (3, 15, 20)
    assert loaded.draws.tobytes() == chainset.draws.tobytes()
    # trailing blank lines are not rows
    path.write_text(path.read_text() + "\n\n")
    assert read_draws(path).draws.tobytes() == chainset.draws.tobytes()


def test_fitted_draws_file_rewrites_byte_for_byte(tmp_path):
    # a CLI fit, so the meta, seed and acceptance lines are the real ones
    campaign = tmp_path / "campaign.csv"
    write_campaign(TestCampaign(test_cases=[[8, 3], [6, 2]], bugs_detected=[[2, 0], [1, 1]]),
                   campaign)
    assert main(["fit", str(campaign), "--chains", "2", "--iters", "60", "--burn-in", "20",
                 "--thin", "3", "--seed", "17", "--max-bugs", "12",
                 "--out", str(tmp_path)]) == 0
    fitted = tmp_path / "draws.csv"
    assert "# chain 1 seed=17:1 acceptance size=" in fitted.read_text()
    rewritten = tmp_path / "rewritten.csv"
    write_draws(read_draws(fitted), rewritten)
    assert rewritten.read_bytes() == fitted.read_bytes()


def test_draws_round_trip_numpy_scalar_acceptance(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    chainset.acceptance = [{k: np.float64(v) for k, v in acc.items()}
                           for acc in chainset.acceptance]
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    assert "np.float64" not in path.read_text()
    loaded = read_draws(path)
    assert loaded.acceptance == chainset.acceptance
    assert all(type(v) is float for acc in loaded.acceptance for v in acc.values())


def test_read_draws_rejects_interleaved_rows_at_the_first_out_of_order_line(
    tmp_path, small_chainset
):
    _, _, chainset = small_chainset
    path, lines = written_lines(tmp_path, chainset)
    at = lines.index("chain,iteration,parameter,value") + 1
    # one row per (iteration, chain, parameter): the second row is out of order
    rows = sorted(lines[at:], key=lambda row: (int(row.split(",")[1]), int(row.split(",")[0])))
    path.write_text("\n".join(lines[:at] + rows) + "\n")
    assert rows[0] == lines[at] and rows[1] != lines[at + 1]
    assert rejection(path) == (f"{path}:{at + 2}: expected a row starting "
                               f"'0,21,inclusion_prob,', got {rows[1]!r}")


def test_draws_row_count(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    n_params = len(chainset.names)
    assert len(rows) - 1 == 3 * 20 * n_params  # header + chains*kept*params


def test_draws_version_stamp(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    text = path.read_text().replace("bugsize-draws-v1", "bugsize-draws-v9")
    path.write_text(text)
    with pytest.raises(ValueError, match="version stamp"):
        read_draws(path)


def test_draws_empty_chainset(tmp_path):
    from bugsize.sampler import ChainSet

    empty = ChainSet(names=[], draws=np.empty((0, 0, 5)), acceptance=[],
                     base_seed=5, iterations=10, burn_in=5, thin=1)
    path = tmp_path / "empty.csv"
    write_draws(empty, path)
    loaded = read_draws(path)
    assert loaded.n_chains == 0 and loaded.base_seed == 5
    assert loaded.draws.shape == (0, 0, 5)


def test_read_draws_rejects_short_chain(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path, lines = written_lines(tmp_path, chainset)
    lines = [l for l in lines if not l.startswith("1,39,")]
    path.write_text("\n".join(lines) + "\n")
    # chain 1's first block ends a row early, so its next block starts too soon
    at = lines.index(next(l for l in lines if l.startswith("1,20,total_bugs,")))
    assert rejection(path) == (f"{path}:{at + 1}: expected a row starting "
                               f"'1,39,inclusion_prob,', got {lines[at]!r}")


def test_read_draws_rejects_missing_parameter(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path, lines = written_lines(tmp_path, chainset)
    lines = [l for l in lines if not (l.startswith("2,") and l.split(",")[2] == "total_bugs")]
    path.write_text("\n".join(lines) + "\n")
    at = lines.index(next(l for l in lines if l.startswith("2,20,remaining_size,")))
    assert rejection(path) == (f"{path}:{at + 1}: expected a row starting "
                               f"'2,20,total_bugs,', got {lines[at]!r}")


def test_read_draws_rejects_missing_chain(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path, lines = written_lines(tmp_path, chainset)
    kept = [l for l in lines if not l.startswith("2,")]
    path.write_text("\n".join(kept) + "\n")
    assert rejection(path) == (f"{path}:{len(kept) + 1}: expected a row starting "
                               "'2,20,inclusion_prob,', got the end of the file")
    # a header and no draw rows at all
    at = lines.index("chain,iteration,parameter,value") + 1
    path.write_text("\n".join(lines[:at]) + "\n")
    assert rejection(path) == (f"{path}:{at + 1}: expected a row starting '0,20,', "
                               "got the end of the file")


def test_read_draws_rejects_rows_after_the_last_chain(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path, lines = written_lines(tmp_path, chainset)
    path.write_text("\n".join(lines + ["", "3,20,inclusion_prob,0.5"]) + "\n")
    assert rejection(path) == (f"{path}:{len(lines) + 1}: expected the end of the draws, "
                               "got ''")


def test_read_draws_rejects_renamed_chain(tmp_path, small_chainset):
    # chain 2's rows carry the id 9: chain ids are positions, 0..chains-1
    _, _, chainset = small_chainset
    path, lines = written_lines(tmp_path, chainset)
    at = next(i for i, l in enumerate(lines) if l.startswith("2,"))
    lines = [("9," + l[2:]) if l.startswith("2,") else l for l in lines]
    path.write_text("\n".join(lines) + "\n")
    assert rejection(path) == (f"{path}:{at + 1}: expected a row starting "
                               f"'2,20,inclusion_prob,', got {lines[at]!r}")


@pytest.mark.parametrize(
    "line, new, message",
    [
        (4, "# chain 7 seed=60:2 acceptance size=0.5", "expected '# chain 2', got chain 7"),
        (4, "# chain 1 seed=60:1 acceptance size=0.5", "expected '# chain 2', got chain 1"),
        (2, "# chain 1 seed=60:1 acceptance size=0.5", "expected '# chain 0', got chain 1"),
    ],
    ids=["other-id", "repeated-id", "out-of-order"],
)
def test_read_draws_rejects_chain_lines_out_of_position(tmp_path, small_chainset, line, new,
                                                        message):
    _, _, chainset = small_chainset
    path, lines = written_lines(tmp_path, chainset)
    assert lines[line].startswith("# chain ")
    lines[line] = new
    path.write_text("\n".join(lines) + "\n")
    assert rejection(path) == f"{path}:{line + 1}: {message}"


def test_read_draws_rejects_a_missing_chain_line(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path, lines = written_lines(tmp_path, chainset)
    del lines[4]
    path.write_text("\n".join(lines) + "\n")
    assert rejection(path) == f"{path}: has 2 '# chain' lines, its meta line counts 3 chains"


def test_read_draws_rejects_a_repeated_parameter(tmp_path, small_chainset):
    # every chain's total_bugs block renamed: the blocks agree, but a name repeats
    _, _, chainset = small_chainset
    path, lines = written_lines(tmp_path, chainset)
    path.write_text("\n".join(l.replace(",total_bugs,", ",inclusion_prob,") for l in lines) + "\n")
    assert rejection(path) == f"{path}: parameter 'inclusion_prob' repeats"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("# meta chains=3 iterations=40 burn_in=20 thin=1 base_seed=60\n", "",
         ": no '# meta' line gives chains, iterations, burn_in, thin, base_seed"),
        (" base_seed=60", "", ": no '# meta' line gives base_seed"),
        ("thin=1", "thin=0", ": meta thin must be >= 1, got 0"),
        ("burn_in=20", "burn_in=10", ":{first}: expected a row starting '0,10,', got {first_row}"),
        ("\n0,25,total_bugs,", "\n0,26,total_bugs,",
         ":{edited}: expected a row starting '0,25,total_bugs,', got {edited_row}"),
        ("burn_in=20", "burn_in=40", ": the meta line keeps no iterations: range(40, 40)"),
    ],
    ids=["no-meta-line", "no-base-seed", "thin-0", "other-burn-in", "off-grid-row",
         "no-kept-iterations"],
)
def test_read_draws_checks_iterations_against_meta(tmp_path, small_chainset, old, new, message):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    lines, changed = text.splitlines(), path.read_text().splitlines()
    first = lines.index("chain,iteration,parameter,value") + 1
    edited = next(i for i, (a, b) in enumerate(zip(lines, changed)) if a != b)
    assert rejection(path) == f"{path}" + message.format(
        first=first + 1, first_row=repr(lines[first]),
        edited=edited + 1, edited_row=repr(changed[edited]))


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,25,total_bugs,abc",
         "the value of row '1,25,total_bugs,abc' must be a number"),
        ("1,25,total_bugs",
         "expected a row starting '1,25,total_bugs,', got '1,25,total_bugs'"),
        # float() reads these (1_0 as 10.0); repr of a finite float is none of them
        *((f"1,25,total_bugs,{v}", f"the value of row '1,25,total_bugs,{v}' must be a number")
          for v in ("nan", "inf", "-inf", "1_0", "0.5_5")),
    ],
    ids=["non-numeric-value", "three-fields", "nan", "inf", "minus-inf", "grouped-int",
         "grouped-fraction"],
)
def test_read_draws_names_file_and_line_of_malformed_row(tmp_path, small_chainset, row, message):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    lines = path.read_text().splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith("1,25,total_bugs,"))
    lines[at] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_draws(path)
    assert str(err.value) == f"{path}:{at + 1}: {message}"


@pytest.mark.parametrize(
    "line, old, new, message",
    [
        (1, "burn_in=20", "burn_in=x", "meta field 'burn_in=x' must be an integer"),
        (1, "chains=3", "chains", "meta field 'chains' must be an integer"),
        (2, "# chain 0 ", "# chain zero ", "chain id 'zero' must be an integer"),
        (3, None, "# chain 1 seed=60:1 acceptance size=abc",
         "acceptance 'size=abc' must be a number"),
        (4, None, "# chain ", "chain line names no chain"),
        (1, "burn_in=20", "burn_in=2_0", "meta field 'burn_in=2_0' must be an integer"),
        (2, "# chain 0 ", "# chain 0_0 ", "chain id '0_0' must be an integer"),
        (3, None, "# chain 1 seed=60:1 acceptance size=nan",
         "acceptance 'size=nan' must be a number"),
        (3, None, "# chain 1 seed=60:1 acceptance size=inf",
         "acceptance 'size=inf' must be a number"),
    ],
    ids=["meta-value", "meta-token", "chain-id", "acceptance", "empty-chain-line",
         "meta-grouped", "chain-id-grouped", "acceptance-nan", "acceptance-inf"],
)
def test_read_draws_names_file_and_line_of_malformed_comment(
    tmp_path, small_chainset, line, old, new, message
):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    lines = path.read_text().splitlines()
    lines[line] = new if old is None else lines[line].replace(old, new, 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_draws(path)
    assert str(err.value) == f"{path}:{line + 1}: {message}"


# ------------------------------------------------------------ report JSON

def test_report_document_round_trip(tmp_path, small_chainset):
    campaign, config, chainset = small_chainset
    report = summarize(chainset)
    doc = build_report(report, chainset, config)
    path = tmp_path / "report.json"
    write_report(doc, path)
    loaded = json.loads(path.read_text())
    assert loaded["format"] == "bugsize-report-v2"
    assert loaded["config"]["model"]["max_bugs"] == config.max_bugs
    assert loaded["config"]["sampler"] == {
        "chains": 3, "iterations": 40, "burn_in": 20, "thin": 1, "seed": 60}
    assert loaded["seeds"]["chains"] == ["60:0", "60:1", "60:2"]
    assert loaded["credible_mass"] == 0.95
    assert set(loaded["parameters"]) == set(chainset.names)
    psi = loaded["parameters"]["inclusion_prob"]
    assert psi["pooled_mean"] == report["inclusion_prob"].pooled_mean
    assert len(psi["chain_means"]) == 3


def test_report_single_parameter_block(tmp_path):
    chainset = make_chainset({"inclusion_prob": np.random.default_rng(62).uniform(size=(2, 30))})
    report = summarize(chainset)
    doc = build_report(report, chainset, ModelConfig(max_bugs=10))
    path = tmp_path / "one.json"
    write_report(doc, path)
    loaded = json.loads(path.read_text())
    assert list(loaded["parameters"]) == ["inclusion_prob"]


def test_report_requires_stamp_and_writable_path(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_report({}, tmp_path / "x.json")
    with pytest.raises(OSError):
        write_report({"format": "bugsize-report-v1"}, tmp_path)  # a directory


def test_report_none_for_nonfinite(tmp_path):
    doc = {"format": "bugsize-report-v1", "value": float("nan"), "other": float("inf")}
    path = tmp_path / "nan.json"
    write_report(doc, path)
    loaded = json.loads(path.read_text())
    assert loaded["value"] is None and loaded["other"] is None


# ----------------------------------------------------------- trace / curve

def test_trace_csv_round_trip(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    records = trace_export(chainset, "inclusion_prob")
    path = tmp_path / "trace.csv"
    write_trace(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "chain,iteration,value"
    parsed = [
        (int(c), int(i), float(v))
        for c, i, v in (line.split(",") for line in lines[1:])
    ]
    assert parsed == records


def test_reliability_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_reliability_curve([(100.0, 0.25), (200.0, 0.75)], path)
    assert path.read_text() == "epsilon,probability\n100.0,0.25\n200.0,0.75\n"
