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
        SamplerConfig(chains=3, iterations=40, burn_in=20, seed=60),
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

def test_draws_round_trip(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    loaded = read_draws(path)
    assert loaded.base_seed == chainset.base_seed
    assert loaded.iterations == chainset.iterations
    assert loaded.burn_in == chainset.burn_in
    assert loaded.thin == chainset.thin
    assert loaded.parameters() == chainset.parameters()
    for original, parsed in zip(chainset.chains, loaded.chains):
        assert parsed.chain == original.chain
        assert parsed.seed_key == original.seed_key
        assert parsed.acceptance == original.acceptance
        assert np.array_equal(parsed.iterations, original.iterations)
        for name in original.draws:
            assert np.array_equal(parsed.draws[name], original.draws[name])


def test_draws_row_count(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    n_params = len(chainset.parameters())
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

    empty = ChainSet(chains=[], base_seed=5, iterations=10, burn_in=5, thin=1)
    path = tmp_path / "empty.csv"
    write_draws(empty, path)
    loaded = read_draws(path)
    assert loaded.n_chains == 0 and loaded.base_seed == 5


def test_read_draws_rejects_short_chain(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    last = chainset.chains[1].iterations[-1]
    lines = [l for l in path.read_text().splitlines() if not l.startswith(f"1,{last},")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_draws(path)
    assert str(err.value) == f"{path}: chain 1 has 19 draws of 'inclusion_prob', chain 0 has 20"


def test_read_draws_rejects_missing_parameter(tmp_path, small_chainset):
    _, _, chainset = small_chainset
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    lines = [
        l for l in path.read_text().splitlines()
        if not (l.startswith("2,") and l.split(",")[2] == "total_bugs")
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_draws(path)
    assert str(err.value) == f"{path}: chain 2 has no draws of 'total_bugs'"


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,25,total_bugs,abc",
         "chain and iteration must be integers and value a number, got '1,25,total_bugs,abc'"),
        ("1,25,total_bugs", "expected 4 fields (chain,iteration,parameter,value), got 3"),
    ],
    ids=["non-numeric-value", "three-fields"],
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


# ------------------------------------------------------------ report JSON

def test_report_document_round_trip(tmp_path, small_chainset):
    campaign, config, chainset = small_chainset
    report = summarize(chainset)
    scfg = SamplerConfig(chains=3, iterations=40, burn_in=20, seed=60)
    doc = build_report(report, chainset, config, scfg,
                       reliability={"epsilon": [10.0, 20.0], "pooled": [0.5, 0.9]})
    path = tmp_path / "report.json"
    write_report(doc, path)
    loaded = json.loads(path.read_text())
    assert loaded["format"] == "bugsize-report-v2"
    assert loaded["config"]["model"]["max_bugs"] == config.max_bugs
    assert loaded["config"]["sampler"]["seed"] == 60
    assert loaded["seeds"]["chains"] == ["60:0", "60:1", "60:2"]
    assert loaded["reliability"]["epsilon"] == [10.0, 20.0]
    assert set(loaded["parameters"]) == set(chainset.parameters())
    psi = loaded["parameters"]["inclusion_prob"]
    assert psi["pooled_mean"] == report["inclusion_prob"].pooled_mean
    assert len(psi["chain_means"]) == 3


def test_report_single_parameter_block(tmp_path):
    chainset = make_chainset({"inclusion_prob": np.random.default_rng(62).uniform(size=(2, 30))})
    report = summarize(chainset)
    doc = build_report(
        report, chainset,
        ModelConfig(max_bugs=10), SamplerConfig(chains=2, iterations=30, burn_in=0),
    )
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
