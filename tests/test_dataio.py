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
from bugsize.diagnostics import summarize, trace_export
from bugsize.model import ModelConfig, TestCampaign
from bugsize.sampler import ChainSet, SamplerConfig
from helpers import make_chainset, run_with_candidate_rows, same_campaign


@pytest.fixture
def small_chainset():
    campaign = TestCampaign(test_cases=[[6, 2]], bugs_detected=[[1, 1]])
    config = ModelConfig(max_bugs=8, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    # three posterior rows and twelve per-candidate ones, as earlier versions wrote them
    scfg = SamplerConfig(chains=3, iterations=40, burn_in=20, seed=60)
    return campaign, config, run_with_candidate_rows(campaign, config, scfg, (0, 1, 6, 7))


# ---------------------------------------------------------- campaign CSV

def test_read_campaign_sample_rows(tmp_path):
    path = tmp_path / "sample.csv"
    # the published sample cells of the flight-software log (mission, phase, cases, bugs)
    path.write_text(
        "mission,phase,test_cases,bugs_detected\n"
        "M1,1,61,3\nM1,2,10,0\nM1,8,38,0\n"
        "M2,1,59,9\nM2,2,10,0\nM2,8,65,0\n"
    )
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
        assert same_campaign(read_campaign(path), campaign)


def test_read_campaign_skips_a_byte_order_mark(tmp_path):
    # spreadsheets write UTF-8 CSV with a byte-order mark before the header
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_campaign(TestCampaign(test_cases=[[8, 3], [6, 2]], bugs_detected=[[2, 0], [1, 1]]),
                   plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert same_campaign(read_campaign(marked), read_campaign(plain))


def test_read_campaign_counts_a_leading_newline_as_line_one(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\nmission,phase,test_cases,bugs_detected\nM1,1,8,\xff\n")
    with pytest.raises(ValueError) as err:
        read_campaign(path)
    assert str(err.value) == f"{path}:3: not UTF-8 text (invalid start byte)"


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
    with pytest.raises(ValueError, match=r"bad.csv:3: duplicate cell \(M1, 1\)"):
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


@pytest.mark.parametrize("field", [1, 2, 3])
@pytest.mark.parametrize("value", ["1_0", "99999999999999999999", "-9223372036854775809",
                                   "nan", "inf", "1.5", ""])
def test_read_campaign_reads_numbers_by_the_draws_reader_rule(tmp_path, field, value):
    row = ["M1", "2", "10", "0"]
    row[field] = value
    path = tmp_path / "bad.csv"
    path.write_text(f"mission,phase,test_cases,bugs_detected\nM1,1,5,1\n{','.join(row)}\n")
    with pytest.raises(ValueError) as err:
        read_campaign(path)
    assert str(err.value) == f"{path}:3: counts must be integers"


@pytest.mark.parametrize(
    "records, message",
    [("M1,1,5,0\nM1,2,x,0", "4: counts must be integers"),
     ("M1,1,5,0\nM1,2,5", "4: expected 4 fields, got 3"),
     ("M1,1,5,0\nM1,1,6,0", "4: duplicate cell (M1, 1)"),
     # a quoted mission name that spans lines 3 and 4: the record starts on line 3
     ('"M\n1",1,5,x\nM1,2,5,0', "3: counts must be integers")],
    ids=["bad-count", "field-count", "duplicate-cell", "quoted-across-lines"],
)
def test_read_campaign_names_the_line_after_a_blank_line(tmp_path, records, message):
    # line 2 is blank; an error names the line its record starts on
    path = tmp_path / "blank.csv"
    path.write_text(f"mission,phase,test_cases,bugs_detected\n\n{records}\n")
    with pytest.raises(ValueError) as err:
        read_campaign(path)
    assert str(err.value) == f"{path}:{message}"


def test_read_campaign_takes_counts_up_to_int64(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("mission,phase,test_cases,bugs_detected\n"
                    "M1,-9223372036854775808,9223372036854775807,0\n")
    campaign = read_campaign(path)
    assert campaign.t_max == 2**63 - 1 and campaign.detected_total == 0


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
    assert loaded.kept_iterations == chainset.kept_iterations == range(20, 40)
    assert loaded.names == chainset.names
    assert loaded.seed_keys() == chainset.seed_keys() == ["60:0", "60:1", "60:2"]
    assert loaded.acceptance == chainset.acceptance
    assert loaded.draws.shape == (3, 15, 20)
    assert loaded.draws.tobytes() == chainset.draws.tobytes()
    # trailing blank lines are not rows
    written = path.read_text()
    path.write_text(written + "\n\n")
    assert read_draws(path).draws.tobytes() == chainset.draws.tobytes()
    # other comment lines before the header are skipped
    path.write_text(written.replace("\n# meta ", "\n# note: kept by hand\n# meta ", 1))
    write_draws(read_draws(path), tmp_path / "rewritten.csv")
    assert (tmp_path / "rewritten.csv").read_text() == written


def test_fitted_draws_file_rewrites_byte_for_byte(tmp_path):
    # a CLI fit, so the meta, seed and acceptance lines are the real ones
    campaign = tmp_path / "campaign.csv"
    write_campaign(TestCampaign(test_cases=[[8, 3], [6, 2]], bugs_detected=[[2, 0], [1, 1]]),
                   campaign)
    assert main(["fit", str(campaign), "--chains", "2", "--iters", "60", "--burn-in", "20",
                 "--seed", "17", "--max-bugs", "12", "--out", str(tmp_path)]) == 0
    fitted = tmp_path / "draws.csv"
    assert "# chain 1 seed=17:1 acceptance size=" in fitted.read_text()
    rewritten = tmp_path / "rewritten.csv"
    write_draws(read_draws(fitted), rewritten)
    assert rewritten.read_bytes() == fitted.read_bytes()


@pytest.mark.parametrize("command, extra", [("diagnose", ()),
                                            ("reliability", ("--epsilon", "10,40"))],
                         ids=["diagnose", "reliability"])
def test_thinned_draws_file_is_refused(tmp_path, capsys, command, extra):
    # a fit keeps every sweep from its burn-in on; a file that keeps every
    # third one is refused at its meta line, before anything is written
    rng = np.random.default_rng(29)
    chainset = ChainSet(names=["inclusion_prob", "total_bugs", "remaining_size"],
                        draws=rng.uniform(0.0, 50.0, size=(3, 3, 15)),
                        acceptance=[{"size": 0.5, "mean_size": 0.25}] * 3,
                        base_seed=4, iterations=20, burn_in=5)
    path = tmp_path / "draws.csv"
    write_draws(chainset, path)
    text = path.read_text()
    assert "\n# meta chains=3 iterations=20 burn_in=5 thin=1 base_seed=4\n" in text
    # what an earlier fit --thin 3 wrote: the rows of sweeps 5, 8, 11, 14 and 17
    thinned = [l for l in text.splitlines(keepends=True)
               if not l[0].isdigit() or int(l.split(",")[1]) % 3 == 2]
    path.write_text("".join(thinned).replace(" thin=1 ", " thin=3 "))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, str(path), *extra, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bugsize: error: {path}:2: meta thin must be 1, got 3\n"
    assert not out.exists()


def test_per_candidate_draws_file_reads_and_postprocesses(tmp_path):
    # earlier versions could record a candidate's include[i], size[i] and
    # mean_size[i] rows; their files still read, rewrite and diagnose
    rng = np.random.default_rng(33)
    rows = {"inclusion_prob": rng.uniform(size=(2, 6)),
            "total_bugs": rng.integers(3, 9, size=(2, 6)),
            "remaining_size": rng.integers(0, 40, size=(2, 6)),
            "include[0]": np.ones((2, 6)), "include[5]": rng.integers(0, 2, size=(2, 6)),
            "size[0]": rng.integers(1, 30, size=(2, 6)),
            "size[5]": rng.integers(0, 30, size=(2, 6)),
            "mean_size[0]": rng.gamma(2.0, size=(2, 6)),
            "mean_size[5]": rng.gamma(2.0, size=(2, 6))}
    chainset = make_chainset(rows, burn_in=4)
    path, rewritten = tmp_path / "draws.csv", tmp_path / "rewritten.csv"
    write_draws(chainset, path)
    loaded = read_draws(path)
    assert loaded.names == list(rows)
    assert loaded.draws.tobytes() == chainset.draws.tobytes()
    write_draws(loaded, rewritten)
    assert rewritten.read_bytes() == path.read_bytes()
    out = tmp_path / "out"
    assert main(["diagnose", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("trace_*.csv")) == [
        "trace_include_0.csv", "trace_include_5.csv", "trace_inclusion_prob.csv",
        "trace_mean_size_0.csv", "trace_mean_size_5.csv", "trace_remaining_size.csv",
        "trace_size_0.csv", "trace_size_5.csv", "trace_total_bugs.csv"]
    trace = (out / "trace_size_5.csv").read_text().splitlines()
    assert trace[1:] == [f"{c},{4 + k},{float(rows['size[5]'][c, k])!r}"
                         for c in range(2) for k in range(6)]
    assert main(["reliability", str(path), "--epsilon", "10", "--out", str(out)]) == 0


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
                     base_seed=5, iterations=10, burn_in=5)
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
    assert rejection(path) == f"{path}:2: has 2 '# chain' lines, its meta line counts 3 chains"


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
        ("thin=1", "thin=0", ":{edited}: meta thin must be 1, got 0"),
        ("burn_in=20", "burn_in=10", ":{first}: expected a row starting '0,10,', got {first_row}"),
        ("\n0,25,total_bugs,", "\n0,26,total_bugs,",
         ":{edited}: expected a row starting '0,25,total_bugs,', got {edited_row}"),
        ("burn_in=20", "burn_in=40", ":{edited}: the meta line keeps no iterations: range(40, 40)"),
        # checked against the rows before any array is sized: not 22 TiB of draws
        ("iterations=40", "iterations=1000000000000",
         ":{after_block}: expected a row starting '0,40,inclusion_prob,', got {after_block_row}"),
        ("iterations=40", "iterations=99999999999999999999",
         ":{edited}: meta field 'iterations=99999999999999999999' must be an integer"),
        # numpy seeds from any non-negative integer, and from no negative one
        ("base_seed=60", "base_seed=-1",
         ":{edited}: meta field 'base_seed=-1' must be a non-negative integer"),
        # 2**64 - 1 kept iterations, more than len() can return
        ("iterations=40 burn_in=20", "iterations=9223372036854775807 burn_in=-9223372036854775808",
         ":{edited}: meta burn_in must be >= 0, got -9223372036854775808"),
    ],
    ids=["no-meta-line", "no-base-seed", "thin-0", "other-burn-in", "off-grid-row",
         "no-kept-iterations", "iterations-past-the-rows", "iterations-past-int64",
         "negative-base-seed", "negative-burn-in"],
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
        edited=edited + 1, edited_row=repr(changed[edited]),
        after_block=first + 21, after_block_row=repr(lines[first + 20]))


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
    doc = {"format": "bugsize-report-v1", "value": float("nan"), "other": float("inf"),
           "count": np.int64(3), "ceiling": np.float64("inf")}
    path = tmp_path / "nan.json"
    write_report(doc, path)
    loaded = json.loads(path.read_text())
    assert loaded["value"] is None and loaded["other"] is None
    assert loaded["count"] == 3 and type(loaded["count"]) is int
    assert loaded["ceiling"] is None


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
