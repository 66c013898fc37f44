import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from bugsize.diagnostics import (
    RHAT_CONFIDENCE,
    _f_isf,
    effective_sample_size,
    split_rhat,
    summarize,
    trace_export,
    worst_rhat,
)
from helpers import ar1, make_chainset


# ------------------------------------------------------------- split R-hat

def test_split_rhat_identical_chains_hand_value():
    # two copies of [0,1,2,3]: split halves have means .5,.5,2.5,2.5 and
    # within-variance .5, giving sqrt(((n-1)/n*W + B/n)/W) = sqrt(19/6)
    chains = np.vstack([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]])
    rhat, upper = split_rhat(chains)
    assert abs(rhat - np.sqrt(19.0 / 6.0)) < 1e-12
    assert upper >= rhat


def test_split_rhat_disjoint_supports():
    chains = np.vstack([np.zeros(100), np.ones(100)])
    rhat, upper = split_rhat(chains)
    assert rhat > 1.1 and np.isinf(rhat) and np.isinf(upper)


def test_split_rhat_constant_chains():
    assert split_rhat(np.ones((3, 50))) == (1.0, 1.0)


def test_split_rhat_iid_near_one():
    rng = np.random.default_rng(31)
    rhat, upper = split_rhat(rng.standard_normal((3, 25_000)))
    assert 1.0 <= rhat <= 1.01
    assert rhat <= upper <= 1.02


def test_split_rhat_never_below_one():
    rng = np.random.default_rng(32)
    for _ in range(20):
        chains = rng.standard_normal((rng.integers(2, 5), rng.integers(4, 200)))
        rhat, upper = split_rhat(chains)
        assert rhat >= 1.0 - 1e-9
        assert upper >= rhat


def test_split_rhat_non_finite_draw_is_nan():
    # max(1.0, nan) is 1.0, so a nan draw must be caught before the floor
    rng = np.random.default_rng(33)
    for bad in (np.nan, np.inf, -np.inf):
        chains = rng.standard_normal((3, 100))
        chains[1, 40] = bad
        rhat, upper = split_rhat(chains)
        assert np.isnan(rhat) and np.isnan(upper)
        with np.errstate(invalid="ignore"):  # an infinite draw's sd and ESS are nan too
            report = summarize(make_chainset({"good": rng.standard_normal((3, 100)),
                                              "broken": chains}))
        assert worst_rhat(report)[0] == "broken"


def stats_rhat_upper(x, confidence=0.975):
    """Split R-hat's upper bound with the scipy.stats quantiles (reference)."""
    n = x.shape[1] // 2
    seqs = np.concatenate([x[:, :n], x[:, x.shape[1] - n :]], axis=0)
    variances = seqs.var(axis=1, ddof=1)
    w = float(variances.mean())
    ratio = float(n * seqs.mean(axis=1).var(ddof=1)) / (n * w)
    n_seq = seqs.shape[0]
    var_w = float(variances.var(ddof=1)) / n_seq
    if var_w == 0.0:
        f_quantile = float(stats.chi2.ppf(confidence, n_seq - 1)) / (n_seq - 1)
    else:
        f_quantile = float(stats.f.ppf(confidence, n_seq - 1, 2.0 * w * w / var_w))
    upper = float(np.sqrt((n - 1) / n + f_quantile * ratio))
    return max(upper, max(1.0, float(np.sqrt((n - 1) / n + ratio))))


def test_split_rhat_upper_matches_scipy_stats():
    rng = np.random.default_rng(33)
    cases = []
    for _ in range(50):
        k, length = rng.integers(2, 6), rng.integers(4, 300)
        cases.append(rng.standard_normal((k, length)) + rng.uniform(0.0, 0.5, (k, 1)))
    # var_w == 0: every split half has the same variance, the means differ
    halves = np.vstack([[0.0, 1.0, 0.0, 1.0, 5.0, 6.0, 5.0, 6.0],
                        [2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0]])
    cases.append(halves)
    # scipy's quantiles are Boost's; an independent one agrees to the last bits
    for x in cases:
        assert split_rhat(x)[1] == pytest.approx(stats_rhat_upper(x), rel=1e-14, abs=0.0)


ALPHA = 1.0 - RHAT_CONFIDENCE


@pytest.mark.parametrize("dfn", range(1, 17, 2))
def test_f_quantile_matches_scipy_stats(dfn):
    dfds = [0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.5, 10.0, 19.9, 20.0, 47.3, 100.0, 1e3, 1e4,
            1e6, 1e9, 2e9, 1e12, 1e15]
    for dfd in dfds:
        assert _f_isf(ALPHA, dfn, dfd) == pytest.approx(
            stats.f.isf(ALPHA, dfn, dfd), rel=1e-12, abs=0.0), dfd
    # an infinite denominator is the chi-square limit, split R-hat's var_w == 0 case
    assert _f_isf(ALPHA, dfn, math.inf) * dfn == pytest.approx(
        stats.chi2.isf(ALPHA, dfn), rel=1e-12, abs=0.0)


def test_quantiles_match_closed_forms():
    # F(1, 1) is the square of a standard Cauchy variate, chi2(1) of a standard normal one
    assert _f_isf(ALPHA, 1, 1.0) == pytest.approx(
        math.tan((1.0 - ALPHA) * math.pi / 2.0) ** 2, rel=1e-13, abs=0.0)
    assert _f_isf(ALPHA, 1, math.inf) == pytest.approx(
        NormalDist().inv_cdf(1.0 - ALPHA / 2.0) ** 2, rel=1e-13, abs=0.0)


def test_split_rhat_input_validation():
    with pytest.raises(ValueError, match="two chains"):
        split_rhat(np.ones((1, 50)))
    with pytest.raises(ValueError, match="at least 4"):
        split_rhat(np.ones((2, 3)))
    with pytest.raises(ValueError, match="same length"):
        split_rhat([np.ones(10), np.ones(8)])


# -------------------------------------------------- effective sample size

def test_ess_iid_chains():
    rng = np.random.default_rng(505)
    ess = effective_sample_size(rng.standard_normal((3, 25_000)))
    assert 67_500 <= ess <= 82_500


def test_ess_ar1_matches_theory():
    rng = np.random.default_rng(11)
    rho = 0.9
    chains = ar1(rng, 3, 20_000, rho)
    analytic = chains.size * (1.0 - rho) / (1.0 + rho)
    assert abs(effective_sample_size(chains) - analytic) / analytic < 0.10


def test_ess_alternating_exceeds_draw_count():
    chains = np.tile(np.array([1.0, -1.0] * 5000), (3, 1))
    ess = effective_sample_size(chains)
    assert ess > chains.shape[1]
    assert ess <= 2.0 * chains.size


def test_ess_constant_chains():
    chains = np.full((3, 200), 7.0)
    assert effective_sample_size(chains) == chains.size


def test_ess_bounded():
    rng = np.random.default_rng(33)
    for _ in range(20):
        chains = ar1(rng, 3, 500, rng.uniform(-0.95, 0.95))
        ess = effective_sample_size(chains)
        assert 0.0 < ess <= 2.0 * chains.size


# ---------------------------------------------------------------- summary

def test_summarize_constant_draws():
    cs = make_chainset({"total_bugs": np.full((3, 100), 61.0)})
    s = summarize(cs)["total_bugs"]
    assert s.chain_means == (61.0, 61.0, 61.0)
    assert s.chain_sds == (0.0, 0.0, 0.0)
    assert s.chain_cvs == (0.0, 0.0, 0.0)
    assert (s.ci_lower, s.ci_upper) == (61.0, 61.0)


def test_summarize_pooled_mean_is_weighted_chain_mean():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((3, 500)) + 5.0
    cs = make_chainset({"inclusion_prob": x})
    s = summarize(cs)["inclusion_prob"]
    weighted = float(np.average(x.mean(axis=1), weights=[500, 500, 500]))
    assert s.pooled_mean == weighted
    assert abs(s.pooled_mean - x.mean()) < 1e-12
    assert s.ci_lower <= s.ci_upper


def test_summarize_cv_definition():
    rng = np.random.default_rng(35)
    x = np.abs(rng.standard_normal((2, 400))) + 10.0
    s = summarize(make_chainset({"p": x}))["p"]
    for mean, sd, cv in zip(s.chain_means, s.chain_sds, s.chain_cvs):
        assert abs(cv - 100.0 * sd / mean) < 1e-12


def test_summarize_credible_interval_quantiles():
    rng = np.random.default_rng(36)
    x = rng.standard_normal((3, 2000))
    s = summarize(make_chainset({"p": x}))["p"]
    lo, hi = np.quantile(x.reshape(-1), [0.025, 0.975])
    assert s.ci_lower == lo and s.ci_upper == hi


def test_summarize_empty_rejected():
    cs = make_chainset({"p": np.ones((0, 10))})
    with pytest.raises(ValueError):
        summarize(cs)


def test_worst_rhat_points_at_stuck_parameter():
    rng = np.random.default_rng(37)
    good = rng.standard_normal((2, 400))
    bad = np.vstack([np.zeros(400), np.ones(400)])
    report = summarize(make_chainset({"good": good, "bad": bad}))
    name, value = worst_rhat(report)
    assert name == "bad" and value > 1.1


def test_worst_rhat_is_nan_when_any_rhat_is_nan():
    rng = np.random.default_rng(38)
    # a nan listed after an infinite factor still wins
    report = summarize(make_chainset({"stuck": np.vstack([np.zeros(400), np.ones(400)]),
                                      "unchecked": rng.standard_normal((2, 400))}))
    assert report["stuck"].rhat == float("inf")
    report["unchecked"] = replace(report["unchecked"], rhat=float("nan"))
    name, value = worst_rhat(report)
    assert name == "unchecked" and np.isnan(value)


# ----------------------------------------------------------- trace export

def test_trace_export_shape_and_order():
    x = np.arange(6, dtype=float).reshape(2, 3)
    cs = make_chainset({"inclusion_prob": x}, burn_in=10)
    records = trace_export(cs, "inclusion_prob")
    assert len(records) == 6
    assert records == [
        (0, 10, 0.0), (0, 11, 1.0), (0, 12, 2.0),
        (1, 10, 3.0), (1, 11, 4.0), (1, 12, 5.0),
    ]


def test_trace_export_unknown_parameter():
    cs = make_chainset({"inclusion_prob": np.ones((2, 3))})
    with pytest.raises(KeyError, match="inclusion_prob"):
        trace_export(cs, "nope")


def test_trace_export_histogram_support():
    rng = np.random.default_rng(38)
    x = rng.uniform(size=(3, 200))
    cs = make_chainset({"inclusion_prob": x})
    values = [v for _, _, v in trace_export(cs, "inclusion_prob")]
    counts, _ = np.histogram(values, bins=20)
    assert counts.sum() == 600
