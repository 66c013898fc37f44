"""Acceptance suite: one test per release criterion, one PASS/FAIL line each,
and a test that pins the bytes of criterion 7's files.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every tolerance is fixed here, not tuned at runtime.
"""

import contextlib
import hashlib
import time

import numpy as np
from scipy import stats
from scipy.special import betaln

from bugsize.cli import main
from bugsize.datasets import flight_software_campaign
from bugsize.diagnostics import effective_sample_size, split_rhat, summarize
from bugsize.model import ModelConfig, TestCampaign
from bugsize.reliability import reliability_curve
from bugsize.sampler import SamplerConfig, draw_inclusion_prob, run_all
from bugsize.simulate import generate_campaign
from helpers import ar1, flat_likelihood, gamma_mixed_size_pmf, run_with_candidate_rows


@contextlib.contextmanager
def criterion(name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.time() - start:.1f}s)")


def tv_discrete(draws, pmf):
    draws = np.asarray(draws, dtype=int)
    hist = np.bincount(np.minimum(draws, len(pmf) - 1), minlength=len(pmf))
    return 0.5 * np.abs(hist / draws.size - pmf).sum()


def test_criterion_1_inclusion_prob_conjugacy():
    with criterion("1 inclusion-prob conjugacy"):
        start = time.time()
        rng = np.random.default_rng(42)
        draws = np.array([draw_inclusion_prob(100, 400, rng) for _ in range(10_000)])
        elapsed = time.time() - start
        _, pvalue = stats.kstest(draws, stats.beta(101, 301).cdf)
        assert pvalue > 0.01
        assert abs(draws.mean() - 101.0 / 402.0) < 0.005
        assert elapsed < 1.0


def test_criterion_2_tiny_instance_enumeration():
    with criterion("2 tiny-instance enumeration"):
        start = time.time()
        m, t, cap = 3, 5.0, 60
        campaign = TestCampaign(test_cases=[[5]], bugs_detected=[[1]])
        # size means of prior mean 3, and sizes loose about them (dispersion
        # 2), so that a wrong size-mean update moves the size marginals
        config = ModelConfig(max_bugs=m, size_exponent=1.0, dispersion=2.0,
                             mean_size_shape=3.0, mean_size_rate=1.0)

        # exact augmented posterior: candidate 0 is detected (inclusion
        # forced), candidates 1-2 free; the flat inclusion-prob prior
        # integrates to a beta function of the included count.  The size
        # means are independent a priori and reach the likelihood only
        # through the sizes, so each candidate's size prior is its size pmf
        # with the mean integrated out of the gamma prior
        s = np.arange(cap + 1)
        prior = gamma_mixed_size_pmf(s, config)
        prior /= prior.sum()
        alpha = 1.0 - np.exp(-s.astype(float) / t)
        f_detected = prior * alpha
        f_hidden = prior * (1.0 - alpha)
        g_detected, g_hidden = f_detected.sum(), f_hidden.sum()
        weights = {}
        for z1 in (0, 1):
            for z2 in (0, 1):
                n_inc = 1 + z1 + z2
                w = np.exp(betaln(n_inc + 1, m - n_inc + 1)) * g_detected
                weights[(z1, z2)] = w * (g_hidden if z1 else 1.0) * (g_hidden if z2 else 1.0)
        total = sum(weights.values())
        exact_n = np.zeros(m + 1)
        for (z1, z2), w in weights.items():
            exact_n[1 + z1 + z2] += w / total
        p_included = sum(w for (z1, _), w in weights.items() if z1) / total
        exact_s_detected = f_detected / g_detected
        exact_s_free = p_included * (f_hidden / g_hidden) + (1.0 - p_included) * prior

        chainset = run_with_candidate_rows(
            campaign, config, SamplerConfig(chains=3, iterations=20_000, seed=11), range(m))
        n_draws = chainset.pooled("total_bugs").astype(int)
        hist_n = np.bincount(n_draws, minlength=m + 1) / n_draws.size
        assert 0.5 * np.abs(hist_n - exact_n).sum() <= 0.02
        assert tv_discrete(chainset.pooled("size[0]"), exact_s_detected) <= 0.02
        assert tv_discrete(chainset.pooled("size[1]"), exact_s_free) <= 0.02
        assert tv_discrete(chainset.pooled("size[2]"), exact_s_free) <= 0.02
        assert time.time() - start < 120.0


def test_criterion_3_simulation_recovery():
    with criterion("3 simulation recovery"):
        start = time.time()
        config = ModelConfig(max_bugs=400, size_exponent=1.5)
        rng = np.random.default_rng(np.random.SeedSequence(314))
        campaign, truth = generate_campaign(config, 30, 8, 100, (0, 50), rng)
        assert truth.true_bugs == 100
        chainset = run_all(
            campaign, config, SamplerConfig(chains=3, iterations=10_000, seed=314)
        )
        report = summarize(chainset)
        assert abs(report["total_bugs"].pooled_mean - 100.0) <= 5.0
        assert abs(report["inclusion_prob"].pooled_mean - 0.25) <= 0.03
        assert report["total_bugs"].rhat <= 1.05
        assert report["inclusion_prob"].rhat <= 1.05
        # the inclusion-prob spread lands around 8.5% cv at this scale
        for cv in report["inclusion_prob"].chain_cvs:
            assert 7.5 <= cv <= 9.7
        assert time.time() - start < 600.0


def test_criterion_4_prior_recovery():
    with criterion("4 prior recovery"):
        campaign = TestCampaign(test_cases=[[5]], bugs_detected=[[1]])
        config = ModelConfig(max_bugs=25)

        # a flat detection kernel leaves the bare prior: the pooled mean-size
        # marginal is its gamma prior
        with flat_likelihood():
            free = run_with_candidate_rows(
                campaign, config,
                SamplerConfig(chains=3, iterations=1000, burn_in=200, seed=3), range(25),
            )
        lam_draws = np.concatenate(
            [free.pooled(f"mean_size[{i}]") for i in range(25)]
        )
        assert lam_draws.size >= 50_000
        assert abs(lam_draws.mean() - 100.0) <= 2.0

        # a flat kernel under size means of prior mean 5: sizes match their
        # prior pmf, the size mean integrated out
        small = ModelConfig(max_bugs=25, mean_size_shape=50.0, mean_size_rate=10.0)
        with flat_likelihood():
            sized = run_with_candidate_rows(
                campaign, small,
                SamplerConfig(chains=3, iterations=1000, burn_in=200, seed=5), range(25),
            )
        s_draws = np.concatenate(
            [sized.pooled(f"size[{i}]") for i in range(25)]
        ).astype(int)
        assert s_draws.size >= 50_000
        pmf = gamma_mixed_size_pmf(np.arange(101), small)
        assert tv_discrete(s_draws, pmf) <= 0.02


def test_criterion_5_diagnostics_oracles():
    with criterion("5 diagnostics oracles"):
        rng = np.random.default_rng(505)
        iid = rng.standard_normal((3, 25_000))
        rhat, _ = split_rhat(iid)
        assert 1.0 <= rhat <= 1.01
        ess = effective_sample_size(iid)
        assert 67_500 <= ess <= 82_500

        rho = 0.9
        chains = ar1(np.random.default_rng(11), 3, 20_000, rho)
        analytic = chains.size * (1.0 - rho) / (1.0 + rho)
        assert abs(effective_sample_size(chains) - analytic) / analytic <= 0.10


def test_criterion_6_reliability_bands():
    with criterion("6 reliability bands"):
        campaign = flight_software_campaign()
        assert (campaign.missions, campaign.phases) == (35, 8)
        assert campaign.detected_total == 61
        config = ModelConfig(max_bugs=400, size_exponent=1.5)
        chainset = run_all(
            campaign, config, SamplerConfig(chains=3, iterations=8000, seed=2024)
        )
        report = summarize(chainset)
        bugs = report["total_bugs"]
        assert 61.0 <= bugs.pooled_mean <= 64.0
        assert bugs.ci_lower <= 61.0 and bugs.ci_upper >= 63.0
        curve = reliability_curve(chainset, [100.0, 120.0, 140.0, 160.0, 180.0, 200.0])
        probs = [p for _, p in curve]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert 0.77 <= probs[0] <= 0.93  # the reliability at 100.0


def run_criterion_7(out):
    """Criterion 7's command lines: simulate, fit and reliability, all into ``out``."""
    assert main(["simulate", "--missions", "6", "--phases", "3", "--true-bugs", "12",
                 "--max-bugs", "60", "--seed", "77", "--out", str(out)]) == 0
    assert main(["fit", str(out / "campaign.csv"), "--chains", "2", "--iters", "300",
                 "--max-bugs", "60", "--nu", "1.0", "--seed", "78", "--out", str(out)]) == 0
    assert main(["reliability", str(out / "draws.csv"),
                 "--epsilon", "50,100,200", "--out", str(out)]) == 0


def test_criterion_7_command_determinism(tmp_path):
    with criterion("7 command determinism"):
        outputs = [tmp_path / "first", tmp_path / "second"]
        for out in outputs:
            run_criterion_7(out)
        for name in ("campaign.csv", "truth.json", "draws.csv", "report.json",
                     "reliability.csv"):
            first = (outputs[0] / name).read_bytes()
            second = (outputs[1] / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"


# criterion 7's files as numpy PINNED_NUMPY wrote them; numpy keeps its bit
# generators' streams fixed across versions, but not every distribution's algorithm
PINNED_NUMPY = "2.4.6"
PINNED_SHA256 = {
    "campaign.csv": "b2846ef959057e8726bed1f79be37425b33d053d9839b8666e7e185887c22974",
    "draws.csv": "e92b28bfc19aeaaf10cef1a10cc9b57e256d2b93302f2cde707e5a3886a17bf2",
    "reliability.csv": "989488c7efdf2bf569dec9ad270cc0db8b58970259ae3826b59305ffaa6c6fc9",
    "report.json": "0bd39f86dde4f230e949d174450f8881bd0e7ad2dd4d8546b8953470e28e8963",
    "truth.json": "480fcc42ddcf31fff6162069f1b3cdddc02c934d5198b1d8c6b5b7f9583705ce",
}


def test_criterion_7_files_match_their_pinned_digests(tmp_path):
    run_criterion_7(tmp_path)
    cause = ("the same numpy, so bugsize changed the bytes" if np.__version__ == PINNED_NUMPY
             else "another numpy, whose random stream may have moved")
    for name, pinned in PINNED_SHA256.items():
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == pinned, (f"{name}: sha256 {digest}, pinned {pinned} under numpy "
                                  f"{PINNED_NUMPY}; this run uses numpy {np.__version__}, "
                                  f"{cause}")
