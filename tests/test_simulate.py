import numpy as np
import pytest

from bugsize.diagnostics import summarize
from bugsize.model import ModelConfig, detection_prob
from bugsize.sampler import SamplerConfig, run_all
from bugsize.simulate import generate_campaign


def small_config(**kwargs):
    defaults = dict(
        max_bugs=60, size_exponent=1.0, mean_size_shape=2.0, mean_size_rate=1.0,
        dispersion=5.0,
    )
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def test_generated_counts_match_assignments():
    config = small_config()
    rng = np.random.default_rng(50)
    campaign, truth = generate_campaign(config, 4, 3, 40, (0, 20), rng)
    assert campaign.detected_total == truth.detected_total
    # cell-by-cell: count of ground-truth assignments reproduces the data
    counts = np.bincount(truth.cell[truth.cell >= 0], minlength=12).reshape(4, 3)
    assert np.array_equal(counts, campaign.bugs_detected)
    assert truth.remaining_size == truth.size[truth.cell < 0].sum()
    assert np.all(truth.size >= 0)
    assert truth.true_bugs == 40 and truth.size.shape == truth.cell.shape == (40,)


def test_generation_reproducible():
    config = small_config()
    c1, t1 = generate_campaign(config, 5, 4, 30, (0, 30), np.random.default_rng(51))
    c2, t2 = generate_campaign(config, 5, 4, 30, (0, 30), np.random.default_rng(51))
    assert c1 == c2
    assert np.array_equal(t1.size, t2.size)
    assert np.array_equal(t1.mean_size, t2.mean_size)
    assert np.array_equal(t1.cell, t2.cell)


def test_no_real_bugs_means_no_detections():
    campaign, truth = generate_campaign(small_config(), 3, 2, 0, (0, 10), np.random.default_rng(52))
    assert campaign.detected_total == 0
    assert np.all(campaign.bugs_detected == 0)
    assert truth.true_bugs == 0 and truth.remaining_size == 0


def test_default_protocol_shape():
    config = ModelConfig(max_bugs=400, size_exponent=1.5)
    campaign, truth = generate_campaign(config, 30, 8, 100, (0, 50), np.random.default_rng(53))
    assert (campaign.missions, campaign.phases) == (30, 8)
    assert campaign.test_cases.min() >= 0 and campaign.test_cases.max() <= 50
    assert truth.true_bugs == 100
    assert campaign.detected_total <= 100


def test_detected_count_matches_analytic_mean():
    # detections given sizes are independent Bernoulli(alpha_i), so the mean
    # paired difference n - sum(alpha_i) over replicates is centered at zero
    config = small_config(max_bugs=50)
    rng = np.random.default_rng(54)
    diffs = []
    for _ in range(1000):
        campaign, truth = generate_campaign(config, 2, 2, 50, (1, 15), rng)
        alpha = detection_prob(truth.size, config.size_exponent, campaign.t_max)
        diffs.append(campaign.detected_total - alpha.sum())
    diffs = np.asarray(diffs)
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert abs(diffs.mean()) < 3.0 * se


def test_generate_campaign_input_validation():
    config = small_config()
    rng = np.random.default_rng(55)
    with pytest.raises(ValueError, match="ceiling"):
        generate_campaign(config, 3, 2, 100, (0, 10), rng)
    with pytest.raises(ValueError):
        generate_campaign(config, 3, 2, 10, (5, 2), rng)
    with pytest.raises(ValueError, match="testing effort"):
        generate_campaign(config, 3, 2, 10, (0, 0), rng)
    # an empty grid is rejected up front, before any draw
    state = rng.bit_generator.state
    for missions, phases in [(0, 2), (-1, 2), (3, 0), (3, -1)]:
        with pytest.raises(ValueError, match="need missions >= 1 and phases >= 1"):
            generate_campaign(config, missions, phases, 10, (0, 10), rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("nu, seed", [(1.0, 7), (1.25, 8), (1.5, 9)])
def test_recovery_across_decay_exponents(nu, seed):
    config = ModelConfig(max_bugs=120, size_exponent=nu, dispersion=50.0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    campaign, truth = generate_campaign(config, 6, 3, 30, (0, 50), rng)
    scfg = SamplerConfig(chains=2, iterations=1500, seed=seed, track=(0, 1, 118, 119))
    chainset = run_all(campaign, config, scfg)
    report = summarize(chainset)
    assert campaign.detected_total <= truth.true_bugs == 30
    # default-prior sizes are ~100, so nearly everything real gets caught
    assert abs(report["total_bugs"].pooled_mean - 30) < 5.0
    assert abs(report["inclusion_prob"].pooled_mean - 30 / 120.0) < 0.03
    sizes = {name for name in report if name.startswith("size[")}
    assert sizes == {"size[0]", "size[1]", "size[118]", "size[119]"}
    # per-bug size means stay near the prior mean under weak per-bug data
    for name in report:
        if name.startswith("mean_size["):
            assert abs(report[name].pooled_mean - 100.0) < 10.0
