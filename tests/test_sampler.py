import numpy as np
import pytest
from scipy import integrate, stats

from bugsize.model import (
    AugmentedState,
    ModelConfig,
    TestCampaign,
    nb_log_pmf,
)
from bugsize.sampler import (
    SamplerConfig,
    draw_inclusion_prob,
    run_all,
    run_chain,
    update_inclusion,
    update_mean_sizes,
    update_sizes,
)


def single_cell_campaign(t=5, detected=1):
    return TestCampaign(test_cases=[[t]], bugs_detected=[[detected]])


def make_state(include, size, mean_size, psi, detected):
    return AugmentedState(
        include=np.asarray(include, dtype=bool),
        size=np.asarray(size, dtype=np.int64),
        mean_size=np.asarray(mean_size, dtype=float),
        inclusion_prob=float(psi),
        detected=np.asarray(detected, dtype=bool),
    )


def tv_discrete(draws, pmf):
    """Total variation between integer draws and a pmf on 0..len(pmf)-1."""
    draws = np.asarray(draws, dtype=int)
    hist = np.bincount(np.minimum(draws, len(pmf) - 1), minlength=len(pmf))
    return 0.5 * np.abs(hist / draws.size - pmf).sum()


# ------------------------------------------------------------------ config

def test_sampler_config_defaults_and_validation():
    cfg = SamplerConfig(iterations=50_000)
    assert cfg.effective_burn_in == 25_000
    assert cfg.kept_per_chain == 25_000
    assert SamplerConfig(iterations=10, burn_in=5).kept_per_chain == 5
    with pytest.raises(ValueError):
        SamplerConfig(chains=0)
    with pytest.raises(ValueError):
        SamplerConfig(iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        SamplerConfig(thin=0)


# ---------------------------------------------------- inclusion-prob draw

def test_draw_inclusion_prob_all_included():
    rng = np.random.default_rng(8)
    m = 40
    draws = np.array([draw_inclusion_prob(m, m, rng) for _ in range(20_000)])
    assert abs(draws.mean() - (m + 1) / (m + 2)) < 0.002


def test_draw_inclusion_prob_beta_conditional():
    rng = np.random.default_rng(42)
    draws = np.array([draw_inclusion_prob(100, 400, rng) for _ in range(10_000)])
    stat, pvalue = stats.kstest(draws, stats.beta(101, 301).cdf)
    assert pvalue > 0.01
    assert abs(draws.mean() - 101.0 / 402.0) < 0.005


def test_draw_inclusion_prob_62_of_400():
    # 62 included of 400 puts the conditional mean near 0.157
    rng = np.random.default_rng(9)
    draws = np.array([draw_inclusion_prob(62, 400, rng) for _ in range(20_000)])
    assert abs(draws.mean() - 63.0 / 402.0) < 0.002


def test_draw_inclusion_prob_bounds():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        draw_inclusion_prob(-1, 10, rng)
    with pytest.raises(ValueError):
        draw_inclusion_prob(11, 10, rng)


# -------------------------------------------------------- inclusion flags

def test_update_inclusion_certain_detection_never_included():
    # alpha effectively 1: an easily-seen bug that was never seen is not real
    camp = single_cell_campaign(t=5, detected=0)
    config = ModelConfig(max_bugs=1, size_exponent=1.5)
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(2000):
        state = make_state([True], [500], [100.0], 0.5, [False])
        update_inclusion(state, camp, config, rng)
        hits += int(state.include[0])
    assert hits == 0


def test_update_inclusion_certain_inclusion_at_psi_one():
    camp = single_cell_campaign(t=5, detected=0)
    config = ModelConfig(max_bugs=1, size_exponent=1.0)
    rng = np.random.default_rng(12)
    state = make_state([False], [2], [2.0], 1.0, [False])
    for _ in range(100):
        update_inclusion(state, camp, config, rng)
        assert state.include[0]


def test_update_inclusion_matches_conditional():
    # psi = 0.5 and alpha = 0.5 give inclusion probability 1/3
    camp = TestCampaign(test_cases=[[10]], bugs_detected=[[0]])
    exponent = np.log(10.0 * np.log(2.0)) / np.log(7.0)
    config = ModelConfig(max_bugs=1, size_exponent=exponent)
    rng = np.random.default_rng(13)
    hits = 0
    trials = 30_000
    for _ in range(trials):
        state = make_state([False], [7], [7.0], 0.5, [False])
        update_inclusion(state, camp, config, rng)
        hits += int(state.include[0])
    se = np.sqrt((1 / 3) * (2 / 3) / trials)
    assert abs(hits / trials - 1.0 / 3.0) < 4 * se


def test_update_inclusion_keeps_detected():
    camp = single_cell_campaign(t=5, detected=1)
    config = ModelConfig(max_bugs=3, size_exponent=1.0)
    rng = np.random.default_rng(14)
    state = make_state([True, False, False], [5, 5, 5], [5.0] * 3, 0.2, [True, False, False])
    for _ in range(200):
        update_inclusion(state, camp, config, rng)
        assert state.include[0]


# ------------------------------------------------------------ size update

def test_update_sizes_excluded_candidate_is_prior_refresh():
    camp = single_cell_campaign(t=5, detected=0)
    config = ModelConfig(max_bugs=1, size_exponent=1.0, dispersion=50.0)
    rng = np.random.default_rng(15)
    state = make_state([False], [3], [3.0], 0.5, [False])
    draws = np.empty(30_000, dtype=np.int64)
    for i in range(draws.size):
        update_sizes(state, camp, config, rng)
        draws[i] = state.size[0]
    pmf = np.exp(nb_log_pmf(np.arange(60), 3.0, 50.0))
    assert tv_discrete(draws, pmf) < 0.02


def test_update_sizes_detected_candidate_matches_enumeration():
    # stationary law of a detected bug's size is prior * detection tilt
    camp = single_cell_campaign(t=5, detected=1)
    config = ModelConfig(max_bugs=1, size_exponent=1.0, dispersion=50.0)
    rng = np.random.default_rng(16)
    state = make_state([True], [3], [3.0], 0.5, [True])
    draws = np.empty(50_000, dtype=np.int64)
    for i in range(draws.size):
        update_sizes(state, camp, config, rng)
        draws[i] = state.size[0]
    s = np.arange(0, 201)
    target = np.exp(nb_log_pmf(s, 3.0, 50.0)) * (1.0 - np.exp(-s / 5.0))
    target /= target.sum()
    assert tv_discrete(draws, target) < 0.02


def test_update_sizes_undetected_candidate_matches_enumeration():
    # included-but-undetected: prior * nondetection tilt
    camp = single_cell_campaign(t=5, detected=0)
    config = ModelConfig(max_bugs=1, size_exponent=1.0, dispersion=50.0)
    rng = np.random.default_rng(17)
    state = make_state([True], [3], [3.0], 0.5, [False])
    draws = np.empty(50_000, dtype=np.int64)
    for i in range(draws.size):
        update_sizes(state, camp, config, rng)
        draws[i] = state.size[0]
    s = np.arange(0, 201)
    target = np.exp(nb_log_pmf(s, 3.0, 50.0)) * np.exp(-s / 5.0)
    target /= target.sum()
    assert tv_discrete(draws, target) < 0.02


# ------------------------------------------------------- size-mean update

def test_update_mean_sizes_poisson_limit_accepts_everything():
    # huge dispersion: the proposal is (numerically) the exact conditional
    config = ModelConfig(max_bugs=50, dispersion=1e6)
    rng = np.random.default_rng(18)
    state = make_state(
        [True] * 50, [100] * 50, [100.0] * 50, 0.5, [True] * 50
    )
    rates = [update_mean_sizes(state, config, rng) for _ in range(50)]
    assert np.mean(rates) > 0.999


def test_update_mean_sizes_matches_quadrature():
    # fixed size 100: posterior mean of the mean-size matches quadrature to 1%
    config = ModelConfig(max_bugs=1)

    def target(lam):
        return np.exp(nb_log_pmf(100.0, lam, 50.0) + stats.gamma.logpdf(lam, 50.0, scale=2.0))

    norm, _ = integrate.quad(target, 1e-9, 500, limit=200)
    first, _ = integrate.quad(lambda l: l * target(l), 1e-9, 500, limit=200)
    exact_mean = first / norm

    rng = np.random.default_rng(19)
    state = make_state([True], [100], [100.0], 0.5, [True])
    draws = np.empty(40_000)
    for i in range(draws.size):
        update_mean_sizes(state, config, rng)
        draws[i] = state.mean_size[0]
    assert abs(draws[5000:].mean() - exact_mean) / exact_mean < 0.01


@pytest.mark.parametrize("dispersion", [0.5, 5.0, 50.0, 1e4])
def test_update_mean_sizes_keeps_nb_log_pmf_decisions(dispersion):
    # the sweep uses the closed form of the size-mean log ratio; replaying its
    # draws, every accept/reject must match the nb_log_pmf-based ratio
    m = 100_000
    config = ModelConfig(max_bugs=m, dispersion=dispersion)
    setup = np.random.default_rng(20)
    size = setup.integers(0, 5001, m)
    cur = np.exp(setup.uniform(np.log(1e-3), np.log(1e4), m))
    state = make_state(np.ones(m), size, cur.copy(), 0.5, np.zeros(m))
    rng = np.random.default_rng(21)
    replay = np.random.default_rng(21)

    update_mean_sizes(state, config, rng)

    s = size.astype(float)
    proposal = replay.gamma(config.mean_size_shape + s, 1.0 / (config.mean_size_rate + 1.0))
    log_u = np.log(replay.random(m))

    def score(lam):
        return nb_log_pmf(size, lam, dispersion) - (s * np.log(lam) - lam)

    ref = score(proposal) - score(cur)
    assert np.array_equal(state.mean_size, np.where(log_u < ref, proposal, cur))
    r = dispersion
    closed = (proposal - cur) - (r + s) * np.log((r + proposal) / (r + cur))
    assert np.max(np.abs(closed - ref)) <= 1e-8


# -------------------------------------------------------------- run_chain

def test_run_chain_deterministic():
    camp = single_cell_campaign()
    config = ModelConfig(max_bugs=5, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    scfg = SamplerConfig(chains=1, iterations=200, seed=0)
    a = run_chain(camp, config, scfg, 0, np.random.default_rng(123))
    b = run_chain(camp, config, scfg, 0, np.random.default_rng(123))
    for name in a.draws:
        assert np.array_equal(a.draws[name], b.draws[name])
    assert a.acceptance == b.acceptance


def test_run_chain_zero_detections_matches_enumeration():
    # with no detections the included-count posterior is known in closed form
    # once the nondetection mass under the size prior is computed numerically
    camp = TestCampaign(test_cases=[[4]], bugs_detected=[[0]])
    m = 10
    config = ModelConfig(
        max_bugs=m, size_exponent=1.0, mean_size_shape=2.0, mean_size_rate=1.0,
        dispersion=5.0,
    )
    lam = np.linspace(1e-4, 40.0, 6001)
    weights = np.exp(stats.gamma.logpdf(lam, 2.0, scale=1.0))
    s = np.arange(0, 201)
    size_marginal = np.trapezoid(
        np.exp(nb_log_pmf(s[:, None], lam[None, :], 5.0)) * weights[None, :], lam, axis=1
    )
    size_marginal /= size_marginal.sum()
    miss_mass = float((size_marginal * np.exp(-s / 4.0)).sum())
    counts = np.arange(m + 1)
    pmf = miss_mass ** counts
    pmf /= pmf.sum()
    exact_mean = float((counts * pmf).sum())
    assert exact_mean < m / 2.0

    chainset = run_all(camp, config, SamplerConfig(chains=3, iterations=6000, seed=13))
    mcmc_mean = chainset.pooled("total_bugs").mean()
    assert abs(mcmc_mean - exact_mean) < 0.25
    assert mcmc_mean < m / 2.0


def test_run_chain_rejects_low_ceiling_and_empty_campaign():
    config = ModelConfig(max_bugs=1)
    with pytest.raises(ValueError, match="ceiling"):
        run_chain(
            TestCampaign(test_cases=[[5]], bugs_detected=[[3]]),
            config,
            SamplerConfig(iterations=10),
            0,
            np.random.default_rng(0),
        )
    with pytest.raises(ValueError, match="testing effort"):
        run_chain(
            TestCampaign(test_cases=[[0]], bugs_detected=[[0]]),
            config,
            SamplerConfig(iterations=10),
            0,
            np.random.default_rng(0),
        )


# ---------------------------------------------------------------- run_all

def test_run_all_bookkeeping():
    camp = single_cell_campaign()
    config = ModelConfig(max_bugs=4, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    chainset = run_all(camp, config, SamplerConfig(chains=1, iterations=10, burn_in=5, seed=1))
    assert chainset.kept_per_chain == 5
    assert chainset.chains[0].iterations.tolist() == [5, 6, 7, 8, 9]


def test_run_all_reproducible_and_chains_differ():
    camp = single_cell_campaign()
    config = ModelConfig(max_bugs=6, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    scfg = SamplerConfig(chains=3, iterations=400, seed=21)
    first = run_all(camp, config, scfg)
    second = run_all(camp, config, scfg)
    for c1, c2 in zip(first.chains, second.chains):
        for name in c1.draws:
            assert np.array_equal(c1.draws[name], c2.draws[name])
    a, b = first.chains[0], first.chains[1]
    assert any(not np.array_equal(a.draws[n], b.draws[n]) for n in a.draws)


def test_run_all_chain_agreement():
    camp = TestCampaign(test_cases=[[8, 3], [5, 2]], bugs_detected=[[2, 0], [1, 0]])
    config = ModelConfig(max_bugs=30, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    chainset = run_all(camp, config, SamplerConfig(chains=3, iterations=4000, seed=22))
    psi = chainset.matrix("inclusion_prob")
    means = psi.mean(axis=1)
    sd = psi.std()
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(means[i] - means[j]) < 3.0 * sd


def test_run_all_parallel_matches_serial():
    camp = single_cell_campaign()
    config = ModelConfig(max_bugs=5, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    serial = run_all(camp, config, SamplerConfig(chains=2, iterations=200, seed=5))
    parallel = run_all(camp, config, SamplerConfig(chains=2, iterations=200, seed=5, workers=2))
    for c1, c2 in zip(serial.chains, parallel.chains):
        for name in c1.draws:
            assert np.array_equal(c1.draws[name], c2.draws[name])


def test_run_all_rejects_low_ceiling():
    camp = TestCampaign(test_cases=[[5]], bugs_detected=[[4]])
    with pytest.raises(ValueError, match="ceiling"):
        run_all(camp, ModelConfig(max_bugs=2), SamplerConfig(iterations=10))


def test_run_all_starts_when_prior_sizes_are_all_zero():
    # a size mean of 1e-9 makes every prior size draw 0; detected candidates
    # start at size 1, the smallest detectable size, and keep it
    camp = TestCampaign(test_cases=[[5, 2]], bugs_detected=[[2, 1]])
    scfg = SamplerConfig(chains=2, iterations=5, seed=3, fixed_mean_size=1e-9, track=(0, 2, 3))
    chainset = run_all(camp, ModelConfig(max_bugs=6), scfg)
    for chain in chainset.chains:
        assert np.all(chain.draws["size[0]"] == 1) and np.all(chain.draws["size[2]"] == 1)
        assert np.all(chain.draws["size[3]"] == 0)
        assert np.all(chain.draws["remaining_size"] == 0)


def test_kept_state_invariants():
    camp = TestCampaign(test_cases=[[6, 2]], bugs_detected=[[2, 1]])
    m = 12
    config = ModelConfig(max_bugs=m, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    scfg = SamplerConfig(chains=2, iterations=500, seed=23, keep_candidate_draws=True)
    chainset = run_all(camp, config, scfg)
    n = camp.detected_total
    for chain in chainset.chains:
        totals = chain.draws["total_bugs"]
        remaining = chain.draws["remaining_size"]
        assert np.all(totals >= n) and np.all(totals <= m)
        assert np.all(remaining >= 0)
        # nothing hidden whenever only the detected candidates are included
        assert np.all(remaining[totals == n] == 0)
        include = chain.candidate_draws["include"]
        assert np.all(include[:, :n] == 1.0)


def test_summarized_fit_ess_within_inflation_allowance():
    camp = TestCampaign(test_cases=[[6, 2]], bugs_detected=[[2, 1]])
    config = ModelConfig(max_bugs=12, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    chainset = run_all(camp, config, SamplerConfig(chains=3, iterations=3000, seed=24))
    from bugsize.diagnostics import summarize

    report = summarize(chainset)
    total = chainset.n_chains * chainset.kept_per_chain
    for name in report.parameters:
        assert report[name].ess <= 1.05 * total
