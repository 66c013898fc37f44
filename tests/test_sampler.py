import math
import multiprocessing
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from bugsize import sampler
from bugsize.datasets import flight_software_campaign
from bugsize.model import (
    AugmentedState,
    ModelConfig,
    TestCampaign,
    nb_log_pmf,
)
from bugsize.sampler import (
    DEFAULT_BURN_IN_CAP,
    ChainSet,
    SamplerConfig,
    draw_inclusion_prob,
    run_all,
    run_chain,
    update_inclusion,
    update_mean_sizes,
    update_sizes,
)
from bugsize.simulate import generate_campaign
from helpers import detection_loglik


def single_cell_campaign():
    return TestCampaign(test_cases=[[5]], bugs_detected=[[1]])


def make_state(include, size, mean_size, psi, n_detected):
    return AugmentedState(
        include=np.asarray(include, dtype=bool),
        size=np.asarray(size, dtype=np.int64),
        mean_size=np.asarray(mean_size, dtype=float),
        inclusion_prob=float(psi),
        n_detected=n_detected,
    )


def tv_discrete(draws, pmf):
    """Total variation between integer draws and a pmf on 0..len(pmf)-1."""
    draws = np.asarray(draws, dtype=int)
    hist = np.bincount(np.minimum(draws, len(pmf) - 1), minlength=len(pmf))
    return 0.5 * np.abs(hist / draws.size - pmf).sum()


# ------------------------------------------------------------------ config

def test_sampler_config_defaults_and_validation():
    # the default burn-in is half the run, capped at DEFAULT_BURN_IN_CAP sweeps
    assert DEFAULT_BURN_IN_CAP == 200
    assert SamplerConfig(iterations=50_000).effective_burn_in == 200
    assert SamplerConfig(iterations=300).effective_burn_in == 150
    assert SamplerConfig(iterations=401).effective_burn_in == 200
    assert SamplerConfig(iterations=10, burn_in=5).effective_burn_in == 5
    assert SamplerConfig(iterations=50_000, burn_in=25_000).effective_burn_in == 25_000
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
    config = ModelConfig(max_bugs=1, size_exponent=1.5)
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(2000):
        state = make_state([True], [500], [100.0], 0.5, 0)
        update_inclusion(state, 5, config, rng)
        hits += int(state.include[0])
    assert hits == 0


def test_update_inclusion_certain_inclusion_at_psi_one():
    config = ModelConfig(max_bugs=1, size_exponent=1.0)
    rng = np.random.default_rng(12)
    state = make_state([False], [2], [2.0], 1.0, 0)
    for _ in range(100):
        update_inclusion(state, 5, config, rng)
        assert state.include[0]


def test_update_inclusion_matches_conditional():
    # psi = 0.5 and alpha = 0.5 give inclusion probability 1/3
    exponent = np.log(10.0 * np.log(2.0)) / np.log(7.0)
    config = ModelConfig(max_bugs=1, size_exponent=exponent)
    rng = np.random.default_rng(13)
    hits = 0
    trials = 30_000
    for _ in range(trials):
        state = make_state([False], [7], [7.0], 0.5, 0)
        update_inclusion(state, 10, config, rng)
        hits += int(state.include[0])
    se = np.sqrt((1 / 3) * (2 / 3) / trials)
    assert abs(hits / trials - 1.0 / 3.0) < 4 * se


def test_update_inclusion_keeps_detected():
    config = ModelConfig(max_bugs=3, size_exponent=1.0)
    rng = np.random.default_rng(14)
    state = make_state([True, False, False], [5, 5, 5], [5.0] * 3, 0.2, 1)
    for _ in range(200):
        update_inclusion(state, 5, config, rng)
        assert state.include[0]


# ------------------------------------------------------------ size update

def test_update_sizes_excluded_candidate_is_prior_refresh():
    config = ModelConfig(max_bugs=1, size_exponent=1.0, dispersion=50.0)
    rng = np.random.default_rng(15)
    state = make_state([False], [3], [3.0], 0.5, 0)
    draws = np.empty(30_000, dtype=np.int64)
    for i in range(draws.size):
        update_sizes(state, 5, config, rng)
        draws[i] = state.size[0]
    pmf = np.exp(nb_log_pmf(np.arange(60), 3.0, 50.0))
    assert tv_discrete(draws, pmf) < 0.02


def test_update_sizes_detected_candidate_matches_enumeration():
    # stationary law of a detected bug's size is prior * detection tilt
    config = ModelConfig(max_bugs=1, size_exponent=1.0, dispersion=50.0)
    rng = np.random.default_rng(16)
    state = make_state([True], [3], [3.0], 0.5, 1)
    draws = np.empty(50_000, dtype=np.int64)
    for i in range(draws.size):
        update_sizes(state, 5, config, rng)
        draws[i] = state.size[0]
    s = np.arange(0, 201)
    target = np.exp(nb_log_pmf(s, 3.0, 50.0)) * (1.0 - np.exp(-s / 5.0))
    target /= target.sum()
    assert tv_discrete(draws, target) < 0.02


def test_update_sizes_undetected_candidate_matches_enumeration():
    # included-but-undetected: prior * nondetection tilt
    config = ModelConfig(max_bugs=1, size_exponent=1.0, dispersion=50.0)
    rng = np.random.default_rng(17)
    state = make_state([True], [3], [3.0], 0.5, 0)
    draws = np.empty(50_000, dtype=np.int64)
    for i in range(draws.size):
        update_sizes(state, 5, config, rng)
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
        [True] * 50, [100] * 50, [100.0] * 50, 0.5, 50
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
    state = make_state([True], [100], [100.0], 0.5, 1)
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
    state = make_state(np.ones(m), size, cur.copy(), 0.5, 0)
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


# ------------------------------------------- sweep against the reference

# The updates as they were written before the sweep evaluated the detection
# kernel only where needed: every rate computed for all candidates, the full
# detection log-likelihood (helpers.detection_loglik) evaluated at both sizes,
# the detected candidates selected by a boolean mask.  Kept here as the
# reference the sweep must reproduce bit for bit.

def ref_rate(size, exponent, t_max):
    return np.power(np.asarray(size, dtype=float), exponent) / t_max


def detected_mask(state):
    return np.arange(state.max_bugs) < state.n_detected


def ref_update_inclusion(state, t_max, config, rng, use_likelihood=True):
    psi = state.inclusion_prob
    if use_likelihood:
        miss = np.exp(-ref_rate(state.size, config.size_exponent, t_max))
        weight = psi * miss
        q = weight / (weight + (1.0 - psi))
    else:
        q = np.full(state.max_bugs, psi)
    free = ~detected_mask(state)
    state.include[free] = rng.random(int(free.sum())) < q[free]
    return state


def ref_update_sizes(state, t_max, config, rng, use_likelihood=True):
    r = config.dispersion
    proposal = rng.negative_binomial(r, r / (r + state.mean_size)).astype(np.int64)
    if use_likelihood:
        nu, detected = config.size_exponent, detected_mask(state)
        cur = detection_loglik(state.size, state.include, detected, nu, t_max)
        new = detection_loglik(proposal, state.include, detected, nu, t_max)
        log_ratio = new - cur
    else:
        log_ratio = np.zeros(state.max_bugs)
    with np.errstate(divide="ignore"):
        accept = np.log(rng.random(state.max_bugs)) < log_ratio
    state.size = np.where(accept, proposal, state.size)
    if not state.include.any():
        return 1.0
    return float(accept[state.include].mean())


def ref_update_mean_sizes(state, config, rng):
    a, b, r = config.mean_size_shape, config.mean_size_rate, config.dispersion
    s = state.size.astype(float)
    proposal = rng.gamma(a + s, 1.0 / (b + 1.0))
    cur = state.mean_size
    log_ratio = (proposal - cur) - (r + s) * np.log((r + proposal) / (r + cur))
    with np.errstate(divide="ignore"):
        accept = np.log(rng.random(state.max_bugs)) < log_ratio
    state.mean_size = np.where(accept, proposal, cur)
    return float(accept.mean())


def copy_state(state):
    return make_state(state.include.copy(), state.size.copy(), state.mean_size.copy(),
                      state.inclusion_prob, state.n_detected)


def assert_same_bits(state, ref):
    for key in ("include", "size", "mean_size"):
        a, b = getattr(state, key), getattr(ref, key)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
    assert state.inclusion_prob == ref.inclusion_prob


def assert_same_acceptance(got, want):
    # a numpy scalar would print as np.float64(...) in the draws file's chain line
    assert type(got) is float and got == want


def pinned_state(layout, m=10_000, seed=30):
    rng = np.random.default_rng(seed)
    n = 0 if layout == "all-excluded" else m // 8
    detected = np.arange(m) < n
    include = detected | (rng.random(m) < 0.3)
    if layout == "all-excluded":
        include[:] = False
    mean_size = rng.gamma(5.0, 10.0, m)
    # detected candidates whose size mean is tiny are proposed at size 0,
    # where log(alpha) is -inf and the proposal must be refused
    tiny = detected & (rng.random(m) < 0.2)
    mean_size[tiny] = 1e-6
    size = np.maximum(rng.negative_binomial(5.0, 5.0 / (5.0 + mean_size)), detected)
    return make_state(include, size, mean_size, rng.random(), n)


@pytest.mark.parametrize(
    "layout, use_likelihood",
    [("prefix", True), ("all-excluded", True), ("prefix", False)],
)
def test_updates_match_reference_bit_for_bit(layout, use_likelihood):
    t_max = 400
    config = ModelConfig(max_bugs=10_000, size_exponent=1.5, dispersion=5.0)
    state = pinned_state(layout)
    ref = copy_state(state)
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    if layout != "all-excluded":
        # the proposals do put detected candidates at size 0
        r = config.dispersion
        probe = np.random.default_rng(31).negative_binomial(r, r / (r + state.mean_size))
        assert np.any(probe[: state.n_detected] == 0)
    for _ in range(4):
        assert_same_acceptance(
            update_sizes(state, t_max, config, rng, use_likelihood),
            ref_update_sizes(ref, t_max, config, ref_rng, use_likelihood),
        )
        assert_same_bits(state, ref)
        update_inclusion(state, t_max, config, rng, use_likelihood)
        ref_update_inclusion(ref, t_max, config, ref_rng, use_likelihood)
        assert_same_bits(state, ref)
        state.inclusion_prob = draw_inclusion_prob(state.total_bugs, state.max_bugs, rng)
        ref.inclusion_prob = draw_inclusion_prob(ref.total_bugs, ref.max_bugs, ref_rng)
        assert_same_acceptance(
            update_mean_sizes(state, config, rng), ref_update_mean_sizes(ref, config, ref_rng)
        )
        assert_same_bits(state, ref)


def test_updates_follow_state_assigned_between_them():
    t_max = 250
    config = ModelConfig(max_bugs=2_000, size_exponent=1.5)
    state = pinned_state("prefix", m=2_000, seed=33)
    ref = copy_state(state)
    rng, ref_rng = np.random.default_rng(34), np.random.default_rng(34)
    assert_same_acceptance(update_sizes(state, t_max, config, rng),
                           ref_update_sizes(ref, t_max, config, ref_rng))
    # sizes reassigned between updates: the next updates see them
    fresh = np.maximum(np.random.default_rng(35).integers(0, 300, state.max_bugs),
                       detected_mask(state))
    state.size, ref.size = fresh, fresh.copy()
    update_inclusion(state, t_max, config, rng)
    ref_update_inclusion(ref, t_max, config, ref_rng)
    assert_same_bits(state, ref)
    assert_same_acceptance(update_sizes(state, t_max, config, rng),
                           ref_update_sizes(ref, t_max, config, ref_rng))
    assert_same_bits(state, ref)


def test_run_chain_matches_reference_updates(monkeypatch):
    # run_chain looks its updates up by name, so the reference can stand in
    camp = TestCampaign(test_cases=[[40, 9, 70], [12, 55, 3]],
                        bugs_detected=[[4, 1, 2], [0, 3, 0]])
    config = ModelConfig(max_bugs=300)
    scfg = SamplerConfig(iterations=300, burn_in=100, thin=2, track=tuple(range(300)))
    got, got_acceptance = run_chain(camp, config, scfg, np.random.default_rng(36))
    from bugsize import sampler

    monkeypatch.setattr(sampler, "update_inclusion", ref_update_inclusion)
    monkeypatch.setattr(sampler, "update_sizes", ref_update_sizes)
    monkeypatch.setattr(sampler, "update_mean_sizes", ref_update_mean_sizes)
    want, want_acceptance = run_chain(camp, config, scfg, np.random.default_rng(36))
    assert got.shape == (3 + 3 * 300, len(range(100, 300, 2)))
    assert got.tobytes() == want.tobytes()
    assert got_acceptance == want_acceptance
    assert all(type(v) is float for v in got_acceptance.values())
    # the recorded scalars are those of the kept states: every candidate is tracked,
    # in the rows inclusion_prob, total_bugs, remaining_size, include[:], size[:], mean_size[:]
    include, size = got[3:303].T, got[303:603].T
    hidden = np.arange(config.max_bugs) >= camp.detected_total
    assert np.array_equal(got[1], include.sum(axis=1))
    assert np.array_equal(got[2], (size * include)[:, hidden].sum(axis=1))


# -------------------------------------------------------------- run_chain

def test_run_chain_deterministic():
    camp = single_cell_campaign()
    config = ModelConfig(max_bugs=5, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    scfg = SamplerConfig(chains=1, iterations=200, seed=0, track=(0, 1, 3, 4))
    a, a_acceptance = run_chain(camp, config, scfg, np.random.default_rng(123))
    b, b_acceptance = run_chain(camp, config, scfg, np.random.default_rng(123))
    assert np.array_equal(a, b)
    assert a_acceptance == b_acceptance


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
            np.random.default_rng(0),
        )
    with pytest.raises(ValueError, match="testing effort"):
        run_chain(
            TestCampaign(test_cases=[[0]], bugs_detected=[[0]]),
            config,
            SamplerConfig(iterations=10),
            np.random.default_rng(0),
        )


# ---------------------------------------------------------------- run_all

def test_run_all_bookkeeping():
    camp = single_cell_campaign()
    config = ModelConfig(max_bugs=4, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    scfg = SamplerConfig(chains=1, iterations=10, burn_in=5, seed=1)
    chainset = run_all(camp, config, scfg)
    assert chainset.kept_per_chain == 5
    assert list(chainset.kept_iterations) == [5, 6, 7, 8, 9]
    # by default only the posterior quantities are recorded
    assert chainset.names == ["inclusion_prob", "total_bugs", "remaining_size"]
    assert chainset.draws.shape == (1, 3, 5)
    assert chainset.seed_keys() == ["1:0"]
    tracked = run_all(camp, config, replace(scfg, track=(0, 1, 2, 3)))
    assert tracked.names == ["inclusion_prob", "total_bugs", "remaining_size",
                             "include[0]", "include[1]", "include[2]", "include[3]",
                             "size[0]", "size[1]", "size[2]", "size[3]",
                             "mean_size[0]", "mean_size[1]", "mean_size[2]", "mean_size[3]"]
    assert tracked.draws.shape == (1, 15, 5)
    # the kept grid follows the run settings: thinned from an implied burn-in,
    # capped because half of 2,000 sweeps exceeds the cap
    thinned = run_all(camp, config, SamplerConfig(chains=2, iterations=2_000, thin=7, seed=1))
    assert thinned.kept_per_chain == len(range(DEFAULT_BURN_IN_CAP, 2_000, 7))
    assert thinned.draws.shape == (2, 3, thinned.kept_per_chain)


def test_chainset_rejects_draws_off_its_layout():
    settings = dict(acceptance=[{}, {}], base_seed=0, iterations=4, burn_in=0, thin=1)
    chainset = ChainSet(names=["a", "b"], draws=np.arange(16.0).reshape(2, 2, 4), **settings)
    assert np.array_equal(chainset.matrix("b"), [[4, 5, 6, 7], [12, 13, 14, 15]])
    with pytest.raises(KeyError, match="unknown parameter 'c'; tracked: a, b"):
        chainset.matrix("c")
    # (chains, parameters, kept) is (2, 2, 4)
    for shape in [(2, 2, 3), (3, 2, 4), (2, 1, 4), (2, 8), (2, 2, 4, 1)]:
        with pytest.raises(ValueError, match=r"draws of shape .*; \(chains, parameters, kept\) "
                                              r"is \(2, 2, 4\)"):
            ChainSet(names=["a", "b"], draws=np.zeros(shape), **settings)
    with pytest.raises(ValueError, match="parameter 'a' repeats"):
        ChainSet(names=["a", "a"], draws=np.zeros((2, 2, 4)), **settings)


def test_run_all_reproducible_and_chains_differ():
    camp = single_cell_campaign()
    config = ModelConfig(max_bugs=6, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    scfg = SamplerConfig(chains=3, iterations=400, seed=21, track=(0, 1, 4, 5))
    first = run_all(camp, config, scfg)
    second = run_all(camp, config, scfg)
    assert np.array_equal(first.draws, second.draws)
    assert not np.array_equal(first.draws[0], first.draws[1])


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
    scfg = SamplerConfig(chains=2, iterations=200, seed=5, track=(0, 1, 3, 4))
    serial = run_all(camp, config, scfg)
    parallel = run_all(camp, config, replace(scfg, workers=2))
    assert serial.draws.tobytes() == parallel.draws.tobytes()
    assert serial.acceptance == parallel.acceptance


def test_run_all_pool_raises_the_serial_input_error():
    camp = single_cell_campaign()
    config = ModelConfig(max_bugs=6)
    errors = []
    for workers in (1, 2):
        scfg = SamplerConfig(chains=2, iterations=10, track=(99,), workers=workers)
        with pytest.raises(Exception) as err:
            run_all(camp, config, scfg)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0] == (ValueError, "tracked candidate index 99 out of range for max_bugs=6")


def test_run_chain_rejects_repeated_track_before_sampling(monkeypatch):
    # a repeated index would record one column name twice
    monkeypatch.setattr(sampler, "_initial_state", None)  # sampling would call it
    with pytest.raises(ValueError, match=r"tracked candidate indices repeat: \(0, 3, 0\)"):
        run_chain(single_cell_campaign(), ModelConfig(max_bugs=6),
                  SamplerConfig(iterations=10, track=(0, 3, 0)), np.random.default_rng(0))


# workers see a monkeypatched advance only when forked from this process
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="needs the fork start method"
)


def chain_of(rng):
    """The chain a generator serves: run_all seeds chain i from child i of the base seed."""
    return rng.bit_generator.seed_seq.spawn_key[-1]


@needs_fork
def test_run_all_pool_names_the_first_failed_chain_in_order(monkeypatch):
    # the serial run_chain and the pool's segments both advance through this
    def broken_advance(campaign, model_config, sampler_config, run, stop):
        chain_index = chain_of(run.rng)
        if chain_index == 0:
            time.sleep(0.3)  # chain 1 fails first
        raise ArithmeticError(f"broke in chain {chain_index}")

    monkeypatch.setattr(sampler, "_advance_chain", broken_advance)
    camp = single_cell_campaign()
    for workers in (1, 2):
        scfg = SamplerConfig(chains=2, iterations=10, workers=workers)
        with pytest.raises(RuntimeError) as err:
            run_all(camp, ModelConfig(max_bugs=6), scfg)
        assert str(err.value) == "chain 0 failed: broke in chain 0"


@needs_fork
def test_run_all_pool_drops_queued_chains_after_a_failure(monkeypatch, tmp_path):
    def advance_or_fail(campaign, model_config, sampler_config, run, stop):
        chain_index = chain_of(run.rng)
        (tmp_path / f"started-{chain_index}").touch()
        if chain_index == 0:
            raise ArithmeticError("broke in chain 0")
        time.sleep(0.5)
        return np.empty((0, 0)), run

    monkeypatch.setattr(sampler, "_advance_chain", advance_or_fail)
    # the pool holds at most two segments at a time: when chain 0's first
    # fails, only chain 1's first is running, and no later segment starts
    scfg = SamplerConfig(chains=10, iterations=10, workers=2)
    with pytest.raises(RuntimeError, match="chain 0 failed"):
        run_all(single_cell_campaign(), ModelConfig(max_bugs=6), scfg)
    started = sorted(int(p.name.split("-")[1]) for p in tmp_path.glob("started-*"))
    assert started == [0, 1], started


# ------------------------------------------------- segmented pool schedule

SCHEDULE_CAMPAIGN = TestCampaign(test_cases=[[6, 3], [4, 2]], bugs_detected=[[2, 0], [1, 1]])
SCHEDULE_MODEL = ModelConfig(max_bugs=9, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)


def test_advance_in_pieces_matches_run_chain():
    scfg = SamplerConfig(iterations=40, burn_in=9, thin=3, seed=8, track=(0, 4, 8))
    table, acceptance = run_chain(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL, scfg,
                                  np.random.default_rng(81))
    run = sampler._start_chain(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL, scfg, np.random.default_rng(81))
    parts = []
    # pieces that end before, at and inside the burn-in, and an empty one
    for stop in (4, 9, 9, 23, 40):
        part, run = sampler._advance_chain(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL, scfg, run, stop)
        parts.append(part)
    assert [p.shape[1] for p in parts] == [0, 0, 0, 5, 6]
    assert np.concatenate(parts, axis=1).tobytes() == table.tobytes()
    assert sampler._finish_chain(scfg, run) == acceptance


@pytest.mark.parametrize(
    "chains, workers, settings",
    [
        (3, 2, dict(iterations=41, burn_in=25, thin=3, track=(0, 1, 7, 8))),
        (4, 3, dict(iterations=50, burn_in=20, thin=4, fixed_mean_size=3.0, track=(0, 1, 7, 8))),
        (5, 4, dict(iterations=3, burn_in=1, use_likelihood=False, track=(0, 1, 7, 8))),
        (2, 2, dict(iterations=31, thin=2, track=tuple(range(9)))),
        (4, 2, dict(iterations=30, burn_in=7, thin=2)),
    ],
    ids=["3-on-2-thinned", "4-on-3-fixed-mean", "5-on-4-fewer-sweeps-than-workers",
         "2-on-2-default-burn-in", "4-on-2-whole-chains-default-track"],
)
def test_run_all_segmented_pool_matches_serial(chains, workers, settings):
    serial = run_all(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL,
                     SamplerConfig(chains=chains, seed=13, **settings))
    pooled = run_all(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL,
                     SamplerConfig(chains=chains, seed=13, workers=workers, **settings))
    assert serial.draws.tobytes() == pooled.draws.tobytes()
    assert serial.acceptance == pooled.acceptance


@pytest.mark.parametrize("workers", [1, 2])
def test_default_track_records_the_scalar_rows_of_a_full_track_run(workers):
    # recording draws no random numbers and changes no state, so tracking
    # every candidate leaves the three posterior rows as they are
    scfg = SamplerConfig(chains=3, iterations=60, burn_in=20, thin=2, seed=17, workers=workers)
    default = run_all(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL, scfg)
    full = run_all(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL, replace(scfg, track=tuple(range(9))))
    assert default.names == full.names[:3] == ["inclusion_prob", "total_bugs", "remaining_size"]
    assert default.draws.tobytes() == full.draws[:, :3].tobytes()
    assert default.acceptance == full.acceptance


@needs_fork
@pytest.mark.parametrize("chains, workers", [(3, 2), (4, 3), (2, 2), (4, 2)])
def test_run_all_pool_runs_each_chain_in_order_on_at_most_workers(
    monkeypatch, tmp_path, chains, workers
):
    advance = sampler._advance_chain
    pause = 0.3

    def recorded_advance(campaign, model_config, sampler_config, run, stop):
        began = time.monotonic()
        time.sleep(pause)
        out = advance(campaign, model_config, sampler_config, run, stop)
        (tmp_path / f"{chain_of(run.rng)}-{run.it}-{stop}").write_text(
            f"{began} {time.monotonic()}")
        return out

    monkeypatch.setattr(sampler, "_advance_chain", recorded_advance)
    iterations = 20
    scfg = SamplerConfig(chains=chains, iterations=iterations, workers=workers)
    run_all(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL, scfg)
    segments = []
    for path in tmp_path.iterdir():
        chain, start, stop = map(int, path.name.split("-"))
        began, ended = map(float, path.read_text().split())
        segments.append((chain, start, stop, began, ended))
    # each chain runs workers // gcd segments, in order, covering [0, iterations) once
    pieces = workers // math.gcd(chains, workers)
    bounds = [k * iterations // pieces for k in range(pieces + 1)]
    for c in range(chains):
        mine = sorted((s for s in segments if s[0] == c), key=lambda s: s[3])
        assert [(s[1], s[2]) for s in mine] == list(zip(bounds, bounds[1:]))
        assert all(a[4] <= b[3] for a, b in zip(mine, mine[1:]))
    # at most workers run at once, and the chains share them evenly: every
    # segment pauses once, so chains * pieces / workers rounds of one pause,
    # where workers segments per chain would take chains rounds
    assert max(sum(s[3] <= t[3] < s[4] for s in segments) for t in segments) <= workers
    makespan = max(s[4] for s in segments) - min(s[3] for s in segments)
    assert makespan < (chains * pieces // workers + 0.5) * pause, makespan


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
    assert np.all(chainset.matrix("size[0]") == 1) and np.all(chainset.matrix("size[2]") == 1)
    assert np.all(chainset.matrix("size[3]") == 0)
    assert np.all(chainset.matrix("remaining_size") == 0)


def test_kept_state_invariants():
    camp = TestCampaign(test_cases=[[6, 2]], bugs_detected=[[2, 1]])
    m = 12
    config = ModelConfig(max_bugs=m, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    scfg = SamplerConfig(chains=2, iterations=500, seed=23, track=tuple(range(m)))
    chainset = run_all(camp, config, scfg)
    n = camp.detected_total
    totals = chainset.matrix("total_bugs")
    remaining = chainset.matrix("remaining_size")
    assert np.all(totals >= n) and np.all(totals <= m)
    assert np.all(remaining >= 0)
    # nothing hidden whenever only the detected candidates are included
    assert np.all(remaining[totals == n] == 0)
    for i in range(n):
        assert np.all(chainset.matrix(f"include[{i}]") == 1.0)


def test_summarized_fit_ess_within_inflation_allowance():
    camp = TestCampaign(test_cases=[[6, 2]], bugs_detected=[[2, 1]])
    config = ModelConfig(max_bugs=12, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    scfg = SamplerConfig(chains=3, iterations=3000, seed=24, track=(0, 1, 10, 11))
    chainset = run_all(camp, config, scfg)
    from bugsize.diagnostics import summarize

    report = summarize(chainset)
    total = chainset.n_chains * chainset.kept_per_chain
    for name in report:
        assert report[name].ess <= 1.05 * total


# ---------------------------------------------------------------- burn-in

def test_default_burn_in_keeps_the_draws_of_a_half_run_burn_in():
    # the burn-in only chooses which sweeps are kept: a chain draws the same
    # numbers either way, so the default keeps every draw a half-run burn-in
    # keeps, as the same bytes, and the earlier sweeps besides
    scfg = SamplerConfig(chains=2, iterations=1000, seed=31)
    default = run_all(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL, scfg)
    half = run_all(SCHEDULE_CAMPAIGN, SCHEDULE_MODEL, replace(scfg, burn_in=500))
    assert default.kept_iterations == range(DEFAULT_BURN_IN_CAP, 1000)
    assert default.draws[:, :, 500 - DEFAULT_BURN_IN_CAP:].tobytes() == half.draws.tobytes()
    assert default.acceptance == half.acceptance


def settle_campaign(name):
    """The bundled campaign, criterion 3's recovery campaign, or hidden-wide."""
    if name == "bundled":
        return flight_software_campaign(), ModelConfig(max_bugs=400, size_exponent=1.5)
    if name == "recovery":
        config = ModelConfig(max_bugs=400, size_exponent=1.5)
        rng = np.random.default_rng(np.random.SeedSequence(314))
        return generate_campaign(config, 30, 8, 100, (0, 50), rng)[0], config
    # `bugsize simulate --true-bugs 400 --max-bugs 4000 --t-max 2000 --seed 11`:
    # 146 of 400 bugs detected, most of the real ones hidden
    config = ModelConfig(max_bugs=4000, size_exponent=1.5)
    rng = np.random.default_rng(np.random.SeedSequence(11))
    return generate_campaign(config, 30, 8, 400, (0, 2000), rng)[0], config


@pytest.mark.parametrize("name", ["bundled", "recovery", "hidden-wide"])
def test_chains_settle_well_within_the_default_burn_in(name):
    # from a dispersed start, every undetected candidate included (psi near
    # 1) or none (psi near 0), each chain's total_bugs must reach the 99%
    # band of its stationary draws within a quarter of the default burn-in
    campaign, config = settle_campaign(name)
    m, n = config.max_bugs, campaign.detected_total
    settled = run_all(campaign, config, SamplerConfig(chains=2, iterations=1200,
                                                      burn_in=DEFAULT_BURN_IN_CAP, seed=90))
    low, high = np.quantile(settled.pooled("total_bugs"), [0.005, 0.995])
    sweeps = DEFAULT_BURN_IN_CAP // 4
    scfg = SamplerConfig(chains=1, iterations=sweeps, burn_in=0)
    for start in ("dispersed", "all-included", "all-excluded"):
        for seed in range(3):
            run = sampler._start_chain(campaign, config, scfg, np.random.default_rng(seed))
            if start == "all-included":
                run.state.include[:] = True
                run.state.inclusion_prob = (m + 1) / (m + 2)
            elif start == "all-excluded":
                run.state.include[n:] = False
                run.state.inclusion_prob = 1 / (m + 2)
            table, _ = sampler._advance_chain(campaign, config, scfg, run, sweeps)
            totals = table[1]
            assert np.any((low <= totals) & (totals <= high)), (start, seed, low, high, totals)
