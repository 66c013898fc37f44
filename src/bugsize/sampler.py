"""Metropolis-within-Gibbs sampler over the augmented candidate list.

Each sweep updates, in order: the inclusion flags of undetected candidates
(exact Bernoulli conditional), the inclusion probability (exact beta
conditional), every candidate's size (independence proposal from the size
prior), and every candidate's size mean (conjugate-gamma surrogate
proposal with a Metropolis-Hastings correction).  Chains are independent,
each owning a seeded random generator spawned from the base seed.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from .model import (
    AugmentedState,
    ModelConfig,
    TestCampaign,
    _detection_rate,
    detection_loglik,
    nb_log_pmf,  # not called here; perfbench's tracer wraps sampler.nb_log_pmf
)

__all__ = [
    "SamplerConfig",
    "ChainDraws",
    "ChainSet",
    "draw_inclusion_prob",
    "update_inclusion",
    "update_sizes",
    "update_mean_sizes",
    "run_chain",
    "run_all",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Run settings for the Gibbs sampler.

    ``burn_in`` defaults to half the iterations.  ``track`` selects the
    candidate indices whose size and size-mean trajectories are recorded
    alongside the always-tracked scalars; by default the first two and last
    two candidates.  ``use_likelihood=False`` drops every detection-
    likelihood term so the sampler targets the bare prior (a testing hook),
    and ``fixed_mean_size`` freezes all size means at a constant.
    """

    chains: int = 3
    iterations: int = 50_000
    burn_in: int | None = None
    seed: int = 0
    thin: int = 1
    track: tuple[int, ...] | None = None
    keep_candidate_draws: bool = False
    use_likelihood: bool = True
    fixed_mean_size: float | None = None
    workers: int = 1

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.burn_in is not None and not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.fixed_mean_size is not None and self.fixed_mean_size <= 0:
            raise ValueError("fixed_mean_size must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def effective_burn_in(self) -> int:
        return self.iterations // 2 if self.burn_in is None else self.burn_in

    @property
    def kept_per_chain(self) -> int:
        return len(range(self.effective_burn_in, self.iterations, self.thin))


@dataclass
class ChainDraws:
    """Kept draws and bookkeeping for a single chain."""

    chain: int
    seed_key: str
    iterations: np.ndarray
    draws: dict[str, np.ndarray]
    acceptance: dict[str, float]
    candidate_draws: dict[str, np.ndarray] | None = None


@dataclass
class ChainSet:
    """Kept draws from independent chains plus the settings that made them."""

    chains: list[ChainDraws]
    base_seed: int
    iterations: int
    burn_in: int
    thin: int

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def kept_per_chain(self) -> int:
        return int(self.chains[0].iterations.shape[0]) if self.chains else 0

    def parameters(self) -> list[str]:
        """Tracked parameter names, in recording order."""
        return list(self.chains[0].draws.keys()) if self.chains else []

    def matrix(self, parameter: str) -> np.ndarray:
        """Draws for one parameter as a (chains, kept) array."""
        try:
            return np.stack([c.draws[parameter] for c in self.chains])
        except KeyError:
            raise KeyError(
                f"unknown parameter {parameter!r}; tracked: {', '.join(self.parameters())}"
            ) from None

    def pooled(self, parameter: str) -> np.ndarray:
        """Draws for one parameter concatenated across chains."""
        return self.matrix(parameter).reshape(-1)


def draw_inclusion_prob(n_included: int, max_bugs: int, rng: np.random.Generator) -> float:
    """Exact conditional draw of the inclusion probability.

    Given N included candidates out of M under a flat prior, the conditional
    is Beta(N + 1, M - N + 1).
    """
    if not 0 <= n_included <= max_bugs:
        raise ValueError("included count must lie in [0, max_bugs]")
    return float(rng.beta(n_included + 1.0, max_bugs - n_included + 1.0))


def update_inclusion(
    state: AugmentedState,
    campaign: TestCampaign,
    config: ModelConfig,
    rng: np.random.Generator,
    use_likelihood: bool = True,
) -> AugmentedState:
    """Gibbs refresh of the inclusion flags of undetected candidates.

    A candidate that was never detected is included with probability
    ``psi * (1 - alpha) / (psi * (1 - alpha) + 1 - psi)``: being real means
    surviving the campaign undetected, which a large (easily seen) candidate
    almost never does.  Detected candidates stay included.  Updates the
    state in place and returns it.
    """
    psi = state.inclusion_prob
    if use_likelihood:
        miss = np.exp(-_detection_rate(state.size, config.size_exponent, campaign.t_max))
        weight = psi * miss
        q = weight / (weight + (1.0 - psi))
    else:
        q = np.full(state.max_bugs, psi)
    free = ~state.detected
    state.include[free] = rng.random(int(free.sum())) < q[free]
    return state


def update_sizes(
    state: AugmentedState,
    campaign: TestCampaign,
    config: ModelConfig,
    rng: np.random.Generator,
    use_likelihood: bool = True,
) -> float:
    """One independence-proposal Metropolis-Hastings sweep over all sizes.

    Proposals come from each candidate's size prior at its current mean, so
    prior and proposal cancel and the acceptance ratio is the detection
    likelihood alone: an alpha ratio for detected candidates, a nondetection
    ratio for included-but-undetected ones, and certain acceptance for
    excluded candidates (their likelihood is flat, so the move is an exact
    prior refresh).  Rejected proposals keep the current size.  Updates the
    state in place; returns the acceptance fraction among included
    candidates (1.0 if none are included).
    """
    r = config.dispersion
    lam = state.mean_size
    proposal = rng.negative_binomial(r, r / (r + lam)).astype(np.int64)
    if use_likelihood:
        cur = detection_loglik(
            state.size, state.include, state.detected, config.size_exponent, campaign.t_max
        )
        new = detection_loglik(
            proposal, state.include, state.detected, config.size_exponent, campaign.t_max
        )
        log_ratio = new - cur
    else:
        log_ratio = np.zeros(state.max_bugs)
    with np.errstate(divide="ignore"):
        accept = np.log(rng.random(state.max_bugs)) < log_ratio
    state.size = np.where(accept, proposal, state.size)
    if not state.include.any():
        return 1.0
    return float(accept[state.include].mean())


def update_mean_sizes(
    state: AugmentedState,
    config: ModelConfig,
    rng: np.random.Generator,
) -> float:
    """One Metropolis-Hastings sweep over all size means.

    The target for each candidate is the size pmf at its current size times
    the gamma prior on the mean.  The proposal Gamma(shape + size, rate + 1)
    is the exact conditional were sizes Poisson, so the correction compares
    the negative-binomial pmf against the Poisson kernel at proposed and
    current means; it tends to 1 as dispersion grows.  Updates the state in
    place; returns the overall acceptance fraction.
    """
    a = config.mean_size_shape
    b = config.mean_size_rate
    r = config.dispersion
    s = state.size.astype(float)
    proposal = rng.gamma(a + s, 1.0 / (b + 1.0))
    cur = state.mean_size
    # nb_log_pmf(s, lam, r) - (s*log(lam) - lam) = const(s) - (r + s)*log(r + lam) + lam,
    # so every gammaln term depends on the size alone and cancels from the ratio
    log_ratio = (proposal - cur) - (r + s) * np.log((r + proposal) / (r + cur))
    with np.errstate(divide="ignore"):
        accept = np.log(rng.random(state.max_bugs)) < log_ratio
    state.mean_size = np.where(accept, proposal, cur)
    return float(accept.mean())


def _resolve_track(track: tuple[int, ...] | None, max_bugs: int) -> tuple[int, ...]:
    if track is None:
        picks = [0, 1, max_bugs - 2, max_bugs - 1]
        return tuple(sorted({i for i in picks if 0 <= i < max_bugs}))
    for i in track:
        if not 0 <= i < max_bugs:
            raise ValueError(f"tracked candidate index {i} out of range for max_bugs={max_bugs}")
    return tuple(track)


def _initial_state(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    rng: np.random.Generator,
) -> AugmentedState:
    m = model_config.max_bugs
    n = campaign.detected_total
    detected = np.zeros(m, dtype=bool)
    detected[:n] = True
    include = detected | (rng.random(m) < 0.5)
    if sampler_config.fixed_mean_size is not None:
        mean_size = np.full(m, float(sampler_config.fixed_mean_size))
    else:
        mean_size = rng.gamma(model_config.mean_size_shape, 1.0 / model_config.mean_size_rate, m)
    r = model_config.dispersion
    size = rng.negative_binomial(r, r / (r + mean_size)).astype(np.int64)
    # a detected bug of size 0 would be undetectable; start those at size 1
    size = np.maximum(size, detected)
    psi = float(rng.random())
    return AugmentedState(include, size, mean_size, psi, detected)


def run_chain(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    chain_index: int,
    rng: np.random.Generator,
) -> ChainDraws:
    """Run a single chain and return its kept draws.

    Starts are dispersed: detected candidates included, the rest coin flips,
    and sizes, size means and the inclusion probability drawn from their
    priors.  Always records the inclusion probability, the included-bug
    count and the remaining (included-but-undetected) total size, plus
    inclusion, size and size-mean trajectories for the tracked candidates.
    """
    m = model_config.max_bugs
    n = campaign.detected_total
    if m < n:
        raise ValueError(f"candidate ceiling {m} below detected count {n}")
    if campaign.t_max < 1:
        raise ValueError("no testing effort: every cell has zero test cases")

    state = _initial_state(campaign, model_config, sampler_config, rng)
    track = _resolve_track(sampler_config.track, m)
    burn_in = sampler_config.effective_burn_in
    kept = sampler_config.kept_per_chain

    names = ["inclusion_prob", "total_bugs", "remaining_size"]
    names += [f"include[{i}]" for i in track]
    names += [f"size[{i}]" for i in track]
    names += [f"mean_size[{i}]" for i in track]
    draws = {name: np.empty(kept) for name in names}
    kept_iters = np.empty(kept, dtype=np.int64)
    candidate_draws = None
    if sampler_config.keep_candidate_draws:
        candidate_draws = {
            key: np.empty((kept, m)) for key in ("include", "size", "mean_size")
        }

    accept_size = 0.0
    accept_mean = 0.0
    out = 0
    for it in range(sampler_config.iterations):
        update_inclusion(state, campaign, model_config, rng, sampler_config.use_likelihood)
        state.inclusion_prob = draw_inclusion_prob(state.total_bugs, m, rng)
        accept_size += update_sizes(
            state, campaign, model_config, rng, sampler_config.use_likelihood
        )
        if sampler_config.fixed_mean_size is None:
            accept_mean += update_mean_sizes(state, model_config, rng)
        if it >= burn_in and (it - burn_in) % sampler_config.thin == 0:
            kept_iters[out] = it
            draws["inclusion_prob"][out] = state.inclusion_prob
            draws["total_bugs"][out] = state.total_bugs
            draws["remaining_size"][out] = state.size[state.include & ~state.detected].sum()
            for i in track:
                draws[f"include[{i}]"][out] = state.include[i]
                draws[f"size[{i}]"][out] = state.size[i]
                draws[f"mean_size[{i}]"][out] = state.mean_size[i]
            if candidate_draws is not None:
                candidate_draws["include"][out] = state.include
                candidate_draws["size"][out] = state.size
                candidate_draws["mean_size"][out] = state.mean_size
            out += 1

    total = float(sampler_config.iterations)
    acceptance = {"size": accept_size / total}
    if sampler_config.fixed_mean_size is None:
        acceptance["mean_size"] = accept_mean / total
    return ChainDraws(
        chain=chain_index,
        seed_key=f"{sampler_config.seed}:{chain_index}",
        iterations=kept_iters,
        draws=draws,
        acceptance=acceptance,
        candidate_draws=candidate_draws,
    )


def _run_chain_job(args) -> ChainDraws:
    campaign, model_config, sampler_config, chain_index, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    return run_chain(campaign, model_config, sampler_config, chain_index, rng)


def run_all(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
) -> ChainSet:
    """Run the configured number of independent chains.

    Per-chain generators are spawned from the base seed, so reruns with the
    same seed are bit-identical while chains stay statistically independent.
    Chains run concurrently when ``workers > 1``; results are assembled in
    chain order either way.
    """
    if model_config.max_bugs < campaign.detected_total:
        raise ValueError(
            f"candidate ceiling {model_config.max_bugs} below detected count "
            f"{campaign.detected_total}"
        )
    if campaign.t_max < 1:
        raise ValueError("no testing effort: every cell has zero test cases")

    seqs = np.random.SeedSequence(sampler_config.seed).spawn(sampler_config.chains)
    jobs = [
        (campaign, model_config, sampler_config, i, seq) for i, seq in enumerate(seqs)
    ]
    results: list[ChainDraws | None] = [None] * sampler_config.chains
    if sampler_config.workers > 1 and sampler_config.chains > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(sampler_config.workers, sampler_config.chains)
        ) as pool:
            futures = {pool.submit(_run_chain_job, job): job[3] for job in jobs}
            for fut in concurrent.futures.as_completed(futures):
                idx = futures[fut]
                try:
                    results[idx] = fut.result()
                except Exception as exc:
                    raise RuntimeError(f"chain {idx} failed: {exc}") from exc
    else:
        for job in jobs:
            try:
                results[job[3]] = _run_chain_job(job)
            except ValueError:
                raise
            except Exception as exc:
                raise RuntimeError(f"chain {job[3]} failed: {exc}") from exc
    return ChainSet(
        chains=[c for c in results if c is not None],
        base_seed=sampler_config.seed,
        iterations=sampler_config.iterations,
        burn_in=sampler_config.effective_burn_in,
        thin=sampler_config.thin,
    )
