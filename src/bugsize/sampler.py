"""Metropolis-within-Gibbs sampler over the augmented candidate list.

Each sweep updates, in order: the inclusion flags of undetected candidates
(exact Bernoulli conditional), the inclusion probability (exact beta
conditional), every candidate's size (independence proposal from the size
prior), and every candidate's size mean (conjugate-gamma surrogate
proposal with a Metropolis-Hastings correction).  Chains are independent,
each owning a seeded random generator spawned from the base seed.

The campaign reaches the sampler as two numbers, the detected count ``n``
and ``t_max``: candidates ``[:n]`` are the detected ones, always included.

The sweep evaluates the detection kernel ``x = size**nu / t_max`` only
where it is needed: the inclusion update for the undetected candidates, the
sizes update for the included candidates alone (an excluded candidate's
likelihood is flat, so it takes its proposal for certain), at their current
and proposed sizes, with ``log(alpha)`` for the detected ones.  Its random
calls, their arguments and their order are those of evaluating the full
detection log-likelihood of every candidate at both sizes, so the draws are
the same bit for bit.
"""

from __future__ import annotations

import concurrent.futures
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (
    AugmentedState,
    ModelConfig,
    TestCampaign,
    _detection_loglik_ratio,
    _detection_rate,
    nb_log_pmf,  # not called here; perfbench's tracer wraps sampler.nb_log_pmf
)

__all__ = [
    "SamplerConfig",
    "ChainSet",
    "draw_inclusion_prob",
    "update_inclusion",
    "update_sizes",
    "update_mean_sizes",
    "run_chain",
    "run_all",
]


# The most sweeps a default burn-in discards: 5 times the slowest settling
# measured.  From dispersed, all-included and all-excluded starts, every
# chain's total_bugs entered its stationary 99% band within 40 sweeps, on
# campaigns of M = 400 to 40,000 candidates (the table is in ROADMAP.md,
# item 5).
DEFAULT_BURN_IN_CAP = 200


@dataclass(frozen=True)
class SamplerConfig:
    """Run settings for the Gibbs sampler.

    ``burn_in`` defaults to half the iterations, at most
    ``DEFAULT_BURN_IN_CAP``: chains forget their start within a few dozen
    sweeps, so a long run need not discard half its work.  A run always records
    ``inclusion_prob``, ``total_bugs`` and ``remaining_size``; ``track``
    names candidates whose inclusion, size and size-mean trajectories are
    recorded too (none by default; recording draws no random numbers).
    ``use_likelihood=False`` drops every detection-likelihood term so the
    sampler targets the bare prior (a testing hook), and
    ``fixed_mean_size`` freezes all size means at a constant.
    """

    chains: int = 3
    iterations: int = 50_000
    burn_in: int | None = None
    seed: int = 0
    thin: int = 1
    track: tuple[int, ...] = ()
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
        if self.burn_in is None:
            return min(self.iterations // 2, DEFAULT_BURN_IN_CAP)
        return self.burn_in


@dataclass
class ChainSet:
    """Kept draws from independent chains, all at ``kept_iterations``, and their run settings.

    ``draws[c, p, k]`` is chain ``c``'s draw of parameter ``names[p]`` at
    iteration ``kept_iterations[k]``: a float array of shape (chains,
    parameters, kept), in the order the draws file lists it.  A chain's id
    is its position, and ``acceptance[c]`` holds chain ``c``'s acceptance
    rates.
    """

    names: list[str]
    draws: np.ndarray
    acceptance: list[dict[str, float]]
    base_seed: int
    iterations: int
    burn_in: int
    thin: int

    def __post_init__(self):
        shape = (len(self.acceptance), len(self.names), self.kept_per_chain)
        if self.draws.shape != shape:
            raise ValueError(f"draws of shape {self.draws.shape}; (chains, parameters, kept) "
                             f"is {shape}")
        if len(set(self.names)) != len(self.names):
            repeat = next(name for i, name in enumerate(self.names) if name in self.names[:i])
            raise ValueError(f"parameter {repeat!r} repeats")

    @property
    def n_chains(self) -> int:
        return len(self.acceptance)

    @property
    def kept_iterations(self) -> range:
        return range(self.burn_in, self.iterations, self.thin)

    @property
    def kept_per_chain(self) -> int:
        return len(self.kept_iterations)

    def seed_keys(self) -> list[str]:
        """Each chain's seed key, ``base_seed:chain``, in chain order."""
        return [f"{self.base_seed}:{c}" for c in range(self.n_chains)]

    def matrix(self, parameter: str) -> np.ndarray:
        """Draws for one parameter as a (chains, kept) view."""
        try:
            return self.draws[:, self.names.index(parameter)]
        except ValueError:
            raise KeyError(
                f"unknown parameter {parameter!r}; tracked: {', '.join(self.names)}"
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
    t_max: int,
    config: ModelConfig,
    rng: np.random.Generator,
    use_likelihood: bool = True,
) -> AugmentedState:
    """Gibbs refresh of the inclusion flags of undetected candidates.

    A candidate that was never detected is included with probability
    ``psi * (1 - alpha) / (psi * (1 - alpha) + 1 - psi)``: being real means
    surviving the campaign undetected, which a large (easily seen) candidate
    almost never does.  Detected candidates, ``[:n]``, stay included.
    Updates the state in place and returns it.
    """
    psi = state.inclusion_prob
    n = state.n_detected
    if use_likelihood:
        x = _detection_rate(state.size[n:], config.size_exponent, t_max)
        weight = psi * np.exp(-x)
        q = weight / (weight + (1.0 - psi))
    else:
        q = psi
    state.include[n:] = rng.random(state.max_bugs - n) < q
    return state


def update_sizes(
    state: AugmentedState,
    t_max: int,
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
    proposal = rng.negative_binomial(r, r / (r + state.mean_size)).astype(np.int64, copy=False)
    u = rng.random(state.max_bugs)
    # log(u) < 0 for every u in [0, 1), so a candidate with a flat likelihood
    # takes its proposal for certain: only included candidates are scored
    # (the detected ones, always included, are the first n of them)
    scored = np.flatnonzero(state.include)
    if use_likelihood and scored.size:
        cur = state.size[scored]
        x_cur = _detection_rate(cur, config.size_exponent, t_max)
        x_new = _detection_rate(proposal[scored], config.size_exponent, t_max)
        with np.errstate(divide="ignore"):
            log_ratio = _detection_loglik_ratio(x_new, x_cur, state.n_detected)
            accept = np.log(u[scored]) < log_ratio
        rejected = ~accept
        proposal[scored[rejected]] = cur[rejected]
        state.size = proposal
        return float(np.count_nonzero(accept) / scored.size)
    state.size = proposal
    return 1.0


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
    return float(np.count_nonzero(accept) / state.max_bugs)


def _check_track(track: tuple[int, ...], max_bugs: int) -> None:
    for i in track:
        if not 0 <= i < max_bugs:
            raise ValueError(f"tracked candidate index {i} out of range for max_bugs={max_bugs}")
    if len(set(track)) != len(track):
        raise ValueError(f"tracked candidate indices repeat: {tuple(track)}")


def _draw_names(track) -> list[str]:
    """Recorded quantities, in the order of ``run_chain``'s table rows."""
    names = ["inclusion_prob", "total_bugs", "remaining_size"]
    return names + [f"{key}[{i}]" for key in ("include", "size", "mean_size") for i in track]


def _check_campaign(campaign: TestCampaign, model_config: ModelConfig) -> None:
    """Reject a campaign that the model under ``model_config`` cannot fit."""
    if model_config.max_bugs < campaign.detected_total:
        raise ValueError(f"candidate ceiling {model_config.max_bugs} below detected count "
                         f"{campaign.detected_total}")
    if campaign.t_max < 1:
        raise ValueError("no testing effort: every cell has zero test cases")


def _initial_state(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    rng: np.random.Generator,
) -> AugmentedState:
    m = model_config.max_bugs
    n = campaign.detected_total
    include = rng.random(m) < 0.5
    include[:n] = True
    if sampler_config.fixed_mean_size is not None:
        mean_size = np.full(m, float(sampler_config.fixed_mean_size))
    else:
        mean_size = rng.gamma(model_config.mean_size_shape, 1.0 / model_config.mean_size_rate, m)
    r = model_config.dispersion
    size = rng.negative_binomial(r, r / (r + mean_size)).astype(np.int64)
    # a detected bug of size 0 would be undetectable; start those at size 1
    size[:n] = np.maximum(size[:n], 1)
    psi = float(rng.random())
    return AugmentedState(include, size, mean_size, psi, n)


@dataclass
class _Run:
    """A chain between two sweeps: its state and generator, the next sweep, and acceptance sums."""

    state: AugmentedState
    rng: np.random.Generator
    it: int = 0
    accept_size: float = 0.0
    accept_mean: float = 0.0


def _start_chain(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    rng: np.random.Generator,
) -> _Run:
    """Check the inputs, then draw the chain's dispersed start; no sweep has run."""
    _check_campaign(campaign, model_config)
    _check_track(sampler_config.track, model_config.max_bugs)
    return _Run(_initial_state(campaign, model_config, sampler_config, rng), rng)


def _advance_chain(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    run: _Run,
    stop: int,
) -> tuple[np.ndarray, _Run]:
    """Run sweeps ``[run.it, stop)``; return the table columns they keep and the run after them.

    The acceptance sums carry on from ``run``, added to in sweep order, so a
    chain advanced in consecutive pieces ends with the same floats as one
    advanced in a single piece.
    """
    m = model_config.max_bugs
    n = campaign.detected_total
    t_max = campaign.t_max

    track = np.array(sampler_config.track, dtype=np.intp)
    kept = range(sampler_config.effective_burn_in, sampler_config.iterations, sampler_config.thin)
    # the first len(range(kept.start, x, kept.step)) kept iterations are those below x
    first, end = (len(range(kept.start, x, kept.step)) for x in (run.it, stop))
    here = kept[first:end]
    use_likelihood = sampler_config.use_likelihood
    update_means = sampler_config.fixed_mean_size is None

    table = np.empty((len(_draw_names(track)), len(here)))

    state, rng = run.state, run.rng
    accept_size = run.accept_size
    accept_mean = run.accept_mean
    for it in range(run.it, stop):
        update_inclusion(state, t_max, model_config, rng, use_likelihood)
        state.inclusion_prob = draw_inclusion_prob(state.total_bugs, m, rng)
        accept_size += update_sizes(state, t_max, model_config, rng, use_likelihood)
        if update_means:
            accept_mean += update_mean_sizes(state, model_config, rng)
        if it in here:
            remaining = np.dot(state.size[n:], state.include[n:])
            table[:, here.index(it)] = np.concatenate((
                (state.inclusion_prob, state.total_bugs, remaining),
                state.include[track], state.size[track], state.mean_size[track],
            ))
    return table, _Run(state, rng, stop, accept_size, accept_mean)


def _finish_chain(sampler_config: SamplerConfig, run: _Run) -> dict[str, float]:
    """The acceptance rates of a chain that has run every sweep."""
    total = float(sampler_config.iterations)
    acceptance = {"size": run.accept_size / total}
    if sampler_config.fixed_mean_size is None:
        acceptance["mean_size"] = run.accept_mean / total
    return acceptance


def run_chain(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, dict[str, float]]:
    """Run a single chain; return its kept draws and its acceptance rates.

    Starts are dispersed: detected candidates included, the rest coin flips,
    and sizes, size means and the inclusion probability drawn from their
    priors.  Always records the inclusion probability, the included-bug
    count and the remaining (included-but-undetected) total size, plus
    inclusion, size and size-mean trajectories for the tracked candidates, if any:
    one table row per ``_draw_names(track)`` entry, one column per kept
    iteration.
    """
    run = _start_chain(campaign, model_config, sampler_config, rng)
    table, run = _advance_chain(campaign, model_config, sampler_config, run,
                                sampler_config.iterations)
    return table, _finish_chain(sampler_config, run)


@contextmanager
def _naming_chain(chain_index: int):
    """Let an input error through unchanged; re-raise any other naming the chain."""
    try:
        yield
    except ValueError:
        raise
    except Exception as exc:
        raise RuntimeError(f"chain {chain_index} failed: {exc}") from exc


def _run_chain_job(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    chain_index: int,
    seed_seq: np.random.SeedSequence,
) -> tuple[np.ndarray, dict[str, float]]:
    """Run one chain from its seed, serially."""
    with _naming_chain(chain_index):
        return run_chain(campaign, model_config, sampler_config, np.random.default_rng(seed_seq))


def _run_segment(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    chain_index: int,
    run: _Run | np.random.SeedSequence,
    stop: int,
) -> tuple[np.ndarray, _Run]:
    """Advance one chain up to sweep ``stop`` in a worker; start it first if ``run`` is its seed."""
    with _naming_chain(chain_index):
        if isinstance(run, np.random.SeedSequence):
            run = _start_chain(campaign, model_config, sampler_config, np.random.default_rng(run))
        return _advance_chain(campaign, model_config, sampler_config, run, stop)


def _run_pooled(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    seqs: list[np.random.SeedSequence],
    workers: int,
) -> tuple[list[np.ndarray], list[dict[str, float]]]:
    """Run C chains on W = ``workers`` processes, each as P = W / gcd(C, W) sweep segments.

    Segment ``k`` of a chain runs sweeps up to ``(k + 1) * iterations // P``,
    from the state, generator and acceptance sums the chain's previous
    segment handed back, so a chain's next segment is ready once the one
    before returns.  A free worker takes the ready chain with the most
    segments left, the lowest-numbered on ties; at most W run at a time.
    With equal segments that is Hu's (1961) highest-level-first rule for
    unit tasks in chains: C >= W chains of S sweeps fill C * P / W whole
    rounds and finish in C * S / W, however ``wait`` batches the segments
    that end together, where one worker per whole chain takes
    ceil(C / W) * S.  First-come order can leave a chain's last segment a
    round of its own (4 chains on 3 workers in 5 rounds, not 4).

    A failing chain raises the error the serial path would: chains numbered
    below it run to their end, since one of them may fail too, then the
    lowest failed chain's error is raised.  No segment of a chain numbered
    above it starts once the failure is seen.
    """
    segment = partial(_run_segment, campaign, model_config, sampler_config)
    pieces = workers // math.gcd(len(seqs), workers)
    stops = [(k + 1) * sampler_config.iterations // pieces for k in range(pieces)]
    runs: list = list(seqs)  # a chain's seed until its first segment returns
    parts: list[list[np.ndarray]] = [[] for _ in seqs]
    ready = set(range(len(seqs)))
    running: dict[concurrent.futures.Future, int] = {}
    failed: dict[int, Exception] = {}
    # The platform's default start method is kept on purpose (fork on Linux;
    # the CLI has no Python threads when it forks).  A spawn pool re-imports
    # numpy and bugsize in every worker, and was slower than the serial path
    # on a 2,000-iteration fit of the bundled campaign.
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        while True:
            while ready and len(running) < workers:
                c = min(ready, key=lambda c: (len(parts[c]), c))
                ready.remove(c)
                if not failed or c < min(failed):
                    running[pool.submit(segment, c, runs[c], stops[len(parts[c])])] = c
            if not running:
                break
            done, _ = concurrent.futures.wait(
                running, return_when=concurrent.futures.FIRST_COMPLETED)
            for future in done:
                c = running.pop(future)
                try:
                    table, runs[c] = future.result()
                except Exception as exc:
                    failed[c] = exc
                    continue
                parts[c].append(table)
                if len(parts[c]) < pieces:
                    ready.add(c)
    if failed:
        raise failed[min(failed)]
    return ([np.concatenate(p, axis=1) for p in parts],
            [_finish_chain(sampler_config, run) for run in runs])


def run_all(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
) -> ChainSet:
    """Run the configured number of independent chains.

    Per-chain generators are spawned from the base seed, so reruns with the
    same seed are bit-identical while chains stay statistically independent.
    With ``workers > 1`` and more than one chain, ``W = min(workers,
    chains)`` worker processes share the chains: each chain runs as ``W /
    gcd(chains, W)`` consecutive sweep segments (whole when W divides the
    chain count), its state, generator and acceptance sums passing from one
    to the next, so 3 chains on 2 workers take 1.5 chain-times rather than
    2 (see ``_run_pooled``).  A chain's draws are the same bytes either way.
    A failing chain raises the same error as it would serially: a
    ``ValueError`` unchanged, anything else as a ``RuntimeError`` naming the
    first failed chain in chain order.
    """
    n = sampler_config.chains
    seqs = np.random.SeedSequence(sampler_config.seed).spawn(n)
    workers = min(sampler_config.workers, n)
    if workers > 1:
        tables, acceptance = _run_pooled(campaign, model_config, sampler_config, seqs, workers)
    else:
        job = partial(_run_chain_job, campaign, model_config, sampler_config)
        tables, acceptance = zip(*map(job, range(n), seqs))
    return ChainSet(
        names=_draw_names(sampler_config.track),
        draws=np.stack(tables), acceptance=list(acceptance),
        base_seed=sampler_config.seed, iterations=sampler_config.iterations,
        burn_in=sampler_config.effective_burn_in, thin=sampler_config.thin,
    )
