"""Metropolis-within-Gibbs sampler over the augmented candidate list.

Each sweep updates, in order: the inclusion flags of undetected candidates
(exact Bernoulli conditional), the inclusion probability (exact beta
conditional), every candidate's size (independence proposal from the size
prior), and every candidate's size mean (conjugate-gamma surrogate
proposal with a Metropolis-Hastings correction).  Chains are independent,
each owning a seeded random generator spawned from the base seed.

The campaign reaches the sampler as two numbers, the detected count ``n``
and ``t_max``: candidates ``[:n]`` are the detected ones, always included.

Sizes are integer counts, so the sweep reads the detection kernel through
one lookup, ``model._detection_kernel``, by size in a table built once per
``(nu, t_max)``: the rate ``x = size**nu / t_max``, the escape chance
``exp(-x)`` and ``log(alpha)``, each the bits a direct evaluation gives (a
size past the table's end is evaluated directly).  It reads them only where
they are needed: the inclusion update for the undetected candidates, the
sizes update for the included candidates alone (an excluded candidate's
likelihood is flat, so it takes its proposal for certain), at their current
and proposed sizes, with ``log(alpha)`` for the detected ones.  Its random
calls, their arguments and their order are those of evaluating the full
detection log-likelihood of every candidate at both sizes, so the draws are
the same bit for bit.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (
    AugmentedState,
    ModelConfig,
    TestCampaign,
    _detection_kernel,
    _draw_sizes,
    nb_log_pmf,  # not called here; perfbench's tracer wraps sampler.nb_log_pmf
)

__all__ = [
    "SamplerConfig",
    "ChainSet",
    "draw_inclusion_prob",
    "update_inclusion",
    "update_sizes",
    "update_mean_sizes",
    "run_all",
]


# The most sweeps a default burn-in discards: 5 times the slowest settling
# measured.  From dispersed, all-included and all-excluded starts, every
# chain's total_bugs entered its stationary 99% band within 40 sweeps, on
# campaigns of M = 400 to 40,000 candidates (the table is in ROADMAP.md,
# item 5).
DEFAULT_BURN_IN_CAP = 200

# The bytes a sweep holds per candidate: the chain's state and the updates'
# temporaries.  numpy's peak allocation in a serial run_all on the bundled
# campaign (tracemalloc, 4 sweeps) is 65.0 bytes per candidate at max_bugs =
# 1,000,000, for 1 and 3 chains; a serial fit's peak RSS grows by 66 to 73
# bytes per candidate between 1,000,000 and 2,000,000, as the allocator's
# state has it.  The lower figure keeps the memory check a floor.
_SWEEP_BYTES_PER_CANDIDATE = 65

# The quantities a run records, in the order of ``run_chain``'s table rows.
_DRAW_NAMES = ("inclusion_prob", "total_bugs", "remaining_size")


@dataclass(frozen=True)
class SamplerConfig:
    """Run settings for the Gibbs sampler.

    ``burn_in`` defaults to half the iterations, at most
    ``DEFAULT_BURN_IN_CAP``: chains forget their start within a few dozen
    sweeps, so a long run need not discard half its work.  A run records
    ``inclusion_prob``, ``total_bugs`` and ``remaining_size``.
    """

    chains: int = 3
    iterations: int = 50_000
    burn_in: int | None = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.burn_in is not None and not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
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
    rates.  A name is one or more ASCII letters, digits, ``_``, ``[`` or
    ``]``, so it fits a draws row and a trace file name.
    """

    names: list[str]
    draws: np.ndarray
    acceptance: list[dict[str, float]]
    base_seed: int
    iterations: int
    burn_in: int

    def __post_init__(self):
        shape = (len(self.acceptance), len(self.names), self.kept_per_chain)
        if self.draws.shape != shape:
            raise ValueError(f"draws of shape {self.draws.shape}; (chains, parameters, kept) "
                             f"is {shape}")
        if len(set(self.names)) != len(self.names):
            repeat = next(name for i, name in enumerate(self.names) if name in self.names[:i])
            raise ValueError(f"parameter {repeat!r} repeats")
        bad = [name for name in self.names if not re.fullmatch(r"[A-Za-z0-9_\[\]]+", name)]
        if bad:
            raise ValueError(f"parameter name {bad[0]!r} must be one or more ASCII letters, "
                             "digits, '_', '[' or ']'")

    @property
    def n_chains(self) -> int:
        return len(self.acceptance)

    @property
    def kept_iterations(self) -> range:
        return range(self.burn_in, self.iterations)

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
    weight = psi * _detection_kernel(config.size_exponent, t_max, "escape", state.size[n:])
    q = weight / (weight + (1.0 - psi))
    state.include[n:] = rng.random(state.max_bugs - n) < q
    return state


def update_sizes(
    state: AugmentedState,
    t_max: int,
    config: ModelConfig,
    rng: np.random.Generator,
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
    proposal = _draw_sizes(state.mean_size, config.dispersion, rng)
    u = rng.random(state.max_bugs)
    # log(u) < 0 for every u in [0, 1), so a candidate with a flat likelihood
    # takes its proposal for certain: only included candidates are scored
    # (the detected ones, always included, are the first n of them)
    scored = np.flatnonzero(state.include)
    if scored.size:
        n = state.n_detected
        kernel = partial(_detection_kernel, config.size_exponent, t_max)
        cur, new = state.size[scored], proposal[scored]
        # -rate[new] - (-rate[cur]) equals rate[cur] - rate[new] exactly, so an
        # undetected candidate's ratio is one subtraction; the n detected ones,
        # always included, come first and take the log(alpha) ratio.  A rate
        # is inf where detection is certain, and inf - inf is nan, but only in
        # the detected prefix that the next line overwrites: the inclusion
        # update has just excluded every candidate that cannot escape
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = kernel("rate", cur) - kernel("rate", new)
            log_ratio[:n] = kernel("log_alpha", new[:n]) - kernel("log_alpha", cur[:n])
            accept = np.log(u[scored]) < log_ratio
        proposal[scored] = np.where(accept, new, cur)
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
    # numpy draws gamma(shape, scale) as scale * standard_gamma(shape): the
    # same bits, without the array check of a scale argument
    proposal = rng.standard_gamma(a + s) * (1.0 / (b + 1.0))
    cur = state.mean_size
    # nb_log_pmf(s, lam, r) - (s*log(lam) - lam) = const(s) - (r + s)*log(r + lam) + lam,
    # so every gammaln term depends on the size alone and cancels from the ratio
    log_ratio = (proposal - cur) - (r + s) * np.log((r + proposal) / (r + cur))
    with np.errstate(divide="ignore"):
        accept = np.log(rng.random(state.max_bugs)) < log_ratio
    state.mean_size = np.where(accept, proposal, cur)
    return float(np.count_nonzero(accept) / state.max_bugs)


def _check_campaign(campaign: TestCampaign, model_config: ModelConfig) -> None:
    """Reject a campaign that the model under ``model_config`` cannot fit."""
    if model_config.max_bugs < campaign.detected_total:
        raise ValueError(f"candidate ceiling {model_config.max_bugs} below detected count "
                         f"{campaign.detected_total}")
    if campaign.t_max < 1:
        raise ValueError("no testing effort: every cell has zero test cases")


def _physical_memory() -> float:
    """Bytes of physical memory as the OS reports them; infinite where it reports none."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _check_memory(model_config: ModelConfig, sampler_config: SamplerConfig) -> None:
    """Reject a fit whose chain states and kept draws alone exceed physical memory.

    Each worker holds one chain's sweep at a time, and the kept draws are
    8-byte floats, one per chain, recorded quantity and kept sweep.
    """
    chains = sampler_config.chains
    workers = min(sampler_config.workers, chains)
    kept = sampler_config.iterations - sampler_config.effective_burn_in
    need = (workers * _SWEEP_BYTES_PER_CANDIDATE * model_config.max_bugs
            + 8 * chains * len(_DRAW_NAMES) * kept)
    have = _physical_memory()
    if need > have:
        raise ValueError(f"a fit of max_bugs={model_config.max_bugs} with {chains} chains "
                         f"needs at least {need:,} bytes for its chain states and kept draws, "
                         f"more than the {have:,} bytes of physical memory")


@dataclass
class _Run:
    """A chain between two sweeps: its state and generator, the next sweep, and acceptance sums."""

    state: AugmentedState
    rng: np.random.Generator
    it: int = 0
    accept_size: float = 0.0
    accept_mean: float = 0.0


def _start_chain(n: int, model_config: ModelConfig, rng: np.random.Generator) -> _Run:
    """Draw the start of a chain on ``n`` detected candidates; no sweep has run.

    Starts are dispersed: detected candidates included, the rest coin flips,
    and sizes, size means and the inclusion probability drawn from their
    priors.
    """
    m = model_config.max_bugs
    include = rng.random(m) < 0.5
    include[:n] = True
    mean_size = rng.gamma(model_config.mean_size_shape, 1.0 / model_config.mean_size_rate, m)
    size = _draw_sizes(mean_size, model_config.dispersion, rng)
    # a detected bug of size 0 would be undetectable; start those at size 1
    size[:n] = np.maximum(size[:n], 1)
    psi = float(rng.random())
    return _Run(AugmentedState(include, size, mean_size, psi, n), rng)


def run_chain(
    n: int,
    t_max: int,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    run: _Run,
    stop: int,
) -> tuple[np.ndarray, _Run]:
    """Run sweeps ``[run.it, stop)``; return the table columns they keep and the run after them.

    Records the inclusion probability, the included-bug count and the
    remaining (included-but-undetected) total size: one table row per
    ``_DRAW_NAMES`` entry, one column per sweep from the burn-in on.  The
    acceptance sums carry on from ``run``, added to in sweep order, so a chain
    advanced in consecutive pieces ends with the same floats as one advanced
    in a single piece.  perfbench's trace times sweeps by this name.
    """
    m = model_config.max_bugs
    here = range(max(run.it, sampler_config.effective_burn_in), stop)

    table = np.empty((len(_DRAW_NAMES), len(here)))

    state, rng = run.state, run.rng
    accept_size = run.accept_size
    accept_mean = run.accept_mean
    for it in range(run.it, stop):
        update_inclusion(state, t_max, model_config, rng)
        state.inclusion_prob = draw_inclusion_prob(state.total_bugs, m, rng)
        accept_size += update_sizes(state, t_max, model_config, rng)
        accept_mean += update_mean_sizes(state, model_config, rng)
        if it in here:
            col = it - here.start
            table[0, col] = state.inclusion_prob
            table[1, col] = state.total_bugs
            table[2, col] = np.dot(state.size[n:], state.include[n:])
    return table, _Run(state, rng, stop, accept_size, accept_mean)


def _finish_chain(sampler_config: SamplerConfig, run: _Run) -> dict[str, float]:
    """The acceptance rates of a chain that has run every sweep."""
    total = float(sampler_config.iterations)
    return {"size": run.accept_size / total, "mean_size": run.accept_mean / total}


def _run_segment(
    n: int,
    t_max: int,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
    chain_index: int,
    run: _Run | np.random.SeedSequence,
    stop: int,
) -> tuple[np.ndarray, _Run] | Exception:
    """Run one chain up to sweep ``stop``, from its seed or from the run its last segment left.

    Returns the kept table with the run after it; the chain reads the campaign
    as ``n`` and ``t_max``, which ``run_all`` has checked.  An error is
    returned, not raised, so that ``run_all`` can pick which to raise: a
    ``ValueError`` as it is, any other as a ``RuntimeError`` naming the chain.
    """
    try:
        if isinstance(run, np.random.SeedSequence):
            run = _start_chain(n, model_config, np.random.default_rng(run))
        return run_chain(n, t_max, model_config, sampler_config, run, stop)
    except ValueError as exc:
        return exc
    except Exception as exc:
        named = RuntimeError(f"chain {chain_index} failed: {exc}")
        named.__cause__ = exc
        return named


@contextmanager
def _round_map(workers: int):
    """The ``map`` that runs a round of segments: the builtin for one worker, else a pool's."""
    if workers == 1:
        yield map
        return
    # imported here: a serial command need not load the pool or its logging
    import concurrent.futures

    # The platform's default start method is kept on purpose (fork on Linux;
    # the CLI has no Python threads when it forks).  A spawn pool re-imports
    # numpy and bugsize in every worker, and was slower than the serial path
    # on a 2,000-iteration fit of the bundled campaign.
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def run_all(
    campaign: TestCampaign,
    model_config: ModelConfig,
    sampler_config: SamplerConfig,
) -> ChainSet:
    """Run the configured number of independent chains.

    Per-chain generators are spawned from the base seed, so reruns with the
    same seed are bit-identical while chains stay statistically independent.
    ``W = min(workers, chains)`` workers share the chains: each chain runs
    as ``P = W / gcd(chains, W)`` consecutive sweep segments (whole when W
    divides the chain count), its state, generator and acceptance sums
    passing from one to the next.  Segment ``k`` of chain ``c`` is task
    ``k * chains + c``, and the tasks run in rounds of W consecutive ones,
    each round one ``map`` over a process pool (the builtin ``map``, in this
    process, when W is 1).  As W <= chains, a round holds a chain at most
    once and after the round of its previous segment; the chains * P / W
    rounds take one segment's time each, so 3 chains on 2 workers take 1.5
    chain-times rather than 2.  A chain's draws are the same bytes for any W.

    The campaign and the memory estimate are checked once, before any worker
    starts; a chain reads the campaign only as its detected count ``n`` and
    ``t_max``.  A failing chain raises the error a serial run would: a
    ``ValueError`` unchanged, anything else as a ``RuntimeError`` naming the
    chain.  Once one fails, only lower-numbered chains, which may fail too,
    take further segments; the lowest failed chain's error is raised.
    """
    _check_campaign(campaign, model_config)
    _check_memory(model_config, sampler_config)
    count = sampler_config.chains
    workers = min(sampler_config.workers, count)
    pieces = workers // math.gcd(count, workers)
    stops = [(k + 1) * sampler_config.iterations // pieces for k in range(pieces)]
    segment = partial(_run_segment, campaign.detected_total, campaign.t_max, model_config,
                      sampler_config)
    # a chain's seed until its first segment returns, its acceptance rates after its last
    runs: list = np.random.SeedSequence(sampler_config.seed).spawn(count)
    parts: list[list[np.ndarray]] = [[] for _ in range(count)]
    failed: dict[int, Exception] = {}
    with _round_map(workers) as run_round:
        for first in range(0, count * pieces, workers):
            lowest = min(failed, default=count)
            chains = [t % count for t in range(first, first + workers) if t % count < lowest]
            results = run_round(segment, chains, [runs[c] for c in chains],
                                [stops[len(parts[c])] for c in chains])
            for c, result in zip(chains, results):
                if isinstance(result, Exception):
                    failed[c] = result
                else:
                    table, run = result
                    parts[c].append(table)
                    runs[c] = run if len(parts[c]) < pieces else _finish_chain(sampler_config, run)
                    del result, run  # else a serial round holds them while the next chain runs
    if failed:
        raise failed[min(failed)]
    return ChainSet(
        names=list(_DRAW_NAMES),
        draws=np.stack([np.concatenate(p, axis=1) for p in parts]), acceptance=runs,
        base_seed=sampler_config.seed, iterations=sampler_config.iterations,
        burn_in=sampler_config.effective_burn_in,
    )
