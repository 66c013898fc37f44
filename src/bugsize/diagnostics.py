"""Convergence monitoring and posterior summaries for chain draws.

Implements the split potential scale reduction factor (each chain halved,
between/within variance ratio), an autocorrelation-based multi-chain
effective sample size with initial-monotone-positive-pair truncation, and
per-chain/pooled posterior summary tables with equal-tailed credible
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import ChainSet

__all__ = [
    "ParameterSummary",
    "PosteriorReport",
    "split_rhat",
    "effective_sample_size",
    "summarize",
    "trace_export",
]

# Reported effective sample sizes are clipped at twice the draw count;
# antithetic chains can legitimately exceed the draw count, but unbounded
# estimates are sampling artifacts.
ESS_CAP_FACTOR = 2.0


def _as_chain_matrix(chains, min_len: int) -> np.ndarray:
    try:
        x = np.asarray(chains, dtype=float)
    except ValueError:
        raise ValueError("all chains must have the same length") from None
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError("chains must be a sequence of equal-length 1-D draw sequences")
    if x.shape[0] < 2:
        raise ValueError("need at least two chains")
    if x.shape[1] < min_len:
        raise ValueError(f"chains must hold at least {min_len} draws each")
    return x


def split_rhat(chains, confidence: float = 0.975) -> tuple[float, float]:
    """Split potential scale reduction factor and its upper confidence bound.

    Each chain is halved (dropping the middle draw of odd-length chains) and
    the factor is ``sqrt(((n - 1) / n * W + B / n) / W)`` over the resulting
    sequences of length n, where W is the mean within-sequence variance and
    B is n times the variance of the sequence means.  Values near 1 indicate
    the chains have mixed.  Sampling noise can push the raw ratio a hair
    below 1, so the estimate is floored at 1.  The upper bound scales the
    between/within ratio by an F quantile (degrees of freedom from a
    moment-matched within-variance estimate).

    Returns
    -------
    (rhat, upper) : tuple of float
        Point estimate and upper confidence bound.  Both are 1.0 for
        all-constant chains and inf when chains are stuck at distinct
        constants.
    """
    x = _as_chain_matrix(chains, min_len=4)
    n = x.shape[1] // 2
    seqs = np.concatenate([x[:, :n], x[:, x.shape[1] - n :]], axis=0)
    means = seqs.mean(axis=1)
    variances = seqs.var(axis=1, ddof=1)
    w = float(variances.mean())
    b = float(n * means.var(ddof=1))
    if w == 0.0:
        if b == 0.0:
            return 1.0, 1.0
        return float("inf"), float("inf")
    ratio = b / (n * w)
    rhat = max(1.0, float(np.sqrt((n - 1) / n + ratio)))

    # the quantile functions scipy.stats.chi2.ppf / f.ppf call, imported here
    # so that no command pays for scipy.stats
    from scipy import special

    n_seq = seqs.shape[0]
    var_w = float(variances.var(ddof=1)) / n_seq
    if var_w == 0.0:
        f_quantile = float(2.0 * special.gammaincinv((n_seq - 1) / 2, confidence)) / (n_seq - 1)
    else:
        df_w = 2.0 * w * w / var_w
        f_quantile = float(special.fdtri(n_seq - 1, df_w, confidence))
    upper = float(np.sqrt((n - 1) / n + f_quantile * ratio))
    return rhat, max(upper, rhat)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    # biased (divide by n) autocovariance via FFT, lags 0..n-1
    n = x.shape[0]
    centered = x - x.mean()
    size = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, size)
    return np.fft.irfft(f * np.conj(f), size)[:n] / n


def effective_sample_size(chains) -> float:
    """Multi-chain effective sample size of a tracked scalar.

    Combined-chain autocorrelations are summed in consecutive pairs
    (always non-negative for a reversible chain), truncated at the first
    non-positive pair, forced non-increasing, and folded into the usual
    autocorrelation-time estimate.  Constant chains report the total draw
    count; the result is clipped to twice the total draw count.
    """
    x = _as_chain_matrix(chains, min_len=4)
    m, n = x.shape
    total = m * n
    chain_vars = x.var(axis=1, ddof=1)
    w = float(chain_vars.mean())
    var_plus = w * (n - 1) / n + float(x.mean(axis=1).var(ddof=1))
    if var_plus == 0.0:
        return float(total)

    mean_acov = np.mean([_autocovariance(row) for row in x], axis=0)
    rho = 1.0 - (w - mean_acov) / var_plus
    rho[0] = 1.0
    n_pairs = n // 2
    pairs = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    # the first pair is always kept (it can go negative only for antithetic
    # chains); later pairs stop at the first non-positive one
    nonpositive = np.nonzero(pairs[1:] <= 0.0)[0]
    stop = nonpositive[0] + 1 if nonpositive.size else n_pairs
    kept = np.minimum.accumulate(pairs[:stop])
    tau = max(-1.0 + 2.0 * float(kept.sum()), 1.0 / ESS_CAP_FACTOR)
    return float(min(total / tau, ESS_CAP_FACTOR * total))


@dataclass(frozen=True)
class ParameterSummary:
    """Per-chain and pooled posterior summary of one tracked parameter."""

    name: str
    chain_means: tuple[float, ...]
    chain_sds: tuple[float, ...]
    chain_cvs: tuple[float, ...]
    pooled_mean: float
    ci_lower: float
    ci_upper: float
    rhat: float
    rhat_upper: float
    ess: float


@dataclass
class PosteriorReport:
    """Summaries for every tracked parameter of a chain set."""

    parameters: dict[str, ParameterSummary]
    credible_mass: float
    n_chains: int
    kept_per_chain: int

    def __getitem__(self, name: str) -> ParameterSummary:
        return self.parameters[name]

    def worst_rhat(self) -> tuple[str, float]:
        """Parameter with the largest split scale reduction factor."""
        name = max(self.parameters, key=lambda p: self.parameters[p].rhat)
        return name, self.parameters[name].rhat


def _coefficient_of_variation(mean: float, sd: float) -> float:
    if mean != 0.0:
        return 100.0 * sd / mean
    return 0.0 if sd == 0.0 else float("nan")


def summarize(chainset: ChainSet, credible_mass: float = 0.95) -> PosteriorReport:
    """Posterior summary table over all tracked parameters.

    Per chain: mean, standard deviation and coefficient of variation (in
    percent).  Pooled: the draw-count-weighted mean of the chain means and
    an equal-tailed credible interval from empirical quantiles of the
    pooled draws.  Split scale reduction and effective sample size need at
    least two chains and are reported as nan otherwise.
    """
    if chainset.n_chains == 0 or chainset.kept_per_chain == 0:
        raise ValueError("no kept draws to summarize")
    if not 0.0 < credible_mass < 1.0:
        raise ValueError("credible_mass must lie in (0, 1)")
    tail = round((1.0 - credible_mass) / 2.0, 12)
    summaries: dict[str, ParameterSummary] = {}
    for name in chainset.parameters():
        x = chainset.matrix(name)
        chain_means = x.mean(axis=1)
        chain_sds = x.std(axis=1, ddof=1) if x.shape[1] > 1 else np.zeros(x.shape[0])
        cvs = tuple(
            _coefficient_of_variation(float(mu), float(sd))
            for mu, sd in zip(chain_means, chain_sds)
        )
        counts = np.full(x.shape[0], x.shape[1])
        pooled_mean = float(np.average(chain_means, weights=counts))
        lo, hi = np.quantile(x.reshape(-1), [tail, 1.0 - tail])
        if chainset.n_chains >= 2 and x.shape[1] >= 4:
            rhat, upper = split_rhat(x)
            ess = effective_sample_size(x)
        else:
            rhat = upper = ess = float("nan")
        summaries[name] = ParameterSummary(
            name=name,
            chain_means=tuple(float(v) for v in chain_means),
            chain_sds=tuple(float(v) for v in chain_sds),
            chain_cvs=cvs,
            pooled_mean=pooled_mean,
            ci_lower=float(lo),
            ci_upper=float(hi),
            rhat=float(rhat),
            rhat_upper=float(upper),
            ess=float(ess),
        )
    return PosteriorReport(
        parameters=summaries,
        credible_mass=credible_mass,
        n_chains=chainset.n_chains,
        kept_per_chain=chainset.kept_per_chain,
    )


def trace_export(chainset: ChainSet, parameter: str) -> list[tuple[int, int, float]]:
    """Long-form (chain, iteration, value) records for one parameter.

    Ordered by chain then iteration; ready for any plotting tool.
    """
    if parameter not in chainset.parameters():
        raise KeyError(
            f"unknown parameter {parameter!r}; tracked: {', '.join(chainset.parameters())}"
        )
    records: list[tuple[int, int, float]] = []
    for chain in chainset.chains:
        values = chain.draws[parameter]
        for it, value in zip(chain.iterations, values):
            records.append((chain.chain, int(it), float(value)))
    return records
