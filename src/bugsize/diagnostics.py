"""Convergence monitoring and posterior summaries for chain draws.

Implements the split potential scale reduction factor (each chain halved,
between/within variance ratio), an autocorrelation-based multi-chain
effective sample size with initial-monotone-positive-pair truncation, and
per-chain/pooled posterior summary tables with equal-tailed credible
intervals.

Split R-hat's upper bound needs an F quantile (a chi-square one in the
limit), computed here with the standard library alone so that no command
imports scipy: Newton's method in log x, bracketed, on the upper tail of
the regularized incomplete beta, which the continued fraction BFRAC of
DiDonato & Morris (1992) evaluates, and on the closed form of the
chi-square tail for odd degrees of freedom.  For numerator degrees of
freedom up to 15 the quantiles are within 3e-14 relative of exact values
(1e-15 for chi-square), at about 0.1 ms each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampler import ChainSet

__all__ = [
    "ParameterSummary",
    "split_rhat",
    "effective_sample_size",
    "summarize",
    "worst_rhat",
    "trace_export",
]

# Reported effective sample sizes are clipped at twice the draw count;
# antithetic chains can legitimately exceed the draw count, but unbounded
# estimates are sampling artifacts.
ESS_CAP_FACTOR = 2.0
# Mass of the equal-tailed credible intervals, and the one-sided level of
# split R-hat's upper bound.
CREDIBLE_MASS = 0.95
RHAT_CONFIDENCE = 0.975


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


def split_rhat(chains) -> tuple[float, float]:
    """Split potential scale reduction factor and its upper confidence bound.

    Each chain is halved (dropping the middle draw of odd-length chains) and
    the factor is ``sqrt(((n - 1) / n * W + B / n) / W)`` over the resulting
    sequences of length n, where W is the mean within-sequence variance and
    B is n times the variance of the sequence means.  Values near 1 indicate
    the chains have mixed.  Sampling noise can push the raw ratio a hair
    below 1, so the estimate is floored at 1.  The upper bound scales the
    between/within ratio by an F quantile at level ``RHAT_CONFIDENCE``
    (Brooks & Gelman 1998): numerator degrees of freedom one less than the
    number of halves, denominator ones from a moment-matched estimate of
    W's variance, or the chi-square limit when the halves' variances are
    all equal.  The quantile comes from this module's Newton iteration on
    the incomplete beta function (see the module docstring), within 3e-14
    relative of the exact value for up to 8 chains.

    Returns
    -------
    (rhat, upper) : tuple of float
        Point estimate and upper confidence bound.  Both are 1.0 for
        all-constant chains, inf when chains are stuck at distinct
        constants, and nan when any draw is nan or infinite.
    """
    x = _as_chain_matrix(chains, min_len=4)
    if not np.isfinite(x).all():
        return float("nan"), float("nan")
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
    n_seq = seqs.shape[0]
    var_w = float(variances.var(ddof=1)) / n_seq
    # moment-matched degrees of freedom of W; a W known exactly is the chi-square limit
    df_w = 2.0 * w * w / var_w if var_w > 0.0 else math.inf
    f_quantile = _f_isf(1.0 - RHAT_CONFIDENCE, n_seq - 1, df_w)
    upper = float(np.sqrt((n - 1) / n + f_quantile * ratio))
    return rhat, max(upper, rhat)


# Stirling's series for lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), in powers of
# 1/z**2 after a leading 1/z: B_2k / (2k (2k - 1)) for k = 1..8.  From z = 10 on, the
# first omitted term is below 1e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_STIRLING_MIN = 10.0
_MAX_ITERATIONS = 10_000


def _stirling_tail(z: float) -> float:
    inv2 = 1.0 / (z * z)
    total = 0.0
    for coefficient in reversed(_STIRLING):
        total = total * inv2 + coefficient
    return total / z


def _log_beta_front(a: float, b: float, r: float) -> float:
    """log(y**a * (1 - y)**b / B(a, b)) at odds r = y / (1 - y).

    lgamma(a + b) - lgamma(b) is a Stirling difference (b shifted up to
    _STIRLING_MIN first), so it does not cancel as b grows.  log(y) and
    log(1 - y) come from log1p of r or 1/r, never from a rounded y; for
    small r, a * log(y) is merged with the difference's a * log(a + b).
    """
    shift = max(0, math.ceil(_STIRLING_MIN - b))
    c = b + shift
    if r < 1.0:
        powers = a * math.log(r * (a + c)) - (a + b) * math.log1p(r)
    else:
        powers = a * math.log(a + c) - a * math.log1p(1.0 / r) - b * math.log1p(r)
    return (powers + (c - 0.5) * math.log1p(a / c) - a - math.lgamma(a)
            + _stirling_tail(a + c) - _stirling_tail(c)
            - sum(math.log1p(a / (b + i)) for i in range(shift)))


def _beta_fraction(a: float, b: float, x: float, lam: float) -> float:
    """I_x(a, b) * B(a, b) / (x**a * (1 - x)**b), for lam = a - (a + b) * x >= 0.

    The continued fraction BFRAC of DiDonato & Morris (1992), ACM TOMS 708.
    The caller passes lam computed without cancellation; that keeps the
    fraction accurate where a is large and x is near 1, as in the upper
    tail of F with many denominator degrees of freedom.
    """
    c, c0, c1, yp1 = 1.0 + lam, b / a, 1.0 + 1.0 / a, 2.0 - x
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    ratio = c1 / c
    for n in range(1, _MAX_ITERATIONS):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        previous, ratio = ratio, anp1 / bnp1
        if abs(ratio - previous) <= 4e-16 * ratio:
            return ratio
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, ratio, 1.0
    raise RuntimeError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _f_tail(a: float, b: float, t: float) -> tuple[float, float]:
    """Pr(F > e**t) for F(2a, 2b), and minus its derivative in t."""
    x = math.exp(t)
    r = a * x / b  # odds of the beta variate y = 2a x / (2a x + 2b)
    front = math.exp(_log_beta_front(a, b, r))
    # lam of the upper tail I_{1-y}(b, a); the lower tail's is its negative
    lam = a * (x - 1.0) / (1.0 + r)
    if lam >= 0.0:
        return front * _beta_fraction(b, a, 1.0 / (1.0 + r), lam), front
    return 1.0 - front * _beta_fraction(a, b, r / (1.0 + r), -lam), front


def _chi2_tail(k: int, t: float) -> tuple[float, float]:
    """Pr(chi2_k > e**t) for odd k, and minus its derivative in t."""
    x = math.exp(t)
    # the closed form for odd k: erfc(sqrt(x / 2)) plus a finite sum
    term, total = 1.0, 0.0
    for j in range(1, (k + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    tail = math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0) * total
    return tail, math.exp(k / 2.0 * math.log(x / 2.0) - x / 2.0 - math.lgamma(k / 2.0))


def _isf(tail, alpha: float) -> float:
    """The x = e**t at which tail(t)[0], a survival function of t, equals alpha.

    Newton steps in t, at most 4 long, kept inside the bracket that the
    evaluations so far fix (bisecting when a step leaves it).  A step
    below 1e-9 is taken as the last: Newton is then quadratic, so the
    error left is far below rounding.
    """
    t, lo, hi = 0.0, -math.inf, math.inf
    for _ in range(_MAX_ITERATIONS):
        q, density = tail(t)
        if q > alpha:
            lo = t
        else:
            hi = t
        step = (q - alpha) / density if density > 0.0 else math.copysign(math.inf, q - alpha)
        if abs(step) < 1e-9:
            return math.exp(t + step)
        t += max(-4.0, min(4.0, step))
        if not lo < t < hi:
            t = (lo + hi) / 2.0
    raise RuntimeError(f"quantile search did not converge for alpha={alpha}")


def _f_isf(alpha: float, dfn: int, dfd: float) -> float:
    """Upper alpha quantile of F(dfn, dfd); an infinite dfd, for odd dfn, is chi2(dfn) / dfn."""
    if math.isinf(dfd):
        return _isf(lambda t: _chi2_tail(dfn, t), alpha) / dfn
    return _isf(lambda t: _f_tail(dfn / 2.0, dfd / 2.0, t), alpha)


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


def worst_rhat(report: dict[str, ParameterSummary]) -> tuple[str, float]:
    """Parameter with the largest split scale reduction factor in a summary table.

    The first parameter whose factor could not be computed (nan) ranks
    above every finite one, so an unchecked fit never reads as converged.
    """
    name = max(report, key=lambda p: (np.isnan(report[p].rhat), report[p].rhat))
    return name, report[name].rhat


def _coefficient_of_variation(mean: float, sd: float) -> float:
    if mean != 0.0:
        return 100.0 * sd / mean
    return 0.0 if sd == 0.0 else float("nan")


def summarize(chainset: ChainSet) -> dict[str, ParameterSummary]:
    """Posterior summary table over all tracked parameters, keyed by name.

    Per chain: mean, standard deviation and coefficient of variation (in
    percent).  Pooled: the draw-count-weighted mean of the chain means and
    an equal-tailed credible interval from empirical quantiles of the
    pooled draws.  Split scale reduction and effective sample size need at
    least two chains and are reported as nan otherwise.
    """
    if chainset.n_chains == 0 or chainset.kept_per_chain == 0:
        raise ValueError("no kept draws to summarize")
    tail = round((1.0 - CREDIBLE_MASS) / 2.0, 12)
    summaries: dict[str, ParameterSummary] = {}
    for name in chainset.names:
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
    return summaries


def trace_export(chainset: ChainSet, parameter: str) -> list[tuple[int, int, float]]:
    """Long-form (chain, iteration, value) records for one parameter.

    Ordered by chain then iteration; ready for any plotting tool.
    """
    return [
        (c, it, value)
        for c, values in enumerate(chainset.matrix(parameter).tolist())
        for it, value in zip(chainset.kept_iterations, values)
    ]
