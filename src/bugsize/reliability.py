"""Remaining-bug size and release reliability.

The remaining size of a sampler state is the total eventual size of
candidates that are included but were never detected: the testing debt the
campaign did not surface; the sampler records it with every kept draw.
Release reliability at a threshold is the posterior probability that this
remaining size stays below the threshold.
"""

from __future__ import annotations

import numpy as np

from .sampler import ChainSet

__all__ = ["reliability_at", "chain_reliability", "reliability_curve"]


def _remaining_draws(chainset: ChainSet) -> np.ndarray:
    draws = chainset.pooled("remaining_size")
    if draws.size == 0:
        raise ValueError("chain set holds no kept draws")
    return draws


def _check_threshold(epsilon: float) -> None:
    # NaN compares false both ways, so "epsilon < 0" alone would let it through
    if np.isnan(epsilon):
        raise ValueError("threshold must be a number, got nan")
    if epsilon < 0:
        raise ValueError("threshold must be non-negative")


def reliability_at(chainset: ChainSet, epsilon: float) -> float:
    """Posterior probability that the remaining size is below ``epsilon``.

    Pooled over chains; the inequality is strict, so ``epsilon = 0`` always
    yields 0.
    """
    _check_threshold(epsilon)
    draws = _remaining_draws(chainset)
    return float(np.count_nonzero(draws < epsilon) / draws.size)


def chain_reliability(chainset: ChainSet, epsilon: float) -> list[float]:
    """Per-chain reliability estimates at one threshold, for stability checks."""
    _check_threshold(epsilon)
    _remaining_draws(chainset)
    r = chainset.matrix("remaining_size")
    return (np.count_nonzero(r < epsilon, axis=1) / r.shape[1]).tolist()


def reliability_curve(chainset: ChainSet, epsilons) -> list[tuple[float, float]]:
    """Pointwise reliability over a strictly increasing threshold grid.

    Returns (threshold, probability) pairs; the probabilities are
    nondecreasing because the underlying event only grows with the
    threshold.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("need at least one threshold")
    if eps.size > 1 and np.any(np.diff(eps) <= 0):
        raise ValueError("thresholds must be strictly increasing")
    return [(float(e), reliability_at(chainset, float(e))) for e in eps]
