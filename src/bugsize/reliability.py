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

__all__ = ["chain_reliability", "reliability_curve"]


def chain_reliability(chainset: ChainSet, epsilon: float) -> list[float]:
    """Per-chain reliability estimates at one threshold, for stability checks."""
    _, r = _checked(chainset, [epsilon])
    return (np.count_nonzero(r < epsilon, axis=1) / r.shape[1]).tolist()


def reliability_curve(chainset: ChainSet, epsilons) -> list[tuple[float, float]]:
    """Pointwise reliability over a strictly increasing threshold grid.

    Returns (threshold, probability) pairs; the probabilities are
    nondecreasing because the underlying event only grows with the
    threshold.  Owns this module's threshold rule (see :func:`_checked`).
    """
    eps, r = _checked(chainset, epsilons)
    return [(float(e), float(np.count_nonzero(r < e) / r.size)) for e in eps]


def _checked(chainset: ChainSet, epsilons) -> tuple[np.ndarray, np.ndarray]:
    """The threshold grid and the (chains, kept) remaining-size draws, once checked:
    a non-empty, strictly increasing grid of non-negative numbers, over kept draws."""
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("need at least one threshold")
    if eps.size > 1 and np.any(np.diff(eps) <= 0):
        raise ValueError("thresholds must be strictly increasing")
    for e in eps:
        # NaN compares false both ways, so "e < 0" alone would let it through
        if np.isnan(e):
            raise ValueError("threshold must be a number, got nan")
        if e < 0:
            raise ValueError("threshold must be non-negative")
    r = chainset.matrix("remaining_size")
    if r.size == 0:
        raise ValueError("chain set holds no kept draws")
    return eps, r
