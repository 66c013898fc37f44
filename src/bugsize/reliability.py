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

__all__ = ["reliability_curve"]


def reliability_curve(chainset: ChainSet, epsilons) -> list[tuple[float, float]]:
    """Pointwise reliability over a strictly increasing threshold grid.

    The grid must be non-empty, strictly increasing and of non-negative
    numbers, and the chain set must hold kept draws.  Returns (threshold,
    probability) pairs; the probabilities are nondecreasing because the
    underlying event only grows with the threshold.
    """
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
    return [(float(e), float(np.count_nonzero(r < e) / r.size)) for e in eps]
