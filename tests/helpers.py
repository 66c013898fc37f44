"""Shared fixtures-in-spirit: hand-built chain sets and reference processes."""

import numpy as np
from scipy import signal

from bugsize.model import _detection_rate, _log_detection_prob
from bugsize.sampler import ChainSet


def make_chainset(arrays_by_param, burn_in=0):
    """Build a ChainSet directly from {param: (chains, kept) array}."""
    draws = np.stack([np.asarray(v, dtype=float) for v in arrays_by_param.values()], axis=1)
    n_chains, _, kept = draws.shape
    return ChainSet(
        names=list(arrays_by_param),
        draws=draws,
        acceptance=[{"size": 1.0} for _ in range(n_chains)],
        base_seed=0, iterations=burn_in + kept, burn_in=burn_in, thin=1,
    )


def ar1(rng, n_chains, length, rho):
    """Stationary AR(1) chains with lag-one autocorrelation ``rho``."""
    noise = rng.standard_normal((n_chains, length))
    noise[:, 0] /= np.sqrt(1.0 - rho * rho)
    return signal.lfilter([1.0], [1.0, -rho], noise, axis=1)


def detection_loglik(size, include, detected, exponent, t_max):
    """Per-candidate detection log-likelihood, candidate by candidate.

    ``log(alpha)`` for a detected candidate (``alpha`` is
    ``model.detection_prob``), ``log(1 - alpha) = -size**exponent / t_max``
    for an included candidate never detected, and 0 for an excluded one; the
    cell term cancels from every ratio and is omitted.  ``detected`` is a
    boolean mask.  The reference that the sampler's
    ``model._detection_loglik_ratio`` must match bit for bit.
    """
    x = _detection_rate(size, exponent, t_max)
    with np.errstate(divide="ignore"):
        log_alpha = _log_detection_prob(x)
    return np.where(detected, log_alpha, np.where(include, -x, 0.0))
