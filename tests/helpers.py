"""Shared fixtures-in-spirit: hand-built chain sets and reference processes."""

import numpy as np
from scipy import signal

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
