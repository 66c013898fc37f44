"""Shared fixtures-in-spirit: hand-built chain sets and reference processes."""

import numpy as np
from scipy import signal

from bugsize.sampler import ChainDraws, ChainSet


def make_chainset(arrays_by_param, burn_in=0):
    """Build a ChainSet directly from {param: (chains, kept) array}."""
    first = next(iter(arrays_by_param.values()))
    n_chains, kept = first.shape
    chains = []
    for c in range(n_chains):
        chains.append(
            ChainDraws(
                chain=c,
                draws={k: np.asarray(v[c], dtype=float) for k, v in arrays_by_param.items()},
                acceptance={"size": 1.0},
            )
        )
    return ChainSet(
        chains=chains, base_seed=0, iterations=burn_in + kept, burn_in=burn_in, thin=1
    )


def ar1(rng, n_chains, length, rho):
    """Stationary AR(1) chains with lag-one autocorrelation ``rho``."""
    noise = rng.standard_normal((n_chains, length))
    noise[:, 0] /= np.sqrt(1.0 - rho * rho)
    return signal.lfilter([1.0], [1.0, -rho], noise, axis=1)
