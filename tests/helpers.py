"""Shared fixtures-in-spirit: hand-built chain sets and reference processes."""

import contextlib
from dataclasses import replace

import numpy as np
from scipy import signal, stats

from bugsize import sampler
from bugsize.model import _detection_rate, nb_log_pmf
from bugsize.sampler import ChainSet, run_all


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


def same_campaign(a, b):
    """Whether two campaigns hold the same test-case and detected-bug grids."""
    return (np.array_equal(a.test_cases, b.test_cases)
            and np.array_equal(a.bugs_detected, b.bugs_detected))


def ar1(rng, n_chains, length, rho):
    """Stationary AR(1) chains with lag-one autocorrelation ``rho``."""
    noise = rng.standard_normal((n_chains, length))
    noise[:, 0] /= np.sqrt(1.0 - rho * rho)
    return signal.lfilter([1.0], [1.0, -rho], noise, axis=1)


def gamma_mixed_size_pmf(s, model_config):
    """A candidate's prior size pmf at ``s``, its size mean integrated out.

    Each candidate's size is negative binomial about its own mean, and the
    mean has a gamma prior, so a priori the sizes are independent draws from
    ``p(s) = integral of NB(s; lam, dispersion) * Gamma(lam; shape, rate) dlam``.
    The integral is a trapezoid sum over 20,001 means evenly spaced between
    the prior's 1e-12 and 1 - 1e-12 quantiles.
    """
    prior = stats.gamma(model_config.mean_size_shape, scale=1.0 / model_config.mean_size_rate)
    lam = np.linspace(*prior.ppf([1e-12, 1.0 - 1e-12]), 20_001)
    size_pmf = np.exp(nb_log_pmf(np.asarray(s)[..., None], lam, model_config.dispersion))
    return np.trapezoid(size_pmf * prior.pdf(lam), lam, axis=-1)


def detection_loglik(size, include, detected, exponent, t_max):
    """Per-candidate detection log-likelihood, candidate by candidate.

    ``log(alpha)`` for a detected candidate (``alpha`` is
    ``model.detection_prob``), ``log(1 - alpha) = -size**exponent / t_max``
    for an included candidate never detected, and 0 for an excluded one; the
    cell term cancels from every ratio and is omitted.  ``detected`` is a
    boolean mask.  The reference whose ratio at proposed and current sizes
    the sampler's size update must match bit for bit.
    """
    x = _detection_rate(size, exponent, t_max)
    with np.errstate(divide="ignore"):
        log_alpha = np.log(-np.expm1(-x))
    return np.where(detected, log_alpha, np.where(include, -x, 0.0))


# the flat kernel's value at every size: no rate, certain escape, log(alpha) of 0
_FLAT_KERNEL = {"rate": 0.0, "escape": 1.0, "log_alpha": 0.0}


@contextlib.contextmanager
def flat_likelihood():
    """Swap the sampler's detection kernel for a flat one while the block runs.

    Every likelihood term reaches the sweep through ``sampler._detection_kernel``,
    so with this kernel a fit targets the bare prior: each size log-ratio is 0,
    which ``log(u)`` for u in [0, 1) always beats, and the inclusion chance
    ``psi / (psi + (1 - psi))`` rounds to ``psi`` itself.  A forked pool's
    workers inherit the swap.
    """
    kernel = sampler._detection_kernel
    sampler._detection_kernel = (
        lambda exponent, t_max, column, size: np.full(np.shape(size), _FLAT_KERNEL[column]))
    try:
        yield
    finally:
        sampler._detection_kernel = kernel


@contextlib.contextmanager
def record_sweeps():
    """Record every candidate's state after each sweep that runs while the block runs.

    ``run_chain`` looks ``sampler.update_mean_sizes``, the sweep's last update,
    up by name at call time, so the stand-in sees each sweep's final state: it
    passes the update's return value through and appends copies of
    ``include``, ``size`` and ``mean_size`` to the list it yields.  A pool's
    workers would append to their own copies, so record serial runs only,
    whose chains run whole, one after another.
    """
    sweeps = []
    update = sampler.update_mean_sizes

    def recording_update(state, config, rng):
        accept = update(state, config, rng)
        sweeps.append((state.include.copy(), state.size.copy(), state.mean_size.copy()))
        return accept

    sampler.update_mean_sizes = recording_update
    try:
        yield sweeps
    finally:
        sampler.update_mean_sizes = update


def run_with_candidate_rows(campaign, model_config, sampler_config, candidates):
    """A serial ``run_all``'s chain set and, after its rows, each candidate's kept states.

    The rows are ``include[i]`` for each candidate ``i``, then ``size[i]``,
    then ``mean_size[i]``, as floats, recorded by ``record_sweeps``: the
    layout and the values of the per-candidate rows in draws files of
    earlier versions.
    """
    assert sampler_config.workers == 1, "a pool's workers record into their own copies"
    with record_sweeps() as sweeps:
        chainset = run_all(campaign, model_config, sampler_config)
    chains, kept = chainset.n_chains, chainset.kept_per_chain
    states = np.array(sweeps, dtype=float).reshape(chains, chainset.iterations, 3, -1)
    picked = states[:, chainset.burn_in:][..., list(candidates)]  # (chains, kept, 3, candidates)
    rows = picked.transpose(0, 2, 3, 1).reshape(chains, -1, kept)
    names = [f"{key}[{i}]" for key in ("include", "size", "mean_size") for i in candidates]
    return replace(chainset, names=chainset.names + names,
                   draws=np.concatenate((chainset.draws, rows), axis=1))
