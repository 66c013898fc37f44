"""Core detection model: campaign data, configuration, kernels and densities.

A testing campaign is a grid of J missions by K phases.  The software holds
at most ``max_bugs`` candidate bugs; each candidate is real with probability
``inclusion_prob``.  A real bug has a latent eventual size (the number of
inputs that would ever traverse it), and bigger bugs are easier to find: a
bug of size ``s`` is detected somewhere in the campaign with probability
``1 - exp(-s**size_exponent / t_max)`` where ``t_max`` is the largest
per-cell test-case count.  Conditional on detection, the bug lands in cell
(j, k) with probability proportional to ``1 - exp(-T[j, k])``.  Sizes carry
a negative-binomial prior whose mean is itself gamma distributed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TestCampaign",
    "ModelConfig",
    "AugmentedState",
    "cell_probabilities",
    "detection_prob",
    "detection_loglik",
    "nb_log_pmf",
]


@dataclass(frozen=True, eq=False)
class TestCampaign:
    """Observed campaign counts over a missions-by-phases grid.

    Attributes
    ----------
    test_cases : ndarray of int, shape (J, K)
        Test cases run in mission j, phase k.
    bugs_detected : ndarray of int, shape (J, K)
        Bugs detected in mission j, phase k.
    """

    test_cases: np.ndarray
    bugs_detected: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.test_cases, dtype=np.int64)
        y = np.asarray(self.bugs_detected, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
            raise ValueError("test_cases must be a J x K matrix with J, K >= 1")
        if y.shape != t.shape:
            raise ValueError(
                f"bugs_detected shape {y.shape} does not match test_cases shape {t.shape}"
            )
        if np.any(t < 0):
            raise ValueError("test-case counts must be non-negative")
        if np.any(y < 0):
            raise ValueError("detected-bug counts must be non-negative")
        object.__setattr__(self, "test_cases", t)
        object.__setattr__(self, "bugs_detected", y)

    def __eq__(self, other):
        if not isinstance(other, TestCampaign):
            return NotImplemented
        return np.array_equal(self.test_cases, other.test_cases) and np.array_equal(
            self.bugs_detected, other.bugs_detected
        )

    @property
    def missions(self) -> int:
        return int(self.test_cases.shape[0])

    @property
    def phases(self) -> int:
        return int(self.test_cases.shape[1])

    @property
    def detected_total(self) -> int:
        """Total detected bugs across all cells."""
        return int(self.bugs_detected.sum())

    @property
    def t_max(self) -> int:
        """Largest per-cell test-case count; scales the detection kernel."""
        return int(self.test_cases.max())


@dataclass(frozen=True)
class ModelConfig:
    """Model settings: candidate ceiling, kernel tuning and prior hyperparameters.

    Attributes
    ----------
    max_bugs : int
        Ceiling on the number of candidate bugs (detected or hidden).
    size_exponent : float
        Exponent applied to a bug's size inside the detection kernel;
        larger values make detection probability rise faster with size.
    mean_size_shape, mean_size_rate : float
        Shape and rate of the gamma prior on each bug's mean eventual size
        (defaults give prior mean 100, variance 200).
    dispersion : float
        Negative-binomial dispersion of sizes around their mean
        (variance = mean + mean**2 / dispersion).
    """

    max_bugs: int
    size_exponent: float = 1.5
    mean_size_shape: float = 50.0
    mean_size_rate: float = 0.5
    dispersion: float = 50.0

    def __post_init__(self):
        if self.max_bugs < 1:
            raise ValueError("max_bugs must be a positive integer")
        if self.size_exponent <= 0:
            raise ValueError("size_exponent must be positive")
        if self.mean_size_shape <= 0 or self.mean_size_rate <= 0:
            raise ValueError("gamma prior hyperparameters must be positive")
        if self.dispersion <= 0:
            raise ValueError("dispersion must be positive")


@dataclass
class AugmentedState:
    """One sampler state over the augmented candidate list.

    Attributes
    ----------
    include : ndarray of bool, shape (max_bugs,)
        Whether each candidate is currently a real bug.
    size : ndarray of int, shape (max_bugs,)
        Current eventual size of each candidate.
    mean_size : ndarray of float, shape (max_bugs,)
        Current negative-binomial mean of each candidate's size.
    inclusion_prob : float
        Current probability that a candidate is real.
    detected : ndarray of bool, shape (max_bugs,)
        Fixed detection flags; detected candidates are always included.
    """

    include: np.ndarray
    size: np.ndarray
    mean_size: np.ndarray
    inclusion_prob: float
    detected: np.ndarray

    @property
    def max_bugs(self) -> int:
        return int(self.include.shape[0])

    @property
    def total_bugs(self) -> int:
        """Number of currently included candidates."""
        return int(np.count_nonzero(self.include))


def cell_probabilities(test_cases):
    """Normalized per-cell detection probabilities for a campaign grid.

    Each cell's raw mass is ``1 - exp(-T[j, k])``, rescaled so the grid sums
    to 1: a detected bug lands in exactly one cell.  Cells with zero test
    cases get probability 0.
    """
    t = np.asarray(test_cases, dtype=float)
    if np.any(t < 0):
        raise ValueError("test-case counts must be non-negative")
    raw = -np.expm1(-t)
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("no testing effort: every cell has zero test cases")
    return raw / total


def _detection_rate(size, exponent: float, t_max: float) -> np.ndarray:
    # x = size**exponent / t_max; a real bug escapes the campaign w.p. exp(-x)
    return np.power(np.asarray(size, dtype=float), exponent) / t_max


def detection_prob(size, exponent: float, t_max: float):
    """Probability that a bug of the given eventual size is ever detected.

    Computed as ``1 - exp(-size**exponent / t_max)``: zero at size 0,
    strictly increasing in size, and scaled by the campaign's largest
    per-cell test-case count ``t_max``.
    """
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if t_max <= 0:
        raise ValueError("detection kernel undefined without test cases")
    s = np.asarray(size, dtype=float)
    if np.any(s < 0):
        raise ValueError("size must be non-negative")
    return (-np.expm1(-_detection_rate(s, exponent, t_max)))[()]


def detection_loglik(size, include, detected, exponent: float, t_max: float) -> np.ndarray:
    """Per-candidate detection log-likelihood; the one likelihood the sampler runs.

    ``log(alpha)`` for a detected candidate (``alpha`` is :func:`detection_prob`),
    ``log(1 - alpha) = -size**exponent / t_max`` for an included candidate never
    detected, and 0 for an excluded one.  A detected bug's cell term
    ``cell_probabilities(T)[j, k]`` does not depend on its size, so it is a
    constant that cancels from every ratio and is omitted: the campaign enters
    only through ``t_max`` and the ``detected`` flags (the detected count).
    """
    x = _detection_rate(size, exponent, t_max)
    with np.errstate(divide="ignore"):
        log_alpha = np.log(-np.expm1(-x))
    return np.where(detected, log_alpha, np.where(include, -x, 0.0))


def nb_log_pmf(s, mean, dispersion: float):
    """Negative-binomial log-pmf parameterized by mean and dispersion.

    The variance is ``mean + mean**2 / dispersion``; as dispersion grows the
    distribution tightens toward a Poisson with the same mean.
    """
    from scipy.special import gammaln  # imported here so no command pays for scipy

    s_arr = np.asarray(s, dtype=float)
    lam = np.asarray(mean, dtype=float)
    r = float(dispersion)
    if np.any(s_arr < 0):
        raise ValueError("size must be non-negative")
    if np.any(lam <= 0):
        raise ValueError("mean must be positive")
    if r <= 0:
        raise ValueError("dispersion must be positive")
    out = (
        gammaln(s_arr + r)
        - gammaln(r)
        - gammaln(s_arr + 1.0)
        - r * np.log1p(lam / r)
        + s_arr * (np.log(lam) - np.log(lam + r))
    )
    return out[()]
