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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TestCampaign",
    "ModelConfig",
    "AugmentedState",
    "cell_probabilities",
    "detection_prob",
    "nb_log_pmf",
]


@dataclass(frozen=True, eq=False)
class TestCampaign:
    """Observed campaign counts over a missions-by-phases grid.

    The two count grids are kept as read-only copies, so the two numbers
    through which the campaign reaches the posterior, computed once here,
    can never go stale.

    Attributes
    ----------
    test_cases : ndarray of int, shape (J, K)
        Test cases run in mission j, phase k.
    bugs_detected : ndarray of int, shape (J, K)
        Bugs detected in mission j, phase k.
    detected_total : int
        Total detected bugs across all cells.
    t_max : int
        Largest per-cell test-case count; scales the detection kernel.
    """

    test_cases: np.ndarray
    bugs_detected: np.ndarray
    detected_total: int = field(init=False)
    t_max: int = field(init=False)

    def __post_init__(self):
        # np.array copies even an int64 input: the caller's array stays theirs
        t = np.array(self.test_cases, dtype=np.int64)
        y = np.array(self.bugs_detected, dtype=np.int64)
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
        t.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "test_cases", t)
        object.__setattr__(self, "bugs_detected", y)
        # summed in Python integers, where an int64 sum of large counts wraps
        object.__setattr__(self, "detected_total", sum(y.ravel().tolist()))
        object.__setattr__(self, "t_max", int(t.max()))

    @property
    def missions(self) -> int:
        return int(self.test_cases.shape[0])

    @property
    def phases(self) -> int:
        return int(self.test_cases.shape[1])


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
        for name in ("size_exponent", "mean_size_shape", "mean_size_rate", "dispersion"):
            _check_finite_positive(name, getattr(self, name))


def _check_finite_positive(name: str, value: float) -> None:
    # NaN fails both comparisons, so it is rejected along with inf and <= 0
    if not 0.0 < value < float("inf"):
        raise ValueError(f"{name} must be finite and positive, got {value}")


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
    n_detected : int
        The detected count ``n``: candidates ``[:n]`` are the detected ones,
        always included, and ``[n:]`` were never detected.
    """

    include: np.ndarray
    size: np.ndarray
    mean_size: np.ndarray
    inclusion_prob: float
    n_detected: int

    def __post_init__(self):
        n = self.n_detected
        if not 0 <= n <= self.max_bugs:
            raise ValueError(f"detected count {n} outside [0, max_bugs={self.max_bugs}]")
        if not self.include[:n].all():
            raise ValueError("every detected candidate must be included")
        # the sweep reads the detection kernel at index size, where a negative
        # size would wrap to the table's end
        size = self.size
        integer = isinstance(size, np.ndarray) and np.issubdtype(size.dtype, np.integer)
        if not integer or np.any(size < 0):
            raise ValueError("size must be an integer array of non-negative values")

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
    # x = size**exponent / t_max; a power that overflows is inf, which is
    # meant: certain detection
    with np.errstate(over="ignore"):
        return np.power(size, exponent, dtype=float) / t_max


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


# The detection kernel's columns, each a function of the rate x = size**nu / t_max:
# the rate itself, the chance exp(-x) that a real bug of that size escapes the
# campaign, and log(alpha) = log(1 - exp(-x)), -inf at size 0 (a bug of size 0 is
# never detected; callers ignore divide warnings)
_KERNEL_COLUMNS = {
    "rate": lambda x: x,
    "escape": lambda x: np.exp(-x),
    "log_alpha": lambda x: np.log(-np.expm1(-x)),
}

# Sizes 0..KERNEL_TABLE_SIZES - 1 read the detection kernel from a table
# (3 float arrays, 96 KB).  Sizes are integer counts of inputs, and fits at
# the default prior keep them far below this (at most 271 on the bundled
# campaign, 284 on a simulated M = 4,000 one); larger ones are computed
# directly, so the table never grows.
KERNEL_TABLE_SIZES = 4096


@functools.lru_cache(maxsize=8)
def _kernel_table(exponent: float, t_max: float) -> dict[str, np.ndarray]:
    """Every column of one ``(exponent, t_max)`` at sizes below ``KERNEL_TABLE_SIZES``,
    read-only and shared, built on first use."""
    rate = _detection_rate(np.arange(KERNEL_TABLE_SIZES), exponent, t_max)
    with np.errstate(divide="ignore"):
        table = {name: column(rate) for name, column in _KERNEL_COLUMNS.items()}
    for values in table.values():
        values.flags.writeable = False
    return table


def _detection_kernel(exponent: float, t_max: float, column: str, size) -> np.ndarray:
    """Column ``column`` of ``_KERNEL_COLUMNS`` at each size, for one ``(exponent, t_max)``.

    Sizes are looked up in the shared table; where any lies outside it
    (``IndexError``: a size of ``KERNEL_TABLE_SIZES`` or more, or a
    non-integer size) the same formula computes them, so both give the same
    bits.

    A candidate's detection log-likelihood is ``log_alpha`` if it was
    detected (``alpha`` is :func:`detection_prob`), ``log(1 - alpha) =
    -rate`` if it is included but was never detected, and 0 if it is
    excluded.  A detected bug's cell term ``cell_probabilities(T)[j, k]``
    does not depend on its size, so it is a constant that cancels from every
    ratio of two sizes: the campaign enters only through ``t_max`` and the
    detected count ``n``.
    """
    try:
        return _kernel_table(exponent, t_max)[column][size]
    except IndexError:
        return _KERNEL_COLUMNS[column](_detection_rate(size, exponent, t_max))


def _draw_sizes(mean_size, dispersion: float, rng: np.random.Generator) -> np.ndarray:
    """One negative-binomial size per mean, as int64: ``dispersion`` successes
    at chance ``dispersion / (dispersion + mean)`` (see :func:`nb_log_pmf`)."""
    r = dispersion
    try:
        return rng.negative_binomial(r, r / (r + mean_size)).astype(np.int64, copy=False)
    except ValueError as exc:
        # numpy refuses a draw whose Poisson stage could overflow, which a
        # dispersion far below the mean sizes asks for
        raise ValueError(f"dispersion {r!r} is too small for numpy's negative-binomial "
                         f"size draw: {exc}") from None


# numpy has no log-gamma ufunc; math.lgamma keeps scipy out of the runtime dependencies
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def nb_log_pmf(s, mean, dispersion: float):
    """Negative-binomial log-pmf parameterized by mean and dispersion.

    The variance is ``mean + mean**2 / dispersion``; as dispersion grows the
    distribution tightens toward a Poisson with the same mean.
    """
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
        _lgamma(s_arr + r)
        - math.lgamma(r)
        - _lgamma(s_arr + 1.0)
        - r * np.log1p(lam / r)
        + s_arr * (np.log(lam) - np.log(lam + r))
    )
    return out[()]
