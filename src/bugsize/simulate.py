"""Synthetic testing campaigns with known ground truth.

Generation follows the model's own story: draw per-cell test-case counts,
give each real bug a mean size from the gamma prior and a size from the
negative-binomial prior, detect it with the size-driven kernel, and drop
detected bugs into cells according to the normalized cell probabilities.
The ground truth is returned alongside the observable campaign so recovery
studies never have to re-derive it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, TestCampaign, cell_probabilities, detection_prob
from .sampler import SamplerConfig, run_all

__all__ = ["GroundTruth", "StudyResult", "generate_campaign", "replicate_study"]

_MAX_REGENERATION_ATTEMPTS = 100


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Latent quantities behind a generated campaign.

    Arrays are over the real bugs only (the first ``true_bugs`` candidate
    slots); ``cell[i]`` is the flat detection cell of real bug i, or -1 if
    the campaign missed it.
    """

    max_bugs: int
    size: np.ndarray
    mean_size: np.ndarray
    cell: np.ndarray

    @property
    def true_bugs(self) -> int:
        return int(self.size.shape[0])

    @property
    def include(self) -> np.ndarray:
        """Length-``max_bugs`` real-bug indicators (real bugs come first)."""
        z = np.zeros(self.max_bugs, dtype=bool)
        z[: self.true_bugs] = True
        return z

    @property
    def detected_total(self) -> int:
        return int(np.count_nonzero(self.cell >= 0))

    @property
    def remaining_size(self) -> int:
        """Total eventual size of the real bugs the campaign missed."""
        return int(self.size[self.cell < 0].sum())


def generate_campaign(
    model_config: ModelConfig,
    missions: int,
    phases: int,
    true_bugs: int,
    t_range: tuple[int, int],
    rng: np.random.Generator,
) -> tuple[TestCampaign, GroundTruth]:
    """Draw one synthetic campaign and its ground truth.

    Test-case counts are uniform integers over ``t_range`` (inclusive); an
    all-zero draw is regenerated.  Each of the ``true_bugs`` real bugs gets
    a mean size from the gamma prior, a size from the negative-binomial
    prior, one detection trial with the size-driven kernel, and, if
    detected, a cell from the normalized cell probabilities.
    """
    if true_bugs < 0:
        raise ValueError("true_bugs must be non-negative")
    if true_bugs > model_config.max_bugs:
        raise ValueError(
            f"true_bugs {true_bugs} exceeds candidate ceiling {model_config.max_bugs}"
        )
    t_lo, t_hi = int(t_range[0]), int(t_range[1])
    if t_lo < 0 or t_hi < t_lo:
        raise ValueError("t_range must satisfy 0 <= low <= high")
    if t_hi == 0:
        raise ValueError("t_range (0, 0) cannot produce any testing effort")

    for _ in range(_MAX_REGENERATION_ATTEMPTS):
        test_cases = rng.integers(t_lo, t_hi + 1, size=(missions, phases))
        if test_cases.sum() > 0:
            break
    else:
        raise RuntimeError("could not draw a campaign with any testing effort")

    cells = cell_probabilities(test_cases)
    t_max = float(test_cases.max())

    a = model_config.mean_size_shape
    b = model_config.mean_size_rate
    r = model_config.dispersion
    mean_size = rng.gamma(a, 1.0 / b, size=true_bugs)
    size = rng.negative_binomial(r, r / (r + mean_size)).astype(np.int64) if true_bugs else np.zeros(0, dtype=np.int64)

    cell = np.full(true_bugs, -1, dtype=np.int64)
    if true_bugs:
        alpha = detection_prob(size, model_config.size_exponent, t_max)
        caught = rng.random(true_bugs) < alpha
        n_caught = int(caught.sum())
        if n_caught:
            cumulative = np.cumsum(cells.ravel())
            picks = np.searchsorted(cumulative, rng.random(n_caught), side="right")
            cell[caught] = np.minimum(picks, missions * phases - 1)

    counts = np.bincount(cell[cell >= 0], minlength=missions * phases).reshape(
        missions, phases
    )
    campaign = TestCampaign(test_cases=test_cases, bugs_detected=counts)
    truth = GroundTruth(
        max_bugs=model_config.max_bugs, size=size, mean_size=mean_size, cell=cell
    )
    return campaign, truth


@dataclass(frozen=True)
class StudyResult:
    """Recovery metrics for one decay-exponent setting."""

    size_exponent: float
    seed: int
    true_bugs: int
    detected: int
    true_remaining_size: int
    posterior_mean_bugs: float
    posterior_mean_inclusion: float
    rhat_bugs: float
    rhat_inclusion: float
    tracked_size_means: dict[str, float]
    tracked_mean_size_means: dict[str, float]


def replicate_study(
    nu_values,
    seeds,
    *,
    missions: int = 30,
    phases: int = 8,
    true_bugs: int = 100,
    max_bugs: int = 400,
    t_range: tuple[int, int] = (0, 50),
    chains: int = 3,
    iterations: int = 50_000,
    dispersion: float = 50.0,
) -> list[StudyResult]:
    """Generate-and-refit sweep over detection-decay exponents.

    For each exponent, draws a campaign with that exponent, fits it, and
    records how well the posterior recovers the generating quantities.
    ``seeds`` is either one integer (per-exponent seeds are derived from it)
    or a sequence matching ``nu_values``.
    """
    nu_values = list(nu_values)
    if not nu_values:
        raise ValueError("need at least one decay exponent")
    if isinstance(seeds, (int, np.integer)):
        seeds = [int(seeds) + i for i in range(len(nu_values))]
    else:
        seeds = [int(s) for s in seeds]
        if len(seeds) != len(nu_values):
            raise ValueError("seeds must match nu_values in length")

    from .diagnostics import summarize

    results = []
    for nu, seed in zip(nu_values, seeds):
        model_config = ModelConfig(
            max_bugs=max_bugs, size_exponent=float(nu), dispersion=dispersion
        )
        gen_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
        campaign, truth = generate_campaign(
            model_config, missions, phases, true_bugs, t_range, gen_rng
        )
        sampler_config = SamplerConfig(chains=chains, iterations=iterations, seed=seed)
        try:
            chainset = run_all(campaign, model_config, sampler_config)
        except Exception as exc:
            raise RuntimeError(f"fit failed for decay exponent {nu}") from exc
        report = summarize(chainset)
        results.append(
            StudyResult(
                size_exponent=float(nu),
                seed=seed,
                true_bugs=true_bugs,
                detected=campaign.detected_total,
                true_remaining_size=truth.remaining_size,
                posterior_mean_bugs=report["total_bugs"].pooled_mean,
                posterior_mean_inclusion=report["inclusion_prob"].pooled_mean,
                rhat_bugs=report["total_bugs"].rhat,
                rhat_inclusion=report["inclusion_prob"].rhat,
                tracked_size_means={
                    name: report[name].pooled_mean
                    for name in report.parameters
                    if name.startswith("size[")
                },
                tracked_mean_size_means={
                    name: report[name].pooled_mean
                    for name in report.parameters
                    if name.startswith("mean_size[")
                },
            )
        )
    return results
