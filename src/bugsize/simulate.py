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

from .model import ModelConfig, TestCampaign, _draw_sizes, cell_probabilities, detection_prob

__all__ = ["GroundTruth", "generate_campaign"]

_MAX_REGENERATION_ATTEMPTS = 100


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Latent quantities behind a generated campaign.

    Arrays are over the real bugs only (the first ``true_bugs`` candidate
    slots); ``cell[i]`` is the flat detection cell of real bug i, or -1 if
    the campaign missed it.
    """

    size: np.ndarray
    mean_size: np.ndarray
    cell: np.ndarray

    @property
    def true_bugs(self) -> int:
        return int(self.size.shape[0])

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
    if missions < 1 or phases < 1:
        raise ValueError(f"need missions >= 1 and phases >= 1, got {missions} x {phases}")
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
    mean_size = rng.gamma(a, 1.0 / b, size=true_bugs)
    size = _draw_sizes(mean_size, model_config.dispersion, rng)

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
    truth = GroundTruth(size=size, mean_size=mean_size, cell=cell)
    return campaign, truth
