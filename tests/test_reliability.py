import numpy as np
import pytest

from bugsize.reliability import reliability_curve
from helpers import make_chainset


# ------------------------------------------------------------ reliability

def test_reliability_at_zero_threshold():
    cs = make_chainset({"remaining_size": np.zeros((2, 50))})
    assert reliability_curve(cs, [0.0]) == [(0.0, 0.0)]  # strict inequality at the boundary


def test_reliability_at_counts_strictly_below():
    draws = np.array([[0.0, 50.0, 100.0, 150.0], [0.0, 100.0, 200.0, 10.0]])
    cs = make_chainset({"remaining_size": draws})
    assert reliability_curve(cs, [100.0, 1000.0]) == [(100.0, 4 / 8), (1000.0, 1.0)]


def test_reliability_pooled_equals_weighted_chain_mean():
    rng = np.random.default_rng(41)
    draws = rng.integers(0, 300, size=(3, 400)).astype(float)
    cs = make_chainset({"remaining_size": draws})
    # the count-weighted mean of per-chain estimates, in exact integer form
    counts = [np.count_nonzero(c < 120.0) for c in draws]
    assert reliability_curve(cs, [120.0])[0][1] == sum(counts) / draws.size


def test_reliability_monotone_in_threshold():
    rng = np.random.default_rng(42)
    draws = rng.integers(0, 500, size=(3, 500)).astype(float)
    cs = make_chainset({"remaining_size": draws})
    for _ in range(20):
        grid = np.unique(rng.uniform(0, 600, size=8))
        values = [p for _, p in reliability_curve(cs, grid)]
        assert np.all(np.diff(values) >= 0.0)


def test_reliability_curve_single_point_and_errors():
    cs = make_chainset({"remaining_size": np.ones((2, 10)) * 5.0})
    assert reliability_curve(cs, [10.0]) == [(10.0, 1.0)]
    for grid in ([100.0, 50.0], [100.0, 100.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            reliability_curve(cs, grid)
    with pytest.raises(ValueError):
        reliability_curve(cs, [])
    with pytest.raises(ValueError, match="non-negative"):
        reliability_curve(cs, [-1.0])


def test_reliability_rejects_nan_thresholds():
    cs = make_chainset({"remaining_size": np.ones((2, 10)) * 5.0})
    # NaN compares false, so it would slip past the strictly-increasing check
    for grid in ([float("nan"), 100.0], [100.0, float("nan")], [float("nan")]):
        with pytest.raises(ValueError, match="nan"):
            reliability_curve(cs, grid)


def test_reliability_requires_draws():
    cs = make_chainset({"remaining_size": np.ones((0, 10))})
    with pytest.raises(ValueError):
        reliability_curve(cs, [10.0])
