import numpy as np
import pytest

from bugsize.model import ModelConfig, TestCampaign
from bugsize.reliability import chain_reliability, reliability_at, reliability_curve
from bugsize.sampler import SamplerConfig, run_all
from helpers import make_chainset


# ------------------------------------------------------------ reliability

def test_reliability_at_zero_threshold():
    cs = make_chainset({"remaining_size": np.zeros((2, 50))})
    assert reliability_at(cs, 0.0) == 0.0  # strict inequality at the boundary


def test_reliability_at_counts_strictly_below():
    draws = np.array([[0.0, 50.0, 100.0, 150.0], [0.0, 100.0, 200.0, 10.0]])
    cs = make_chainset({"remaining_size": draws})
    assert reliability_at(cs, 100.0) == 4 / 8
    assert reliability_at(cs, 1000.0) == 1.0


def test_reliability_pooled_equals_weighted_chain_mean():
    rng = np.random.default_rng(41)
    draws = rng.integers(0, 300, size=(3, 400)).astype(float)
    cs = make_chainset({"remaining_size": draws})
    per_chain = chain_reliability(cs, 120.0)
    # the count-weighted mean of per-chain estimates, in exact integer form
    counts = [np.count_nonzero(c < 120.0) for c in draws]
    assert per_chain == [count / 400 for count in counts]
    assert reliability_at(cs, 120.0) == sum(counts) / draws.size


def test_chain_reliability_of_a_fit_counts_each_chain():
    camp = TestCampaign(test_cases=[[6, 2]], bugs_detected=[[1, 1]])
    config = ModelConfig(max_bugs=8, mean_size_shape=2.0, mean_size_rate=1.0, dispersion=5.0)
    cs = run_all(camp, config, SamplerConfig(chains=3, iterations=200, burn_in=50, seed=43))
    at = cs.names.index("remaining_size")
    for epsilon in (0.0, 1.0, 3.0, 1e9):
        counts = [int(np.count_nonzero(cs.draws[c, at] < epsilon)) for c in range(3)]
        per_chain = chain_reliability(cs, epsilon)
        assert per_chain == [count / 150 for count in counts]
        assert all(type(v) is float for v in per_chain)


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
    with pytest.raises(ValueError, match="strictly increasing"):
        reliability_curve(cs, [100.0, 50.0])
    with pytest.raises(ValueError):
        reliability_curve(cs, [])
    with pytest.raises(ValueError):
        reliability_at(cs, -1.0)


def test_reliability_rejects_nan_thresholds():
    cs = make_chainset({"remaining_size": np.ones((2, 10)) * 5.0})
    with pytest.raises(ValueError, match="nan"):
        reliability_at(cs, float("nan"))
    with pytest.raises(ValueError, match="nan"):
        chain_reliability(cs, float("nan"))
    # NaN compares false, so it would slip past the strictly-increasing check
    for grid in ([float("nan"), 100.0], [100.0, float("nan")], [float("nan")]):
        with pytest.raises(ValueError, match="nan"):
            reliability_curve(cs, grid)


def test_reliability_requires_draws():
    cs = make_chainset({"remaining_size": np.ones((0, 10))})
    with pytest.raises(ValueError):
        reliability_at(cs, 10.0)
