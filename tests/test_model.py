import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import gammaln

from bugsize.model import (
    KERNEL_TABLE_SIZES,
    AugmentedState,
    ModelConfig,
    TestCampaign,
    _detection_kernel,
    _detection_rate,
    _kernel_table,
    cell_probabilities,
    detection_prob,
    nb_log_pmf,
)
from helpers import detection_loglik, same_campaign


# ---------------------------------------------------------------- campaign

def test_campaign_basic_properties():
    camp = TestCampaign(test_cases=[[5, 0], [2, 3]], bugs_detected=[[1, 0], [0, 2]])
    assert camp.missions == 2 and camp.phases == 2
    assert camp.detected_total == 3
    assert camp.t_max == 5


@pytest.mark.parametrize(
    "t, y",
    [
        ([[-1]], [[0]]),
        ([[1]], [[-2]]),
        ([[1, 2]], [[0]]),
        ([1, 2], [0, 0]),
    ],
)
def test_campaign_rejects_bad_input(t, y):
    with pytest.raises(ValueError):
        TestCampaign(test_cases=t, bugs_detected=y)


def test_campaign_detected_total_does_not_wrap():
    # two cells whose int64 sum wraps to -8446744073709551616
    camp = TestCampaign(test_cases=[[5, 10]], bugs_detected=[[5 * 10**18, 5 * 10**18]])
    assert camp.detected_total == 10**19 and type(camp.detected_total) is int


def test_campaign_keeps_read_only_copies():
    t = np.array([[5, 0], [2, 3]], dtype=np.int64)
    y = np.array([[1, 0], [0, 2]], dtype=np.int64)
    camp = TestCampaign(test_cases=t, bugs_detected=y)
    for grid in (camp.test_cases, camp.bugs_detected):
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 99
    # the caller's arrays are copied, not aliased, and stay writable
    t[0, 0] = 500
    y[1, 1] = 40
    assert camp.test_cases[0, 0] == 5 and camp.bugs_detected[1, 1] == 2
    assert camp.t_max == 5 and camp.detected_total == 3
    assert same_campaign(camp, TestCampaign(test_cases=[[5, 0], [2, 3]],
                                            bugs_detected=[[1, 0], [0, 2]]))


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(max_bugs=0)
    with pytest.raises(ValueError):
        ModelConfig(max_bugs=10, size_exponent=0.0)
    with pytest.raises(ValueError):
        ModelConfig(max_bugs=10, dispersion=-1.0)
    cfg = ModelConfig(max_bugs=400)
    assert cfg.mean_size_shape == 50.0 and cfg.mean_size_rate == 0.5


@pytest.mark.parametrize("field", ["size_exponent", "mean_size_shape", "mean_size_rate",
                                   "dispersion"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_model_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive, got {value}$"):
        ModelConfig(max_bugs=10, **{field: value})


def test_augmented_state_validation():
    def state(include, n_detected, size=np.array([3, 0], dtype=np.int64)):
        return AugmentedState(
            include=np.array(include),
            size=size,
            mean_size=np.array([2.0, 2.0]),
            inclusion_prob=0.4,
            n_detected=n_detected,
        )

    assert state([True, False], 1).total_bugs == 1
    assert state([False, False], 0).total_bugs == 0
    assert state([True, True], 2).n_detected == 2
    for n in (-1, 3):
        with pytest.raises(ValueError, match=rf"^detected count {n} outside \[0, max_bugs=2\]$"):
            state([True, True], n)
    # candidates [:n] are the detected ones, and a detected candidate is real
    with pytest.raises(ValueError, match="^every detected candidate must be included$"):
        state([False, True], 1)
    # the sweep looks the detection kernel up at index size: a negative size
    # would read the table's end
    for size in (np.array([3, -1]), np.array([3.0, 0.0]), [3, 0]):
        with pytest.raises(ValueError,
                           match="^size must be an integer array of non-negative values$"):
            state([True, False], 1, size)


# ------------------------------------------------------ cell probabilities

def test_cell_probabilities_trivial_cases():
    assert_allclose(cell_probabilities([[1]]), [[1.0]])
    assert_allclose(cell_probabilities([[1, 1]]), [[0.5, 0.5]])


def test_cell_probabilities_derived_case():
    # raw masses 1-exp(-T) for T=[[1,0],[2,3]], renormalized to sum 1
    raw = np.array([0.6321205588285577, 0.0, 0.8646647167633873, 0.950212931632136])
    expected = (raw / raw.sum()).reshape(2, 2)
    assert_allclose(cell_probabilities([[1, 0], [2, 3]]), expected, rtol=0, atol=1e-15)


def test_cell_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = rng.integers(0, 60, size=(rng.integers(1, 6), rng.integers(1, 9)))
        if t.sum() == 0:
            continue
        p = cell_probabilities(t)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p[t == 0] == 0.0)


def test_cell_probabilities_errors():
    with pytest.raises(ValueError, match="no testing effort"):
        cell_probabilities([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="test-case counts must be non-negative"):
        cell_probabilities([[3, -1], [2, 0]])


# ------------------------------------------------------- detection kernel

def test_detection_prob_values():
    assert detection_prob(0, 1.5, 50) == 0.0
    assert_allclose(detection_prob(100, 1.5, 50), 0.9999999979388464, rtol=0, atol=1e-15)
    assert_allclose(detection_prob(1, 1.0, 50), 0.019801326693244747, rtol=0, atol=1e-15)


def test_detection_prob_monotone():
    # strict growth holds below the float64 saturation point of the kernel
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = np.sort(rng.integers(0, 120, size=2))
        if s[0] == s[1]:
            continue
        assert detection_prob(s[0], 1.5, 50) < detection_prob(s[1], 1.5, 50)
    assert detection_prob(400, 1.5, 50) <= 1.0
    # larger exponent detects a >1-sized bug more surely
    assert detection_prob(30, 1.5, 50) > detection_prob(30, 1.0, 50)


def test_detection_prob_errors():
    with pytest.raises(ValueError, match="without test cases"):
        detection_prob(10, 1.5, 0)
    with pytest.raises(ValueError):
        detection_prob(10, 0.0, 50)
    with pytest.raises(ValueError):
        detection_prob(-1, 1.0, 50)


# ---------------------------------------------------- detection likelihood

@pytest.mark.parametrize("exponent, t_max", [(1.5, 175), (1.5, 1999), (1.0, 1), (2.3, 40)])
def test_detection_table_is_the_direct_kernel_bit_for_bit(exponent, t_max):
    # every entry equals the direct evaluation, here of the sizes in shuffled
    # order, so that no entry is compared with itself
    table = _kernel_table(exponent, t_max)
    sizes = np.random.default_rng(3).permutation(KERNEL_TABLE_SIZES)

    def direct(size):
        rate = _detection_rate(size, exponent, t_max)
        with np.errstate(divide="ignore"):
            return {"rate": rate, "escape": np.exp(-rate), "log_alpha": np.log(-np.expm1(-rate))}

    assert set(table) == {"rate", "escape", "log_alpha"}
    for name, values in direct(sizes).items():
        column = table[name]
        assert column.shape == (KERNEL_TABLE_SIZES,) and not column.flags.writeable
        assert column[sizes].tobytes() == values.tobytes()
        with np.errstate(divide="ignore"):
            looked_up = _detection_kernel(exponent, t_max, name, sizes)
        assert looked_up.tobytes() == values.tobytes()
    assert _kernel_table(exponent, t_max) is table
    # a size past the table's end, or not an integer, is computed directly
    for outside in (np.array([5, KERNEL_TABLE_SIZES]), np.array([5.0, 7.5])):
        for name, values in direct(outside).items():
            assert _detection_kernel(exponent, t_max, name, outside).tobytes() == values.tobytes()


def test_detection_loglik_cases():
    # an excluded candidate is undetected with probability 1
    assert detection_loglik(7, False, False, 1.5, 50) == 0.0
    # alpha = 0.5 exactly when size**exponent equals t_max * ln 2
    t_max = 7.0 / np.log(2.0)
    assert_allclose(detection_loglik(7, True, False, 1.0, t_max), np.log(0.5), rtol=0, atol=1e-12)
    assert_allclose(detection_loglik(7, True, True, 1.0, t_max), np.log(0.5), rtol=0, atol=1e-12)
    # a size-0 bug can never be detected
    assert detection_loglik(0, True, True, 1.5, 50) == -np.inf
    # vectorised over candidates: 100**1.5 / 50 = 20
    ll = detection_loglik([100, 100, 100], [True, True, False], [True, False, False], 1.5, 50)
    assert_allclose(ll, [np.log(detection_prob(100, 1.5, 50)), -20.0, 0.0], rtol=1e-12)


def test_detection_loglik_is_proper_categorical():
    # adding the cell term back gives a proper distribution over outcomes,
    # and that term cancels from any ratio of two sizes
    rng = np.random.default_rng(4)
    for _ in range(25):
        t = rng.integers(0, 40, size=(3, 4))
        if t.sum() == 0:
            continue
        cells = cell_probabilities(t)
        size = rng.integers(1, 300, size=2)
        miss = np.exp(detection_loglik(size[0], True, False, 1.5, t.max()))
        hit = np.exp(detection_loglik(size[0], True, True, 1.5, t.max()))
        assert abs(miss + (hit * cells).sum() - 1.0) < 1e-12
        j, k = np.unravel_index(np.argmax(cells), cells.shape)
        with_cells = np.log(detection_prob(size, 1.5, t.max()) * cells[j, k])
        assert_allclose(
            with_cells[1] - with_cells[0],
            np.diff(detection_loglik(size, True, True, 1.5, t.max()))[0],
            rtol=1e-9, atol=1e-12,
        )


# ----------------------------------------------------------------- priors

def test_nb_log_pmf_normalization_and_mean():
    s = np.arange(0, 2000)
    p = np.exp(nb_log_pmf(s, 5.0, 2.0))
    assert abs(p.sum() - 1.0) < 1e-9
    assert abs((s * p).sum() - 5.0) < 1e-6
    var = (s * s * p).sum() - (s * p).sum() ** 2
    assert_allclose(var, 5.0 + 25.0 / 2.0, rtol=1e-6)


def test_nb_log_pmf_geometric_special_case():
    assert_allclose(np.exp(nb_log_pmf(0, 1.0, 1.0)), 0.5, rtol=0, atol=1e-15)


def test_nb_log_pmf_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = rng.uniform(0.5, 150.0)
        r = rng.uniform(0.5, 80.0)
        s = rng.integers(0, 400, size=6)
        expected = stats.nbinom.logpmf(s, r, r / (r + lam))
        assert_allclose(nb_log_pmf(s, lam, r), expected, rtol=1e-10)


def gammaln_nb_log_pmf(s, mean, dispersion):
    """``nb_log_pmf``'s formula with scipy's ``gammaln`` for the size terms (reference)."""
    s = np.asarray(s, dtype=float)
    return (gammaln(s + dispersion) - gammaln(dispersion) - gammaln(s + 1.0)
            - dispersion * np.log1p(mean / dispersion)
            + s * (np.log(mean) - np.log(mean + dispersion)))


def test_nb_log_pmf_matches_gammaln_form_on_a_wide_grid():
    # math.lgamma and gammaln differ in the last bits only; log-uniform
    # dispersions 0.01-1e5 and means 1e-3-1e4, sizes 0-20,000
    rng = np.random.default_rng(16)
    for _ in range(400):
        r = 10.0 ** rng.uniform(-2.0, 5.0)
        lam = 10.0 ** rng.uniform(-3.0, 4.0)
        s = np.append(0, rng.integers(0, 20_001, size=7))
        assert_allclose(nb_log_pmf(s, lam, r), gammaln_nb_log_pmf(s, lam, r), rtol=1e-10)


def test_nb_log_pmf_errors():
    with pytest.raises(ValueError):
        nb_log_pmf(-1, 5.0, 2.0)
    with pytest.raises(ValueError):
        nb_log_pmf(1, 0.0, 2.0)
    with pytest.raises(ValueError):
        nb_log_pmf(1, 5.0, 0.0)
