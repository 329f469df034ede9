import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobath.spin_bath import (
    KB_OVER_HBAR_NS_INV_PER_K,
    SpinBath,
    beta_from_temperature,
    thermal_weights,
)


class TestTemperatureConversion:
    def test_conversion_constant(self):
        # k_B/hbar in ns^-1 per K from the CODATA values
        assert KB_OVER_HBAR_NS_INV_PER_K == pytest.approx(130.92, abs=0.01)

    def test_50k_thermal_parameter(self):
        # alpha = 15 ps^-1 at 50 K gives beta*alpha ~ 2.2915
        beta = beta_from_temperature(50.0)
        assert beta * 15.0e3 == pytest.approx(2.291470, abs=1e-5)

    def test_300k_thermal_parameter(self):
        beta = beta_from_temperature(300.0)
        assert beta * 15.0e3 == pytest.approx(0.381912, abs=1e-5)

    def test_rejects_nonpositive_temperature(self):
        for bad in (0.0, -10.0):
            with pytest.raises(ValueError, match="temperature"):
                beta_from_temperature(bad)

    def test_from_temperature_keeps_metadata(self):
        bath = SpinBath.from_temperature(4, 100.0, 50.0)
        assert bath.temperature_k == 50.0
        assert bath.beta == pytest.approx(beta_from_temperature(50.0))

    def test_bath_is_size_splitting_and_beta(self):
        assert [f.name for f in dataclasses.fields(SpinBath)] == ["n_spins", "alpha", "beta"]

    @pytest.mark.parametrize("temperature", [50.0, 300.0])
    def test_temperature_is_read_back_from_beta(self, temperature):
        assert SpinBath.from_temperature(4, 100.0, temperature).temperature_k == temperature

    @pytest.mark.parametrize("beta, temperature", [(0.0, math.inf), (math.inf, 0.0)])
    def test_temperature_limits(self, beta, temperature):
        assert SpinBath(4, 100.0, beta).temperature_k == temperature


class TestValidation:
    def test_rejects_bad_spin_count(self):
        with pytest.raises(ValueError, match="n_spins"):
            SpinBath(n_spins=0, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError, match="n_spins"):
            SpinBath(n_spins=-3, alpha=1.0, beta=1.0)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="beta"):
            SpinBath(n_spins=2, alpha=1.0, beta=-0.1)

    @pytest.mark.parametrize("n_spins", [5, np.int64(5), np.int32(5), np.uint8(5)])
    def test_accepts_any_integral_spin_count(self, n_spins):
        bath = SpinBath(n_spins=n_spins, alpha=1.0, beta=1.0)
        assert bath.n_spins == 5 and type(bath.n_spins) is int
        assert thermal_weights(bath).size == 6

    @pytest.mark.parametrize("n_spins", [True, False, np.bool_(True), 5.0, np.float64(5.0), "5"])
    def test_rejects_non_integral_spin_count(self, n_spins):
        with pytest.raises(ValueError, match="n_spins"):
            SpinBath(n_spins=n_spins, alpha=1.0, beta=1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            SpinBath(n_spins=2, alpha=alpha, beta=1.0)

    def test_rejects_nan_beta(self):
        with pytest.raises(ValueError, match="beta"):
            SpinBath(n_spins=2, alpha=1.0, beta=math.nan)


# Below the smallest normal double a weight keeps only a few significant bits.
TINY = np.finfo(float).tiny


def mean_occupation(bath: SpinBath) -> float:
    """Thermal mean of m, the expected number of up spins."""
    return float(bath.occupations() @ thermal_weights(bath))


def scipy_weights(n: int, beta_alpha: float) -> np.ndarray:
    """The gammaln/logsumexp formula the package used before it dropped scipy."""
    special = pytest.importorskip("scipy.special")
    gammaln, logsumexp = special.gammaln, special.logsumexp
    m = np.arange(n + 1, dtype=float)
    logw = gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)
    logw[1:] -= beta_alpha * m[1:]
    return np.exp(logw - logsumexp(logw))


class TestSpectrum:
    def test_occupations_and_energies(self):
        bath = SpinBath(n_spins=4, alpha=2.0, beta=0.3)
        np.testing.assert_array_equal(bath.occupations(), [0, 1, 2, 3, 4])
        # Level energies nu_m = alpha*(m - N/2) enter the weights only through
        # the Boltzmann factor e^{-beta*(nu_m - nu_0)} on top of C(N, m).
        energies = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
        log_binom = np.log([math.comb(4, m) for m in range(5)])
        np.testing.assert_allclose(
            bath.log_weights() - log_binom,
            -bath.beta * (energies - energies[0]),
            rtol=0.0,
            atol=1e-14,
        )


class TestThermalWeights:
    def test_single_spin_closed_form(self):
        # beta*alpha = ln 2 gives Z = 1 + 1/2 and weights (2/3, 1/3)
        bath = SpinBath(n_spins=1, alpha=1.0, beta=math.log(2.0))
        np.testing.assert_allclose(thermal_weights(bath), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_infinite_temperature_limit(self):
        bath = SpinBath(n_spins=6, alpha=5.0, beta=0.0)
        expected = np.array([math.comb(6, m) for m in range(7)]) / 2.0**6
        np.testing.assert_allclose(thermal_weights(bath), expected, atol=1e-15)

    def test_infinite_beta_is_the_ground_state(self):
        bath = SpinBath(n_spins=10, alpha=1.0, beta=math.inf)
        np.testing.assert_array_equal(thermal_weights(bath), [1.0] + [0.0] * 10)
        assert mean_occupation(bath) == 0.0

    def test_zero_temperature_limit(self):
        bath = SpinBath(n_spins=10, alpha=1.0, beta=1e4)
        weights = thermal_weights(bath)
        assert weights[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights[1:] < 1e-12)

    def test_figure_bath_ground_weight(self):
        # closed-form cross-check: p_0 = (1 + e^{-beta*alpha})^{-N}
        bath = SpinBath.from_temperature(20, 15.0e3, 50.0)
        weights = thermal_weights(bath)
        expected = (1.0 + math.exp(-bath.beta_alpha)) ** -20
        assert weights[0] == pytest.approx(expected, rel=1e-10)
        assert weights[0] == pytest.approx(0.145655, abs=1e-6)

    def test_matches_direct_binomial_formula(self):
        bath = SpinBath(n_spins=18, alpha=3.0, beta=0.21)
        direct = np.array(
            [math.comb(18, m) * math.exp(-bath.beta_alpha * m) for m in range(19)]
        )
        direct /= direct.sum()
        np.testing.assert_allclose(thermal_weights(bath), direct, rtol=1e-12)

    @given(n=st.integers(1, 64), beta_alpha=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_normalization(self, n, beta_alpha):
        bath = SpinBath(n_spins=n, alpha=1.0, beta=beta_alpha)
        weights = thermal_weights(bath)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(weights >= 0.0)
        assert np.all(weights <= 1.0)

    def test_no_overflow_for_large_baths(self):
        # C(1000, 500) ~ 10^299 overflows naive arithmetic; log space must not.
        bath = SpinBath(n_spins=1000, alpha=1.0, beta=0.01)
        weights = thermal_weights(bath)
        assert np.all(np.isfinite(weights))
        assert abs(weights.sum() - 1.0) < 1e-12

    @given(n=st.integers(1, 200), beta_alpha=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_formula(self, n, beta_alpha):
        # Both formulas round log-factorials up to log(200!) ~ 863, whose ulp
        # is 1.1e-13, within 2-3 ulp; their log C(N, m) then differ by up to
        # 5.1e-13 at N = 200 (checked exhaustively), and so do the weights.
        bath = SpinBath(n_spins=n, alpha=1.0, beta=beta_alpha)
        np.testing.assert_allclose(
            thermal_weights(bath), scipy_weights(n, beta_alpha), rtol=1e-12, atol=TINY
        )

    @given(n=st.integers(1, 60), beta_alpha=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_binomial_weights(self, n, beta_alpha):
        # Exact rational arithmetic on the big-int C(N, m) and the float x,
        # rounded once at the end.
        x = Fraction(math.exp(-beta_alpha))
        terms = [math.comb(n, m) * x**m for m in range(n + 1)]
        total = sum(terms)
        exact = np.array([float(t / total) for t in terms])
        bath = SpinBath(n_spins=n, alpha=1.0, beta=beta_alpha)
        np.testing.assert_allclose(thermal_weights(bath), exact, rtol=1e-12, atol=TINY)


class TestPartitionFunction:
    @given(n=st.integers(1, 200), beta_alpha=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_binomial_theorem_closed_form(self, n, beta_alpha):
        # Z = sum_m C(N, m) x^m = (1 + x)^N with x = e^{-beta*alpha}, so p_0 = 1/Z
        bath = SpinBath(n_spins=n, alpha=1.0, beta=beta_alpha)
        closed = math.exp(-n * math.log1p(math.exp(-beta_alpha)))
        assert thermal_weights(bath)[0] == pytest.approx(closed, rel=1e-12)


class TestMeanOccupation:
    def test_increases_with_temperature(self):
        temps = [10.0, 30.0, 50.0, 100.0, 300.0, 1000.0]
        means = [
            mean_occupation(SpinBath.from_temperature(20, 15.0e3, t)) for t in temps
        ]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_limits(self):
        cold = SpinBath(n_spins=8, alpha=1.0, beta=1e4)
        hot = SpinBath(n_spins=8, alpha=1.0, beta=0.0)
        assert mean_occupation(cold) == pytest.approx(0.0, abs=1e-12)
        assert mean_occupation(hot) == pytest.approx(4.0, rel=1e-12)
