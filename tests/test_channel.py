import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holobath.channel as channel_mod
from holobath import reference
from holobath.channel import (
    MAX_KERNEL_ELEMENTS,
    InputState,
    _fidelity,
    average_fidelity,
    build_channel,
    fidelity_curve,
    state_fidelity,
)
from holobath.error_model import ErrorParams
from holobath.lambda_system import LambdaParams, bright_survival_amplitude, ideal_gate
from holobath.reference import (
    _input_ket,
    channel_output_state,
    cyclic_times,
    kraus_fidelity,
    kraus_matrices,
)
from holobath.spin_bath import SpinBath, thermal_weights
from holobath.sweep import FIGURE_GRID, MAX_GRID_POINTS


def completeness_defect(ch):
    kraus = kraus_matrices(ch)
    return np.max(np.abs(np.einsum("mji,mjk->ik", kraus.conj(), kraus) - np.eye(3)))


def unitality_defect(ch):
    kraus = kraus_matrices(ch)
    return np.max(np.abs(np.einsum("mij,mkj->ik", kraus, kraus.conj()) - np.eye(3)))


def dense_fidelity(ch, state):
    return kraus_fidelity(ch, kraus_matrices(ch), state)


@st.composite
def channel_cases(draw):
    """Arbitrary errors, drive, bath, gamma and input state (vartheta, xi)."""
    p = LambdaParams(
        omega=draw(st.floats(0.2, 5.0)),
        delta=draw(st.floats(-5.0, 5.0)),
        theta=draw(st.floats(0.0, math.pi)),
        phi=draw(st.floats(0.0, 2.0 * math.pi)),
    )
    e = ErrorParams(
        epsilon0=draw(st.floats(-0.3, 0.3)),
        epsilon1=draw(st.floats(-0.3, 0.3)),
        zeta0=draw(st.floats(-math.pi, math.pi)),
        zeta1=draw(st.floats(-math.pi, math.pi)),
        kappa=draw(st.floats(-0.3, 0.3)),
    )
    alpha = draw(st.floats(0.1, 50.0))
    bath = SpinBath(
        n_spins=draw(st.integers(1, 8)), alpha=alpha, beta=draw(st.floats(0.0, 5.0)) / alpha
    )
    gamma = draw(st.floats(0.0, 8.0))
    state = InputState(draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi)))
    return p, e, bath, gamma, state


class TestInputState:
    def test_rejects_vartheta_out_of_range(self):
        with pytest.raises(ValueError, match="vartheta"):
            InputState(-0.1)
        with pytest.raises(ValueError, match="vartheta"):
            InputState(math.pi + 0.1)

    def test_xi_wraps(self):
        assert 0.0 <= InputState(1.0, xi=-2.0).xi < 2.0 * math.pi

    @pytest.mark.parametrize("xi", [math.nan, math.inf])
    def test_rejects_non_finite_xi(self, xi):
        with pytest.raises(ValueError, match="xi"):
            InputState(1.0, xi)

    def test_ket_is_normalized(self):
        p = LambdaParams(omega=1.0, delta=2.0, theta=1.1, phi=0.4)
        ket = _input_ket(p, InputState(0.7, 1.3))
        assert abs(np.vdot(ket, ket) - 1.0) < 1e-14


class TestBuildChannel:
    def test_zero_error_zero_coupling_is_the_ideal_gate(self, params, bath50):
        ch = build_channel(params, ErrorParams(), bath50, 0.0)
        gate = ideal_gate(params)
        for unitary in reference._kraus_unitaries([ch]):
            np.testing.assert_allclose(unitary, gate, atol=1e-12)

    def test_zero_coupling_factors_are_identical(self, params, bath50):
        ch = build_channel(params, ErrorParams.symmetric(0.17), bath50, 0.0)
        unitaries = reference._kraus_unitaries([ch])
        for unitary in unitaries:
            np.testing.assert_allclose(unitary, unitaries[0], atol=0.0, rtol=0.0)

    def test_kraus_count_and_weights(self, params, bath50, symmetric_errors):
        ch = build_channel(params, symmetric_errors, bath50, 2.8)
        assert len(kraus_matrices(ch)) == bath50.n_spins + 1
        assert ch.survival.shape == (bath50.n_spins + 1,)
        assert ch.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uses_ideal_cyclic_time(self, params, bath50):
        # errors shift the errored cyclic time but the pulse still runs tau0
        ch = build_channel(params, ErrorParams.symmetric(0.2), bath50, 1.0)
        assert abs(cyclic_times([ch.effective])[0] - params.tau0) > 0.1
        shifts = ch.effective.delta + 1.0 * bath50.occupations()
        expected = bright_survival_amplitude(ch.effective.omega, shifts, params.tau0, params.delta0)
        np.testing.assert_array_equal(ch.survival, expected)

    def test_zero_temperature_single_kraus_term(self, params, symmetric_errors):
        cold = SpinBath(n_spins=12, alpha=1.0, beta=1e4)
        ch = build_channel(params, symmetric_errors, cold, 2.8)
        assert ch.weights[0] == pytest.approx(1.0, abs=1e-12)
        # the channel then acts as a single unitary: pure outputs
        rho = channel_output_state(ch, InputState(1.1, 0.3))
        purity = float(np.trace(rho @ rho).real)
        assert purity == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.35, 2.8, 8.0])
    @pytest.mark.parametrize(
        "errors",
        [ErrorParams(), ErrorParams.symmetric(0.2), ErrorParams(0.1, -0.2, 0.5, -0.3, 0.15)],
    )
    def test_completeness_and_unitality(self, params, bath50, gamma, errors):
        ch = build_channel(params, errors, bath50, gamma)
        assert completeness_defect(ch) < 1e-12
        assert unitality_defect(ch) < 1e-12

    def test_apply_preserves_trace_and_hermiticity(self, params, bath50, symmetric_errors):
        ch = build_channel(params, symmetric_errors, bath50, 2.8)
        rho = channel_output_state(ch, InputState(2.0, 0.9))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-13)

    @given(case=channel_cases(), beta_alpha=st.sampled_from([0.0, 0.7, math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_output_state_matches_kraus_action(self, case, beta_alpha):
        # An independent sum_m A_m rho A_m^dag on the density matrix itself,
        # against the Kraus-image sum the validation suite runs.
        p, e, bath, gamma, state = case
        bath = SpinBath(bath.n_spins, bath.alpha, beta_alpha / bath.alpha)
        ch = build_channel(p, e, bath, gamma)
        kraus, ket = kraus_matrices(ch), _input_ket(p, state)
        expected = np.einsum("mij,jk,mlk->il", kraus, np.outer(ket, ket.conj()), kraus.conj())
        assert np.max(np.abs(channel_output_state(ch, state) - expected)) <= 1e-15

    def test_zero_temperature_limit_is_the_ground_state(self, params, symmetric_errors):
        # beta = inf is the T -> 0 limit, not 0*inf = NaN
        frozen = SpinBath(n_spins=20, alpha=15.0e3, beta=math.inf)
        cold = SpinBath(n_spins=20, alpha=15.0e3, beta=1e3 / 15.0e3)
        np.testing.assert_array_equal(thermal_weights(frozen), [1.0] + [0.0] * 20)
        for gamma in (0.0, 2.8):
            ch_frozen = build_channel(params, symmetric_errors, frozen, gamma)
            ch_cold = build_channel(params, symmetric_errors, cold, gamma)
            assert abs(average_fidelity(ch_frozen) - average_fidelity(ch_cold)) < 1e-12
            state = InputState(1.9, 0.4)
            assert abs(state_fidelity(ch_frozen, state) - state_fidelity(ch_cold, state)) < 1e-12

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
    def test_rejects_non_finite_gamma(self, params, bath50, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            build_channel(params, ErrorParams(), bath50, gamma)

    def test_rejects_gamma_matrix(self, params, bath50):
        with pytest.raises(ValueError, match="1-D"):
            build_channel(params, ErrorParams(), bath50, np.zeros((2, 2)))

    def test_dense_kraus_matrices_need_a_scalar_gamma(self, params, bath50):
        ch = build_channel(params, ErrorParams(), bath50, np.zeros(bath50.n_spins + 1))
        with pytest.raises(ValueError, match="scalar-gamma"):
            kraus_matrices(ch)

    @pytest.mark.parametrize("gamma", [2.8, np.array([0.0, 2.8])])
    @pytest.mark.parametrize("name", ["weights", "survival"])
    def test_arrays_are_read_only(self, params, bath50, symmetric_errors, gamma, name):
        # A shared channel cannot be changed under a later fidelity call.
        ch = build_channel(params, symmetric_errors, bath50, gamma)
        before = average_fidelity(ch)
        with pytest.raises(ValueError, match="read-only"):
            getattr(ch, name)[:] = 0
        with pytest.raises(ValueError, match="read-only"):
            getattr(ch, name)[..., 0] = 1
        np.testing.assert_array_equal(average_fidelity(ch), before)


class TestStateFidelity:
    def test_identity_channel_is_perfect(self, params, bath50):
        ch = build_channel(params, ErrorParams(), bath50, 0.0)
        for vartheta in np.linspace(0.0, math.pi, 7):
            assert state_fidelity(ch, InputState(float(vartheta))) == pytest.approx(
                1.0, abs=1e-12
            )

    @pytest.mark.parametrize("gamma", [0.0, 1.3, 2.8])
    @pytest.mark.parametrize("temperature", [50.0, 300.0])
    def test_dark_state_is_untouched(self, params, gamma, temperature):
        bath = SpinBath.from_temperature(20, 15.0e3, temperature)
        ch = build_channel(params, ErrorParams.symmetric(0.2), bath, gamma)
        assert state_fidelity(ch, InputState(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_and_direct_paths_agree(self, params, bath50):
        # the closed-form kernel against the dense Kraus fidelity of reference
        ch = build_channel(params, ErrorParams.symmetric(0.1), bath50, 0.0)
        bright = InputState(math.pi)
        assert abs(state_fidelity(ch, bright) - dense_fidelity(ch, bright)) < 1e-12
        for vartheta in np.linspace(0.0, math.pi, 11):
            s = InputState(float(vartheta))
            assert abs(state_fidelity(ch, s) - dense_fidelity(ch, s)) < 1e-12

    def test_xi_independence_of_the_direct_path(self, params, bath50):
        # symmetric errors leave F independent of xi, in the dense Kraus
        # fidelity and in the kernel alike
        ch = build_channel(params, ErrorParams.symmetric(0.15), bath50, 2.8)
        for vartheta in (0.4, 1.2, 2.7):
            reference = dense_fidelity(ch, InputState(vartheta, 0.0))
            for xi in np.linspace(0.0, 2.0 * math.pi, 13):
                state = InputState(vartheta, xi)
                assert abs(dense_fidelity(ch, state) - reference) < 1e-12
                assert abs(state_fidelity(ch, state) - reference) < 1e-12

    def test_exact_cancellation_is_zero_not_nan(self):
        # omega' = 2 omega at delta = 0 returns the bright state with sign +1
        # (u_m = 1), so at vartheta = pi/2 the output is orthogonal to G psi;
        # the expanded F^2 can then land a roundoff below 0.
        p = LambdaParams(omega=1.0, delta=0.0, theta=1.5, phi=5.5)
        ch = build_channel(p, ErrorParams.symmetric(1.0), SpinBath(2, 1.0, 1.0), 0.0)
        values = _fidelity(ch, np.linspace(0.0, math.pi, 9), 5.5)
        assert np.all(np.isfinite(values))
        assert values[4] < 1e-7

    @given(case=channel_cases())
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_dense_kraus_fidelity(self, case):
        p, e, bath, gamma, state = case
        ch = build_channel(p, e, bath, gamma)
        assert abs(state_fidelity(ch, state) - dense_fidelity(ch, state)) < 1e-12

    @given(case=channel_cases())
    @settings(max_examples=150, deadline=None)
    def test_bounded(self, case):
        p, e, bath, gamma, state = case
        ch = build_channel(p, e, bath, gamma)
        value = state_fidelity(ch, state)
        assert 0.0 <= value <= 1.0  # also false for NaN
        _, curve = fidelity_curve(ch, 7)
        assert np.all((curve >= 0.0) & (curve <= 1.0))

    @given(case=channel_cases(), shift=st.floats(-math.pi, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_common_drive_phase_drops_out(self, case, shift):
        p, e, bath, gamma, state = case
        shifted = ErrorParams(e.epsilon0, e.epsilon1, e.zeta0 + shift, e.zeta1 + shift, e.kappa)
        value = state_fidelity(build_channel(p, e, bath, gamma), state)
        assert abs(state_fidelity(build_channel(p, shifted, bath, gamma), state) - value) < 1e-12

    @given(case=channel_cases(), gammas=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_gamma_array_matches_scalar_channels(self, case, gammas):
        p, e, bath, _, state = case
        ch = build_channel(p, e, bath, np.array(gammas))
        states = state_fidelity(ch, state)
        averages = average_fidelity(ch, 9)
        assert states.shape == averages.shape == (len(gammas),)
        for gamma, value, average in zip(gammas, states, averages):
            single = build_channel(p, e, bath, gamma)
            assert abs(value - state_fidelity(single, state)) < 1e-14
            assert abs(average - average_fidelity(single, 9)) < 1e-14


class TestAverageFidelity:
    def test_identity_channel(self, params, bath50):
        ch = build_channel(params, ErrorParams(), bath50, 0.0)
        assert average_fidelity(ch, 30) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_grids(self, params, bath50):
        ch = build_channel(params, ErrorParams(), bath50, 0.0)
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="3"):
                average_fidelity(ch, n)

    def test_vartheta_grid_shape(self, params, bath50):
        grid = fidelity_curve(build_channel(params, ErrorParams(), bath50, 0.0), 30)[0]
        assert grid.size == 30
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(math.pi, rel=1e-15)

    def test_endpoints_carry_no_weight(self, params, bath50):
        # sin(0) = sin(pi) = 0 analytically, so the n-point average equals the
        # average over the n-2 interior points.
        ch = build_channel(params, ErrorParams.symmetric(0.2), bath50, 2.8)
        n = 30
        varthetas, values = fidelity_curve(ch, n)
        weights = np.sin(varthetas[1:-1])
        interior = float(np.dot(weights, values[1:-1]) / weights.sum())
        assert average_fidelity(ch, n) == pytest.approx(interior, rel=1e-14, abs=0.0)

    def test_bath_free_baseline_regression(self, params, bath50):
        # frozen values; the quoted span [95.5%, 98.6%] is asserted in the
        # acceptance suite
        expected = {0.1: 0.987916455544, 0.15: 0.973523373314, 0.2: 0.954694638719}
        for eps, value in expected.items():
            ch = build_channel(params, ErrorParams.symmetric(eps), bath50, 0.0)
            assert average_fidelity(ch, 30) == pytest.approx(value, abs=1e-9)

    def test_figure_operating_point_regression(self, params, bath50):
        ch = build_channel(params, ErrorParams.symmetric(0.1), bath50, 2.8)
        assert average_fidelity(ch, 30) == pytest.approx(0.974333639507, abs=1e-9)

    def test_direct_method_agrees_with_analytic(self, params, bath50):
        # the kernel average against the same sin-weighted average of the
        # dense Kraus fidelity
        ch = build_channel(params, ErrorParams.symmetric(0.15), bath50, 1.7)
        varthetas = np.arange(30) * (math.pi / 29)
        kraus = kraus_matrices(ch)
        dense = np.array([kraus_fidelity(ch, kraus, InputState(float(v))) for v in varthetas])
        weights = np.sin(varthetas)
        weights[0] = weights[-1] = 0.0
        assert abs(average_fidelity(ch, 30) - np.dot(weights, dense) / weights.sum()) < 1e-12


def traced_peak(fn) -> int:
    """Peak traced allocation, in bytes, while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestKernelSizeCap:
    @pytest.mark.parametrize("bad", [3.5, 30.5, True, "30", None])
    def test_state_count_must_be_an_integer(self, params, bath50, bad):
        ch = build_channel(params, ErrorParams(), bath50, 0.0)
        for call in (fidelity_curve, average_fidelity):
            with pytest.raises(ValueError, match="n_states"):
                call(ch, bad)

    def test_numpy_state_count_is_accepted(self, params, bath50):
        ch = build_channel(params, ErrorParams.symmetric(0.1), bath50, 2.8)
        assert average_fidelity(ch, np.int64(30)) == average_fidelity(ch, 30)

    def test_oversized_bath_rejected_before_allocating(self, params):
        bath = SpinBath(n_spins=100_000_000, alpha=15.0e3, beta=0.01)

        def build():
            with pytest.raises(ValueError, match="100000001 bath levels.*MAX_KERNEL_ELEMENTS"):
                build_channel(params, ErrorParams.symmetric(0.1), bath, 2.8)

        assert traced_peak(build) < 100_000

    def test_oversized_state_grid_rejected_before_allocating(self, params, bath50):
        ch = build_channel(params, ErrorParams.symmetric(0.1), bath50, FIGURE_GRID.values())

        def evaluate():
            for call in (fidelity_curve, average_fidelity):
                with pytest.raises(ValueError, match="161 gamma values x 100000000 input states"):
                    call(ch, 100_000_000)

        assert traced_peak(evaluate) < 100_000

    def test_cap_boundary(self, params, bath50, monkeypatch):
        gammas = FIGURE_GRID.values()
        monkeypatch.setattr(channel_mod, "MAX_KERNEL_ELEMENTS", gammas.size * 30)
        ch = build_channel(params, ErrorParams.symmetric(0.1), bath50, gammas)
        assert average_fidelity(ch, 30).shape == gammas.shape
        with pytest.raises(ValueError, match="MAX_KERNEL_ELEMENTS"):
            average_fidelity(ch, 31)
        monkeypatch.setattr(channel_mod, "MAX_KERNEL_ELEMENTS", gammas.size * 21)
        assert build_channel(params, ErrorParams(), bath50, gammas).survival.shape == (161, 21)
        with pytest.raises(ValueError, match="MAX_KERNEL_ELEMENTS"):
            build_channel(params, ErrorParams(), SpinBath(21, 15.0e3, 0.01), gammas)

    def test_largest_grid_fits_every_figure_configuration(self):
        # N = 28 is the largest figure bath; 30 input states are the default.
        assert MAX_GRID_POINTS * (28 + 1) <= MAX_KERNEL_ELEMENTS
        assert MAX_GRID_POINTS * 30 <= MAX_KERNEL_ELEMENTS
