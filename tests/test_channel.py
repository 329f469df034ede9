import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import holobath.channel as channel_mod
from holobath import reference
from holobath.channel import (
    MAX_KERNEL_ELEMENTS,
    N_INPUT_STATES,
    InputState,
    _bath_fidelity,
    _input_terms,
    _survival,
    average_fidelity,
    build_channel,
    fidelity_curve,
    state_fidelity,
)
from holobath.error_model import ErrorParams, apply_errors
from holobath.lambda_system import LambdaParams, bright_survival_amplitude, ideal_gate
from holobath.reference import (
    _input_ket,
    channel_output_state,
    cyclic_times,
    kraus_fidelity,
    kraus_matrices,
)
from holobath.spin_bath import SpinBath, thermal_weights
from holobath.sweep import FIGURE_GRID, REFINE_TOL, GammaGrid


def f_av(ch):
    """F_av of a channel: the one reduction applied to its fidelity table."""
    return average_fidelity(fidelity_curve(ch)[1])


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
        expected = bright_survival_amplitude(ch.effective.omega, shifts, params.delta0)
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
            assert abs(f_av(ch_frozen) - f_av(ch_cold)) < 1e-12
            state = InputState(1.9, 0.4)
            assert abs(state_fidelity(ch_frozen, state) - state_fidelity(ch_cold, state)) < 1e-12

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
    def test_rejects_non_finite_gamma(self, params, bath50, gamma):
        with pytest.raises(ValueError, match=r"phases are not finite at gamma=(nan|-?inf)"):
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
        before = f_av(ch)
        with pytest.raises(ValueError, match="read-only"):
            getattr(ch, name)[:] = 0
        with pytest.raises(ValueError, match="read-only"):
            getattr(ch, name)[..., 0] = 1
        np.testing.assert_array_equal(f_av(ch), before)


def log_uniform(signed: bool = True):
    """Magnitudes log-uniform over 1e-320...1e308, of both signs when ``signed``."""
    magnitudes = st.floats(-320.0, 308.0).map(lambda x: 10.0 ** x)
    if not signed:
        return magnitudes
    return st.tuples(st.sampled_from((1.0, -1.0)), magnitudes).map(lambda pair: pair[0] * pair[1])


# The largest delta whose pi*delta stays finite lies near here; with omega = 1
# the kernel's phase pi*hypot(delta, 2)/delta0 computes pi*delta first.
PI_EDGE = sys.float_info.max / math.pi


def ulps(x: float, k: int) -> float:
    """x moved by k units in the last place."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


class TestKernelDomain:
    """build_channel rejects an input exactly when the unchecked kernel gives a non-finite F_av."""

    @given(
        drive=st.tuples(log_uniform(signed=False), st.one_of(log_uniform(), st.just(0.0)),
                        st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
        errors=st.tuples(*[st.one_of(log_uniform(signed=False),
                                     st.floats(-320.0, -1e-3).map(lambda x: -(10.0 ** x)))] * 2,
                         st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
                         st.one_of(log_uniform(), st.just(0.0))),
        n_spins=st.integers(1, 29),
        gamma=st.one_of(log_uniform(), st.lists(log_uniform(), min_size=1, max_size=4),
                        st.sampled_from([math.nan, math.inf, -math.inf])),
    )
    @example(drive=(1.0, 1e308, math.pi / 2, 0.0), errors=(0.0,) * 5, n_spins=20, gamma=2.8)
    @example(drive=(1.0, 2.0, math.pi / 2, 0.0), errors=(0.0,) * 5, n_spins=20, gamma=1e307)
    @example(drive=(1e-310, 0.0, math.pi / 2, 0.0), errors=(0.0,) * 5, n_spins=20, gamma=0.0)
    @example(drive=(1e-310, 1e-320, 1.0, 0.0), errors=(0.1, -0.2, 0.3, 0.0, 0.5), n_spins=3,
             gamma=[0.0, 1.0])
    @example(drive=(1.0, -5e307, math.pi / 2, 0.0), errors=(0.0,) * 5, n_spins=20,
             gamma=[0.0, 5e306])
    # Each phase fits, their sum would not; the top level m = N overflows, m = N - 1 would not.
    @example(drive=(0.5, 0.0, math.pi / 2, 0.0), errors=(0.0,) * 5, n_spins=1, gamma=4e307)
    @example(drive=(1.0, 2.0, math.pi / 2, 0.0), errors=(0.0,) * 5, n_spins=2, gamma=4e307)
    @example(drive=(1.0, ulps(PI_EDGE, -2), 1.0, 0.0), errors=(0.0,) * 5, n_spins=1, gamma=0.0)
    @example(drive=(1.0, ulps(PI_EDGE, -1), 1.0, 0.0), errors=(0.0,) * 5, n_spins=1, gamma=0.0)
    @example(drive=(1.0, PI_EDGE, 1.0, 0.0), errors=(0.0,) * 5, n_spins=1, gamma=0.0)
    @example(drive=(1.0, ulps(PI_EDGE, 1), 1.0, 0.0), errors=(0.0,) * 5, n_spins=1, gamma=0.0)
    @example(drive=(1.0, ulps(PI_EDGE, 2), 1.0, 0.0), errors=(0.0,) * 5, n_spins=1, gamma=0.0)
    @example(drive=(1.0, 2.0, 1.0, 0.0), errors=(0.0,) * 5, n_spins=1, gamma=[0.0, math.nan])
    @example(drive=(1.0, 2.0, 1.0, 0.0), errors=(0.0,) * 5, n_spins=4, gamma=-math.inf)
    @settings(max_examples=400, deadline=None)
    def test_rejects_exactly_what_the_kernel_cannot_compute(self, drive, errors, n_spins, gamma):
        try:
            p, e = LambdaParams(*drive), ErrorParams(*errors)
            eff = apply_errors(p, e)
        except ValueError:
            reject()  # rejected at the dataclass boundary, before build_channel
        bath = SpinBath(n_spins, 2.0, 0.3)
        gammas = np.asarray(gamma, dtype=float)
        with np.errstate(all="ignore"):
            terms = _input_terms(p, eff, channel_mod._THETA_RULE.nodes)
            survival = _survival(eff, bath.occupations(), p.delta0, gammas)
            unchecked = average_fidelity(_bath_fidelity(terms, thermal_weights(bath), survival))
        computable = bool(np.isfinite(unchecked).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ch = build_channel(p, e, bath, gamma)
            except ValueError:
                assert not computable
                return
            assert computable
            np.testing.assert_array_equal(f_av(ch), unchecked)

    def test_accepts_a_shift_that_crosses_zero(self):
        # delta' = -5e307 and gamma*N = 1e308 each fit, and so does every D between:
        # the sum of their sizes would overflow, but no phase does.
        p = LambdaParams(omega=1.0, delta=-5e307)
        ch = build_channel(p, ErrorParams(), SpinBath(20, 2.0, 0.3), np.array([0.0, 5e306]))
        assert np.isfinite(f_av(ch)).all()

    def test_edge_examples_straddle_the_overflow(self):
        # The ulp examples above test both sides of the pi*delta overflow.
        assert math.isinf(math.pi * ulps(PI_EDGE, 2))
        assert math.isfinite(math.pi * ulps(PI_EDGE, -2))


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
        terms = _input_terms(ch.params, ch.effective, np.linspace(0.0, math.pi, 9), 5.5)
        values = _bath_fidelity(terms, ch.weights, ch.survival)
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
        _, curve = fidelity_curve(ch)
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
        averages = f_av(ch)
        assert states.shape == averages.shape == (len(gammas),)
        for gamma, value, average in zip(gammas, states, averages):
            single = build_channel(p, e, bath, gamma)
            assert abs(value - state_fidelity(single, state)) < 1e-14
            assert abs(average - f_av(single)) < 1e-14


class TestAverageFidelity:
    def test_identity_channel(self, params, bath50):
        ch = build_channel(params, ErrorParams(), bath50, 0.0)
        assert f_av(ch) == pytest.approx(1.0, abs=1e-12)

    def test_vartheta_grid_shape(self, params, bath50):
        grid = fidelity_curve(build_channel(params, ErrorParams(), bath50, 0.0))[0]
        assert grid.size == 30
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(math.pi, rel=1e-15)

    def test_endpoints_carry_no_weight(self, params, bath50):
        # sin(0) = sin(pi) = 0 analytically, so the n-point average equals the
        # average over the n-2 interior points.
        ch = build_channel(params, ErrorParams.symmetric(0.2), bath50, 2.8)
        varthetas, values = fidelity_curve(ch)
        weights = np.sin(varthetas[1:-1])
        interior = float(np.dot(weights, values[1:-1]) / weights.sum())
        assert average_fidelity(values) == pytest.approx(interior, rel=1e-14, abs=0.0)

    def test_bath_free_baseline_regression(self, params, bath50):
        # frozen values; the quoted span [95.5%, 98.6%] is asserted in the
        # acceptance suite
        expected = {0.1: 0.987916455544, 0.15: 0.973523373314, 0.2: 0.954694638719}
        for eps, value in expected.items():
            ch = build_channel(params, ErrorParams.symmetric(eps), bath50, 0.0)
            assert f_av(ch) == pytest.approx(value, abs=1e-9)

    def test_figure_operating_point_regression(self, params, bath50):
        ch = build_channel(params, ErrorParams.symmetric(0.1), bath50, 2.8)
        assert f_av(ch) == pytest.approx(0.974333639507, abs=1e-9)

    def test_direct_method_agrees_with_analytic(self, params, bath50):
        # the kernel average against the same sin-weighted average of the
        # dense Kraus fidelity
        ch = build_channel(params, ErrorParams.symmetric(0.15), bath50, 1.7)
        varthetas = np.arange(30) * (math.pi / 29)
        kraus = kraus_matrices(ch)
        dense = np.array([kraus_fidelity(ch, kraus, InputState(float(v))) for v in varthetas])
        weights = np.sin(varthetas)
        weights[0] = weights[-1] = 0.0
        assert abs(f_av(ch) - np.dot(weights, dense) / weights.sum()) < 1e-12


def legacy_rule(n):
    """The vartheta grid and sin-weight reduction as written before the one rule object."""
    varthetas = np.arange(n) * (math.pi / (n - 1))
    weights = np.sin(varthetas)
    weights[0] = 0.0
    weights[-1] = 0.0
    return varthetas, lambda values: values @ weights / np.sum(weights)


class TestThetaRule:
    def test_average_equals_the_legacy_reduction_bit_for_bit(self, params, bath50):
        varthetas, legacy = legacy_rule(30)
        assert np.array_equal(channel_mod._THETA_RULE.nodes, varthetas)
        rng = np.random.default_rng(30)
        ch = build_channel(params, ErrorParams(0.2, 0.15, 0.3, 0.0, 0.18), bath50,
                           np.linspace(0.0, 8.0, 17))
        tables = [rng.random(30), rng.random((17, 30)), fidelity_curve(ch)[1]]
        tables.append(tables[-1][5])
        for values in tables:
            expected = legacy(values)
            averaged = average_fidelity(values)
            if values.ndim == 1:
                assert type(averaged) is float and averaged == float(expected)
            else:
                assert np.array_equal(averaged, expected)

    def test_arrays_are_read_only(self, params, bath50):
        rule = channel_mod._THETA_RULE
        varthetas = fidelity_curve(build_channel(params, ErrorParams(), bath50, 0.0))[0]
        assert varthetas is rule.nodes
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[1] = 0.0

    def test_table_needs_one_column_per_node(self):
        for shape in ((29,), (2, 29), (4, 2), (4, 31)):
            message = f"N_INPUT_STATES = 30 rule nodes, got shape {shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                average_fidelity(np.ones(shape))


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
    def test_oversized_bath_rejected_before_allocating(self, params):
        bath = SpinBath(n_spins=100_000_000, alpha=15.0e3, beta=0.01)

        def build():
            with pytest.raises(ValueError, match="100000001 bath levels.*MAX_KERNEL_ELEMENTS"):
                build_channel(params, ErrorParams.symmetric(0.1), bath, 2.8)

        assert traced_peak(build) < 100_000

    def test_oversized_state_grid_rejected_before_allocating(self, params, bath50, monkeypatch):
        # Below N = 29 the (gamma, input states) table outgrows the (gamma, N+1)
        # survival, and build_channel rejects it before either exists.
        gammas = FIGURE_GRID.values()
        monkeypatch.setattr(channel_mod, "MAX_KERNEL_ELEMENTS", gammas.size * 29)

        def build():
            message = "161 gamma values x 30 input states is 4830 kernel elements"
            with pytest.raises(ValueError, match=message):
                build_channel(params, ErrorParams.symmetric(0.1), bath50, gammas)

        assert traced_peak(build) < 100_000

    def test_cap_boundary(self, params, monkeypatch):
        # The wider of N+1 and the 30 input states sizes the channel; N = 29 ties.
        gammas = FIGURE_GRID.values()
        for n_spins in (20, 28, 29, 40):
            width = max(n_spins + 1, N_INPUT_STATES)
            axis = "input states" if n_spins < 29 else "bath levels"
            bath = SpinBath(n_spins, 15.0e3, 0.01)
            monkeypatch.setattr(channel_mod, "MAX_KERNEL_ELEMENTS", gammas.size * width)
            ch = build_channel(params, ErrorParams.symmetric(0.1), bath, gammas)
            assert ch.survival.shape == (161, n_spins + 1)
            assert fidelity_curve(ch)[1].shape == (161, N_INPUT_STATES)
            assert f_av(ch).shape == gammas.shape
            monkeypatch.setattr(channel_mod, "MAX_KERNEL_ELEMENTS", gammas.size * width - 1)

            def build():
                with pytest.raises(ValueError, match=f"161 gamma values x {width} {axis} is "
                                                     f"{161 * width} kernel elements, more than "
                                                     f"MAX_KERNEL_ELEMENTS = {161 * width - 1}"):
                    build_channel(params, ErrorParams(), bath, gammas)

            assert traced_peak(build) < 100_000

    def test_largest_grid_fits_every_figure_configuration(self):
        # A grid as fine as the refinement tolerance over the figure range;
        # N = 28 is the largest figure bath; the average has 30 input states.
        points = GammaGrid(FIGURE_GRID.start, FIGURE_GRID.stop, REFINE_TOL).values().size
        assert points == 80_001
        assert points * (28 + 1) <= MAX_KERNEL_ELEMENTS
        assert points * N_INPUT_STATES <= MAX_KERNEL_ELEMENTS
