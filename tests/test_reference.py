import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from holobath.channel import InputState, build_channel
from holobath.error_model import ErrorParams
from holobath.lambda_system import LambdaParams
from holobath.reference import (
    BRUTE_FORCE_MAX_COLLAPSED,
    BRUTE_FORCE_MAX_PRODUCT,
    channel_output_state,
    expm_hermitian,
    find_cyclic_time,
    full_evolution,
    kraus_unitaries,
    partial_trace_bath,
    raw_error_hamiltonian,
    run_validation_suite,
    trace_distance,
)
from holobath.spin_bath import SpinBath


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (raw + raw.conj().T)


class TestExpmHermitian:
    def test_zero_hamiltonian(self):
        np.testing.assert_allclose(expm_hermitian(np.zeros((4, 4)), 2.0), np.eye(4), atol=1e-15)

    def test_diagonal_case(self):
        h = np.diag([1.0, -2.0, 0.5])
        expected = np.diag(np.exp(-1j * np.array([1.0, -2.0, 0.5]) * 0.7))
        np.testing.assert_allclose(expm_hermitian(h, 0.7), expected, atol=1e-14)

    def test_against_scaling_and_squaring(self):
        # scipy.linalg.expm (Pade scaling-and-squaring) as the second,
        # independent algorithm
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5, 12, 25, 40):
            h = random_hermitian(rng, dim)
            mine = expm_hermitian(h, 0.9)
            ref = scipy.linalg.expm(-1j * h * 0.9)
            assert np.max(np.abs(mine - ref)) < 1e-9

    def test_unitary_output(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 17)
        u = expm_hermitian(h, 3.1)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(17), atol=1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(bad, 1.0)


class TestRawErrorHamiltonian:
    def test_hermitian(self):
        p = LambdaParams(omega=1.0, delta=2.0, theta=1.2, phi=0.7)
        h = raw_error_hamiltonian(p, ErrorParams(0.1, -0.2, 0.3, -0.4, 0.2))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)

    def test_zero_errors_matches_drive(self):
        p = LambdaParams(omega=1.0, delta=2.0, theta=1.2, phi=0.7)
        h = raw_error_hamiltonian(p, ErrorParams())
        omega0, omega1 = p.rabi_pair
        assert h[2, 2] == pytest.approx(2.0)
        assert h[2, 0] == pytest.approx(omega0)
        assert h[2, 1] == pytest.approx(omega1)
        assert h[0, 1] == 0.0

    def test_detuning_error(self):
        p = LambdaParams(omega=1.0, delta=2.0)
        h = raw_error_hamiltonian(p, ErrorParams(kappa=0.25))
        assert h[2, 2] == pytest.approx(2.5)


class TestFullEvolution:
    def test_decoupled_bath_reproduces_unitary_evolution(self, params, bath50):
        # gamma = 0: the output must be exactly U'|psi><psi|U'^dag
        errors = ErrorParams.symmetric(0.15)
        state = InputState(1.2, 0.8)
        small = SpinBath(n_spins=6, alpha=bath50.alpha, beta=bath50.beta)
        rho = full_evolution(params, errors, small, 0.0, state)
        ch = build_channel(params, errors, small, 0.0)
        ket = kraus_unitaries(ch)[0] @ state.ket(ch.dark, ch.bright)
        np.testing.assert_allclose(rho, np.outer(ket, ket.conj()), atol=1e-12)

    def test_density_matrix_properties(self, params):
        bath = SpinBath(n_spins=8, alpha=3.0, beta=0.4)
        errors = ErrorParams(0.1, -0.1, 0.2, -0.7, 0.3)
        state = InputState(2.1, 4.0)
        rho = full_evolution(params, errors, bath, 2.8, state)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10
        # purity bound: mixed for coupled thermal baths, pure when decoupled
        purity = float(np.trace(rho @ rho).real)
        assert purity <= 1.0 + 1e-12
        assert purity < 0.999
        rho0 = full_evolution(params, errors, bath, 0.0, state)
        assert float(np.trace(rho0 @ rho0).real) == pytest.approx(1.0, abs=1e-12)

    def test_matches_channel_small_bath(self, params):
        bath = SpinBath(n_spins=4, alpha=2.0, beta=0.6)
        errors = ErrorParams(0.1, 0.2, 0.3, -0.2, 0.1)
        state = InputState(0.8, 0.3)
        ch = build_channel(params, errors, bath, 2.8)
        rho_fast = channel_output_state(ch, state)
        rho_exact = full_evolution(params, errors, bath, 2.8, state)
        assert trace_distance(rho_fast, rho_exact) < 1e-10

    def test_theta_endpoint_with_phase_errors(self, bath50):
        # theta = pi pins the common drive phase to zeta0; channel and oracle
        # must still agree on the full matrix
        p = LambdaParams(omega=1.0, delta=2.0, theta=math.pi, phi=0.4)
        bath = SpinBath(n_spins=5, alpha=2.0, beta=0.7)
        errors = ErrorParams(0.1, -0.2, 0.9, -0.5, 0.2)
        state = InputState(1.7, 2.2)
        ch = build_channel(p, errors, bath, 1.9)
        rho_fast = channel_output_state(ch, state)
        rho_exact = full_evolution(p, errors, bath, 1.9, state)
        assert trace_distance(rho_fast, rho_exact) < 1e-10

    def test_product_basis_matches_collapsed(self, params):
        # validates folding the degenerate levels into binomial weights
        bath = SpinBath(n_spins=4, alpha=3.0, beta=1.5)
        errors = ErrorParams(0.1, 0.2, 0.3, -0.2, 0.1)
        state = InputState(0.8, 0.3)
        rho_col = full_evolution(params, errors, bath, 2.8, state, basis="collapsed")
        rho_prod = full_evolution(params, errors, bath, 2.8, state, basis="product")
        assert trace_distance(rho_col, rho_prod) < 1e-10

    def test_respects_brute_force_caps(self, params):
        state = InputState(1.0)
        big = SpinBath(n_spins=BRUTE_FORCE_MAX_COLLAPSED + 1, alpha=1.0, beta=0.1)
        with pytest.raises(ValueError, match="capped"):
            full_evolution(params, ErrorParams(), big, 1.0, state)
        mid = SpinBath(n_spins=BRUTE_FORCE_MAX_PRODUCT + 1, alpha=1.0, beta=0.1)
        with pytest.raises(ValueError, match="capped"):
            full_evolution(params, ErrorParams(), mid, 1.0, state, basis="product")

    def test_rejects_unknown_basis(self, params):
        bath = SpinBath(n_spins=2, alpha=1.0, beta=0.1)
        with pytest.raises(ValueError, match="basis"):
            full_evolution(params, ErrorParams(), bath, 1.0, InputState(1.0), basis="spam")

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho)
        reduced = partial_trace_bath(rho, 4)
        assert np.trace(reduced) == pytest.approx(1.0, abs=1e-12)


class TestFindCyclicTime:
    def test_reference_configuration(self):
        p = LambdaParams(omega=1.0, delta=2.0)
        assert find_cyclic_time(p) == pytest.approx(2.0 * math.pi / math.sqrt(8.0), abs=1e-9)

    def test_resonant_case(self):
        p = LambdaParams(omega=1.0, delta=0.0)
        assert find_cyclic_time(p) == pytest.approx(math.pi, abs=1e-9)

    def test_errored_cyclic_time_differs_from_ideal(self):
        # omega' = 1.1, delta' = 2.2: tau0' = 2 pi / sqrt(9.68) != tau0
        eff = LambdaParams(omega=1.1, delta=2.2)
        found = find_cyclic_time(eff)
        assert found == pytest.approx(2.019492244617, abs=1e-9)
        assert abs(found - LambdaParams(omega=1.0, delta=2.0).tau0) > 0.1

    def test_leakage_amplitude_vanishes_at_the_root(self):
        from holobath.lambda_system import bright_dark_states

        p = LambdaParams(omega=0.7, delta=-3.1, theta=1.0, phi=0.5)
        t = find_cyclic_time(p)
        u = expm_hermitian(raw_error_hamiltonian(p, ErrorParams()), t)
        _, b = bright_dark_states(p)
        assert abs(u[2] @ b) < 1e-10

    @given(omega=st.floats(0.05, 10.0), delta=st.floats(-10.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form(self, omega, delta):
        p = LambdaParams(omega=omega, delta=delta)
        assert abs(find_cyclic_time(p) - p.tau0) < 1e-9


class TestValidationSuite:
    def test_all_checks_pass(self):
        checks = run_validation_suite(cases=12, seed=5, max_spins=6)
        assert len(checks) == 7
        for check in checks:
            assert check.passed, f"{check.name}: worst={check.worst:.3e}"
