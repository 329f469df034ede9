import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobath.channel import InputState
from holobath.error_model import ErrorParams
from holobath.lambda_system import (
    LambdaParams,
    bright_dark_states,
    bright_survival_amplitude,
    ideal_gate,
)
from holobath.reference import expm_hermitian, raw_error_hamiltonian
from holobath.spin_bath import SpinBath
from holobath.sweep import GammaGrid

from conftest import assert_unitary

angles_theta = st.floats(0.0, math.pi, allow_nan=False)
angles_phi = st.floats(0.0, 2.0 * math.pi, exclude_max=True, allow_nan=False)
rabi = st.floats(1e-3, 10.0)
detunings = st.floats(-10.0, 10.0)


KET_E = np.array([0.0, 0.0, 1.0], dtype=complex)


def dense_propagator(h, t):
    """Independent reference: scipy's Pade scaling-and-squaring exponential."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    return scipy_linalg.expm(-1j * np.asarray(h) * t)


def sub_hamiltonian(p, effective_detuning):
    """Drive Hamiltonian D|e><e| + omega(|e><b| + |b><e|) of one bath level.

    Built as the dense oracles build it: the error-free drive with its
    detuning replaced by D = delta + gamma*m.
    """
    h = raw_error_hamiltonian(p, ErrorParams())
    h[2, 2] = effective_detuning
    return h


@pytest.mark.parametrize("make, names", [
    (lambda x: LambdaParams(x, x, x, x), ("omega", "delta", "theta", "phi")),
    (lambda x: ErrorParams(x, x, x, x, x), ("epsilon0", "epsilon1", "zeta0", "zeta1", "kappa")),
    (lambda x: SpinBath(4, x, x), ("alpha", "beta")),
    (lambda x: GammaGrid(x, x, x), ("start", "stop", "step")),
    (lambda x: InputState(x, x), ("vartheta", "xi")),
], ids=["LambdaParams", "ErrorParams", "SpinBath", "GammaGrid", "InputState"])
def test_numpy_scalar_fields_are_stored_as_floats(make, names):
    made = make(np.float64(0.5))
    for name in names:
        assert type(getattr(made, name)) is float and getattr(made, name) == 0.5


class TestLambdaParams:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError, match="omega"):
            LambdaParams(omega=0.0, delta=1.0)
        with pytest.raises(ValueError, match="omega"):
            LambdaParams(omega=-1.0, delta=1.0)

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(ValueError, match="theta"):
            LambdaParams(omega=1.0, delta=0.0, theta=-0.1)
        with pytest.raises(ValueError, match="theta"):
            LambdaParams(omega=1.0, delta=0.0, theta=math.pi + 0.1)

    @pytest.mark.parametrize("field", ["omega", "delta", "theta", "phi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        values = dict(omega=1.0, delta=2.0, theta=1.0, phi=0.5)
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            LambdaParams(**values)

    @pytest.mark.parametrize("omega, delta", [(1e308, 2.0), (6e307, -1.7e308)])
    def test_rejects_an_overflowing_gap(self, omega, delta):
        # Finite fields whose gap hypot(delta, 2*omega) is inf would give tau0 = 0
        # and NaN survival amplitudes; no NumPy warning may come first.
        with pytest.raises(ValueError, match=re.escape(f"omega={omega}, delta={delta}")):
            LambdaParams(omega=omega, delta=delta)

    def test_largest_finite_gap_is_accepted(self):
        p = LambdaParams(omega=1.0, delta=1e308)
        assert p.delta0 == 1e308 and p.tau0 > 0.0

    def test_phi_normalized_to_principal_range(self):
        p = LambdaParams(omega=1.0, delta=0.0, phi=-0.5)
        assert 0.0 <= p.phi < 2.0 * math.pi
        assert p.phi == pytest.approx(2.0 * math.pi - 0.5)

    def test_derived_quantities(self, params):
        assert params.delta0 == pytest.approx(math.sqrt(8.0), rel=1e-15)
        assert params.tau0 == pytest.approx(2.0 * math.pi / math.sqrt(8.0), rel=1e-15)
        assert params.chi == pytest.approx(params.delta * params.tau0 / 2.0, rel=1e-15)

    def test_rabi_pair_matches_angles(self):
        p = LambdaParams(omega=2.0, delta=1.0, theta=1.1, phi=0.7)
        omega0, omega1 = p.rabi_pair
        assert omega0 == pytest.approx(2.0 * cmath.exp(0.7j) * math.sin(0.55))
        assert omega1 == pytest.approx(-2.0 * math.cos(0.55))


class TestBrightDarkStates:
    def test_theta_zero(self):
        d, b = bright_dark_states(LambdaParams(omega=1.0, delta=0.0, theta=0.0, phi=0.0))
        np.testing.assert_allclose(d, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(b, [0, -1, 0], atol=1e-15)

    def test_theta_pi(self):
        d, b = bright_dark_states(LambdaParams(omega=1.0, delta=0.0, theta=math.pi, phi=0.0))
        np.testing.assert_allclose(d, [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(b, [1, 0, 0], atol=1e-15)

    def test_equal_mixing_with_quarter_phase(self):
        p = LambdaParams(omega=1.0, delta=0.0, theta=math.pi / 2, phi=math.pi / 2)
        d, b = bright_dark_states(p)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(d, [s, 1j * s, 0], atol=1e-15)
        np.testing.assert_allclose(b, [-1j * s, -s, 0], atol=1e-15)

    @given(theta=angles_theta, phi=angles_phi)
    @settings(max_examples=100, deadline=None)
    def test_orthonormal(self, theta, phi):
        d, b = bright_dark_states(LambdaParams(omega=1.0, delta=0.0, theta=theta, phi=phi))
        assert abs(np.vdot(d, d) - 1.0) < 1e-12
        assert abs(np.vdot(b, b) - 1.0) < 1e-12
        assert abs(np.vdot(d, b)) < 1e-15


class TestSubHamiltonian:
    """The drive Hamiltonian the dense oracles exponentiate agrees with the bright/dark pair."""

    def test_theta_pi_couples_only_level_zero(self):
        p = LambdaParams(omega=1.3, delta=0.0, theta=math.pi, phi=0.0)
        h = sub_hamiltonian(p, 0.0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[2, 0] = expected[0, 2] = 1.3
        np.testing.assert_allclose(h, expected, atol=1e-15)

    @given(theta=angles_theta, phi=angles_phi, omega=rabi, shift=detunings)
    @settings(max_examples=100, deadline=None)
    def test_annihilates_dark_state(self, theta, phi, omega, shift):
        p = LambdaParams(omega=omega, delta=0.0, theta=theta, phi=phi)
        d, _ = bright_dark_states(p)
        residual = sub_hamiltonian(p, shift) @ d
        assert np.max(np.abs(residual)) < 1e-14 * (omega + abs(shift))

    def test_block_eigenvalues(self):
        # 2x2 {b, e} block eigenvalues are (D +/- sqrt(D^2 + 4 w^2))/2, checked
        # by an independent eigensolver: omega=1, D=2 gives {0, 1 +/- sqrt(2)}.
        p = LambdaParams(omega=1.0, delta=2.0, theta=math.pi / 2, phi=0.0)
        eigvals = np.sort(np.linalg.eigvalsh(sub_hamiltonian(p, 2.0)))
        expected = np.sort([0.0, 1.0 - math.sqrt(2.0), 1.0 + math.sqrt(2.0)])
        np.testing.assert_allclose(eigvals, expected, atol=1e-12)


class TestPropagator:
    """The dense propagator exp(-i H_D t) of one bath level, as the oracles build it."""

    def test_identity_at_time_zero(self):
        p = LambdaParams(omega=1.0, delta=2.0, theta=0.8, phi=0.3)
        u = expm_hermitian(sub_hamiltonian(p, 5.0), 0.0)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-15)

    def test_error_free_cycle_is_the_ideal_gate(self, params):
        u = expm_hermitian(sub_hamiltonian(params, params.delta), params.tau0)
        np.testing.assert_allclose(u, ideal_gate(params), atol=1e-12)

    def test_shifted_detuning_against_dense_exponential(self, params):
        # omega=1, delta=2 shifted to D=3 over one ideal cycle; the survival
        # amplitude must come out as e^{-i 3 tau0/2} (cos(pi sqrt(13/8))
        # + i (3/sqrt(13)) sin(pi sqrt(13/8))), in closed form and from both
        # dense exponentials.
        t = params.tau0
        u = expm_hermitian(sub_hamiltonian(params, 3.0), t)
        u_ref = dense_propagator(sub_hamiltonian(params, 3.0), t)
        np.testing.assert_allclose(u, u_ref, atol=1e-12)
        _, b = bright_dark_states(params)
        angle = math.pi * math.sqrt(13.0 / 8.0)
        expected = cmath.exp(-1.5j * t) * (math.cos(angle) + 1j * (3.0 / math.sqrt(13.0)) * math.sin(angle))
        assert complex(b.conj() @ u @ b) == pytest.approx(expected, abs=1e-12)
        closed = bright_survival_amplitude(params.omega, 3.0, params.delta0)
        assert closed == pytest.approx(expected, abs=1e-12)

    @given(omega=rabi, delta=detunings, shift=detunings, theta=angles_theta, phi=angles_phi,
           scale=st.floats(0.1, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_unitary(self, omega, delta, shift, theta, phi, scale):
        p = LambdaParams(omega=omega, delta=delta, theta=theta, phi=phi)
        u = expm_hermitian(sub_hamiltonian(p, shift), scale * p.tau0)
        assert_unitary(u)

    @given(omega=rabi, shift=detunings)
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_exponential(self, omega, shift):
        # The closed-form survival amplitude against scipy's Pade exponential,
        # an algorithm independent of both the closed form and the oracles.
        ideal = LambdaParams(omega=1.0, delta=2.0)
        p = LambdaParams(omega=omega, delta=ideal.delta, theta=1.0, phi=2.0)
        amp = bright_survival_amplitude(omega, shift, ideal.delta0)
        _, b = bright_dark_states(p)
        u_ref = dense_propagator(sub_hamiltonian(p, shift), ideal.tau0)
        assert abs(amp - b.conj() @ u_ref @ b) < 1e-12

    def test_leaves_dark_state_invariant(self):
        p = LambdaParams(omega=2.0, delta=-1.0, theta=2.0, phi=4.0)
        d, _ = bright_dark_states(p)
        u = expm_hermitian(sub_hamiltonian(p, 3.3), 1.7)
        np.testing.assert_allclose(u @ d, d, atol=1e-14)

    @given(omega=rabi, delta=detunings, theta=angles_theta, phi=angles_phi)
    @settings(max_examples=100, deadline=None)
    def test_cyclicity_error_free(self, omega, delta, theta, phi):
        # At the unshifted detuning the bright state returns after tau0:
        # no leakage amplitude to the excited level.
        p = LambdaParams(omega=omega, delta=delta, theta=theta, phi=phi)
        _, b = bright_dark_states(p)
        u = expm_hermitian(sub_hamiltonian(p, p.delta), p.tau0)
        assert abs(KET_E.conj() @ u @ b) < 1e-12


class TestSurvivalAmplitude:
    def test_error_free_reduces_to_gate_phase(self, params):
        amp = bright_survival_amplitude(params.omega, params.delta, params.delta0)
        assert amp == pytest.approx(-cmath.exp(-1j * params.chi), abs=1e-12)

    def test_large_detuning_freezes_bright_state(self, params):
        amp = bright_survival_amplitude(1.0, 1e6, params.delta0)
        assert abs(amp) > 1.0 - 1e-11

    @given(omega=rabi, shift=detunings)
    @settings(max_examples=200, deadline=None)
    def test_matches_propagator_element(self, omega, shift):
        ideal = LambdaParams(omega=1.0, delta=2.0)
        p = LambdaParams(omega=omega, delta=ideal.delta, theta=0.9, phi=5.1)
        amp = bright_survival_amplitude(omega, shift, ideal.delta0)
        _, b = bright_dark_states(p)
        u = expm_hermitian(sub_hamiltonian(p, shift), ideal.tau0)
        assert abs(amp - b.conj() @ u @ b) < 1e-12

    def test_vectorized_over_detunings(self, params):
        shifts = np.array([-3.0, 0.0, 2.0, 11.5])
        amps = bright_survival_amplitude(1.2, shifts, params.delta0)
        singles = [bright_survival_amplitude(1.2, s, params.delta0) for s in shifts]
        np.testing.assert_allclose(amps, singles, atol=1e-15)

    def test_magnitude_bounded_by_one(self, params):
        shifts = np.linspace(-20.0, 20.0, 101)
        amps = bright_survival_amplitude(0.7, shifts, params.delta0)
        assert np.all(np.abs(amps) <= 1.0 + 1e-12)

    def test_rejects_bad_arguments(self, params):
        with pytest.raises(ValueError):
            bright_survival_amplitude(-1.0, 2.0, params.delta0)
        with pytest.raises(ValueError):
            bright_survival_amplitude(1.0, 2.0, 0.0)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_array_call_equals_scalar_calls(self, seed, count):
        # One entry per drive in every argument, as the validation suite calls it.
        rng = np.random.default_rng(seed)
        omegas = rng.uniform(1e-3, 10.0, count)
        shifts = rng.uniform(-10.0, 10.0, count)
        gaps = 2.0 * math.pi / rng.uniform(0.1, 5.0, count)
        amps = bright_survival_amplitude(omegas, shifts, gaps)
        assert amps.shape == (count,)
        singles = [
            bright_survival_amplitude(omega, shift, gap)
            for omega, shift, gap in zip(omegas.tolist(), shifts.tolist(), gaps.tolist())
        ]
        assert amps.tolist() == singles

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
    def test_rejects_arrays_with_a_bad_entry(self, params, bad):
        good = np.array([0.5, 1.0, 2.0])
        with_bad = np.array([0.5, bad, 2.0])
        with pytest.raises(ValueError, match="omega_eff must be positive"):
            bright_survival_amplitude(with_bad, good, good)
        with pytest.raises(ValueError, match="delta0 must be positive"):
            bright_survival_amplitude(good, good, with_bad)


class TestIdealGate:
    def test_resonant_gate_is_reflection(self):
        p = LambdaParams(omega=1.0, delta=0.0, theta=1.2, phi=0.4)
        d, b = bright_dark_states(p)
        gate = ideal_gate(p)
        expected = np.outer(d, d.conj()) - np.outer(b, b.conj()) - np.outer(KET_E, KET_E.conj())
        np.testing.assert_allclose(gate, expected, atol=1e-15)

    def test_rotation_angle(self, params):
        # rotation angle pi - chi = pi (1 - 2/sqrt(8)) ~ 0.29 pi
        rotation = math.pi - params.chi
        assert abs(rotation - 0.29 * math.pi) < 0.005 * math.pi
        assert rotation == pytest.approx(math.pi * (1.0 - 2.0 / math.sqrt(8.0)), rel=1e-12)

    def test_axis_angle_form(self):
        # |d><d| - e^{-i chi}|b><b| equals
        # e^{i(pi-chi)/2} exp(-i (pi-chi)/2 n.sigma) on the qubit block.
        p = LambdaParams(omega=1.0, delta=2.0, theta=1.1, phi=0.8)
        gate_block = ideal_gate(p)[:2, :2]
        axis = np.array(
            [math.sin(p.theta) * math.cos(p.phi),
             math.sin(p.theta) * math.sin(p.phi),
             math.cos(p.theta)]
        )
        paulis = np.array(
            [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
        )
        n_dot_sigma = np.einsum("k,kij->ij", axis, paulis)
        angle = math.pi - p.chi
        scipy_linalg = pytest.importorskip("scipy.linalg")
        expected = cmath.exp(0.5j * angle) * scipy_linalg.expm(-0.5j * angle * n_dot_sigma)
        np.testing.assert_allclose(gate_block, expected, atol=1e-12)

    def test_sigma_x_gate(self):
        p = LambdaParams(omega=1.0, delta=0.0, theta=math.pi / 2, phi=0.0)
        np.testing.assert_allclose(ideal_gate(p)[:2, :2], [[0, 1], [1, 0]], atol=1e-15)

    @given(omega=rabi, delta=detunings, theta=angles_theta, phi=angles_phi)
    @settings(max_examples=100, deadline=None)
    def test_unitary_completion(self, omega, delta, theta, phi):
        p = LambdaParams(omega=omega, delta=delta, theta=theta, phi=phi)
        gate = ideal_gate(p)
        assert_unitary(gate)
        np.testing.assert_allclose(
            gate @ KET_E, -cmath.exp(-1j * p.chi) * KET_E, atol=1e-14
        )
