import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobath.error_model import EffectiveParams, ErrorParams, apply_errors
from holobath.lambda_system import LambdaParams, bright_dark_states

epsilons = st.floats(-0.9, 2.0)
phases = st.floats(-6.0, 6.0)
kappas = st.floats(-2.0, 2.0)
thetas = st.floats(0.0, math.pi)
phis = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


def reconstructed_drives(eff: EffectiveParams) -> tuple[complex, complex]:
    """Drive amplitudes rebuilt from the effective parameters."""
    half = 0.5 * eff.theta_p
    return (
        eff.omega_p * cmath.exp(1j * eff.phi_p) * math.sin(half),
        -eff.omega_p * math.cos(half),
    )


class TestErrorParams:
    def test_rejects_amplitude_inversion(self):
        with pytest.raises(ValueError, match="epsilon0"):
            ErrorParams(epsilon0=-1.0)
        with pytest.raises(ValueError, match="epsilon1"):
            ErrorParams(epsilon1=-1.5)

    @pytest.mark.parametrize("field", ["epsilon0", "epsilon1", "zeta0", "zeta1", "kappa"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ErrorParams(**{field: bad})

    def test_symmetric_constructor_defaults_kappa(self):
        e = ErrorParams.symmetric(0.15)
        assert e.epsilon0 == e.epsilon1 == e.kappa == 0.15
        assert e.zeta0 == e.zeta1 == 0.0
        assert e.is_symmetric

    def test_symmetric_constructor_with_kappa(self):
        e = ErrorParams.symmetric(0.1, kappa=0.3)
        assert e.kappa == 0.3 and e.epsilon0 == 0.1

    def test_flags(self):
        assert ErrorParams().is_zero
        assert not ErrorParams(kappa=0.1).is_zero
        assert not ErrorParams(epsilon0=0.1).is_symmetric
        assert ErrorParams(zeta0=1.0, zeta1=1.0).is_symmetric


class TestApplyErrors:
    def test_zero_errors_is_the_identity(self):
        p = LambdaParams(omega=1.7, delta=-2.0, theta=1.1, phi=0.9)
        eff = apply_errors(p, ErrorParams())
        assert eff.omega_p == p.omega
        assert eff.theta_p == p.theta
        assert eff.phi_p == p.phi
        assert eff.delta_p == p.delta

    def test_symmetric_errors_rescale_amplitude_only(self):
        # eps0 = eps1 = eps and equal phase errors give omega' = (1+eps) omega,
        # theta' = theta, phi' = phi.
        p = LambdaParams(omega=2.0, delta=1.0, theta=0.8, phi=5.5)
        eff = apply_errors(p, ErrorParams(epsilon0=0.1, epsilon1=0.1, zeta0=0.4, zeta1=0.4, kappa=0.25))
        assert eff.omega_p == pytest.approx(2.2, rel=1e-15)
        assert eff.theta_p == p.theta
        assert eff.phi_p == p.phi
        assert eff.delta_p == pytest.approx(1.25, rel=1e-15)

    def test_single_amplitude_error_tilts_the_axis(self):
        # theta = pi/2, eps0 = 0.2: tan(theta'/2) = 1.2, omega' = sqrt(1.22) omega.
        p = LambdaParams(omega=1.0, delta=2.0, theta=math.pi / 2, phi=0.0)
        eff = apply_errors(p, ErrorParams(epsilon0=0.2))
        assert eff.theta_p == pytest.approx(2.0 * math.atan(1.2), rel=1e-14)
        assert eff.omega_p == pytest.approx(math.sqrt(1.22), rel=1e-14)
        assert eff.phi_p == 0.0
        # cross-check through the reconstruction route
        drive0, drive1 = reconstructed_drives(eff)
        assert drive0 == pytest.approx(1.2 * math.sin(math.pi / 4), abs=1e-14)
        assert drive1 == pytest.approx(-math.cos(math.pi / 4), abs=1e-14)

    def test_detuning_error_scales_delta(self):
        p = LambdaParams(omega=1.0, delta=2.0)
        assert apply_errors(p, ErrorParams(kappa=0.1)).delta_p == pytest.approx(2.2, rel=1e-15)
        assert apply_errors(p, ErrorParams(kappa=-1.5)).delta_p == pytest.approx(-1.0, rel=1e-15)

    @given(theta=thetas, phi=phis, eps0=epsilons, eps1=epsilons,
           zeta0=phases, zeta1=phases, kappa=kappas)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_reproduces_raw_drives(self, theta, phi, eps0, eps1, zeta0, zeta1, kappa):
        # Reconstructing the drive pair from (omega', theta', phi') must give
        # back (1+eps_j) e^{i zeta_j} Omega_j up to the common (unobservable)
        # phase e^{i zeta1}.
        p = LambdaParams(omega=1.4, delta=-0.7, theta=theta, phi=phi)
        e = ErrorParams(eps0, eps1, zeta0, zeta1, kappa)
        eff = apply_errors(p, e)
        omega0, omega1 = p.rabi_pair
        expected0 = (1.0 + eps0) * cmath.exp(1j * zeta0) * omega0
        expected1 = (1.0 + eps1) * cmath.exp(1j * zeta1) * omega1
        # The parametrization keeps the |1> drive real, so the common phase is
        # e^{i zeta1}; with that drive off (theta = pi) it pins e^{i zeta0}.
        common = cmath.exp(1j * (zeta0 if theta == math.pi else zeta1))
        drive0, drive1 = reconstructed_drives(eff)
        assert abs(drive0 * common - expected0) < 1e-12 * (1.0 + abs(expected0))
        assert abs(drive1 * common - expected1) < 1e-12 * (1.0 + abs(expected1))

    @given(theta=thetas, phi=phis, eps0=epsilons, eps1=epsilons,
           zeta0=phases, zeta1=phases)
    @settings(max_examples=300, deadline=None)
    def test_effective_angles_stay_in_range(self, theta, phi, eps0, eps1, zeta0, zeta1):
        p = LambdaParams(omega=1.0, delta=2.0, theta=theta, phi=phi)
        eff = apply_errors(p, ErrorParams(eps0, eps1, zeta0, zeta1))
        assert 0.0 <= eff.theta_p <= math.pi
        assert 0.0 <= eff.phi_p < 2.0 * math.pi
        assert eff.omega_p > 0.0

    @given(eps=epsilons, zeta=phases, kappa=kappas, theta=thetas, phi=phis)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_errors_fix_bright_dark_pair(self, eps, zeta, kappa, theta, phi):
        p = LambdaParams(omega=1.0, delta=2.0, theta=theta, phi=phi)
        eff = apply_errors(p, ErrorParams(eps, eps, zeta, zeta, kappa))
        dark, bright = bright_dark_states(p)
        dark_p, bright_p = eff.bright_dark()
        np.testing.assert_allclose(dark_p, dark, atol=1e-12)
        np.testing.assert_allclose(bright_p, bright, atol=1e-12)

    def test_degenerate_theta_endpoints(self):
        # Only one pulse is active, so asymmetric errors rescale the amplitude
        # but cannot tilt the bright/dark axis.
        errors = ErrorParams(epsilon0=0.3, epsilon1=-0.2, zeta0=1.0, zeta1=-0.4)
        p0 = LambdaParams(omega=1.0, delta=2.0, theta=0.0, phi=0.3)
        eff0 = apply_errors(p0, errors)
        assert (eff0.theta_p, eff0.phi_p) == (0.0, p0.phi)
        assert eff0.omega_p == pytest.approx(0.8, rel=1e-14)  # (1+eps1) omega
        p1 = LambdaParams(omega=1.0, delta=2.0, theta=math.pi, phi=0.3)
        eff1 = apply_errors(p1, errors)
        assert (eff1.theta_p, eff1.phi_p) == (math.pi, p1.phi)
        assert eff1.omega_p == pytest.approx(1.3, rel=1e-14)  # (1+eps0) omega

    def test_observable_phase_is_the_difference(self):
        p = LambdaParams(omega=1.0, delta=2.0, theta=1.0, phi=0.5)
        eff_a = apply_errors(p, ErrorParams(0.1, 0.2, zeta0=0.8, zeta1=0.3))
        eff_b = apply_errors(p, ErrorParams(0.1, 0.2, zeta0=1.6, zeta1=1.1))
        assert eff_a == eff_b  # same zeta0 - zeta1

    def test_as_params_round_trip(self):
        eff = EffectiveParams(omega_p=1.2, theta_p=0.7, phi_p=1.1, delta_p=-2.0)
        p = eff.as_params()
        assert (p.omega, p.delta, p.theta, p.phi) == (1.2, -2.0, 0.7, 1.1)

    def test_effective_params_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            EffectiveParams(omega_p=0.0, theta_p=0.0, phi_p=0.0, delta_p=0.0)
