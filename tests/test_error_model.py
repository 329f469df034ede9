import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobath.error_model import ErrorParams, apply_errors
from holobath.lambda_system import LambdaParams, bright_dark_states

epsilons = st.floats(-0.9, 2.0)
phases = st.floats(-6.0, 6.0)
kappas = st.floats(-2.0, 2.0)
thetas = st.floats(0.0, math.pi)
phis = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


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

    def test_flags(self):
        assert not ErrorParams(epsilon0=0.1).is_symmetric
        assert ErrorParams(zeta0=1.0, zeta1=1.0).is_symmetric


class TestApplyErrors:
    def test_zero_errors_is_the_identity(self):
        p = LambdaParams(omega=1.7, delta=-2.0, theta=1.1, phi=0.9)
        assert apply_errors(p, ErrorParams()) == p

    def test_symmetric_errors_rescale_amplitude_only(self):
        # eps0 = eps1 = eps and equal phase errors give omega' = (1+eps) omega,
        # theta' = theta, phi' = phi.
        p = LambdaParams(omega=2.0, delta=1.0, theta=0.8, phi=5.5)
        eff = apply_errors(p, ErrorParams(epsilon0=0.1, epsilon1=0.1, zeta0=0.4, zeta1=0.4, kappa=0.25))
        assert eff.omega == pytest.approx(2.2, rel=1e-15)
        assert eff.theta == p.theta
        assert eff.phi == p.phi
        assert eff.delta == pytest.approx(1.25, rel=1e-15)

    def test_single_amplitude_error_tilts_the_axis(self):
        # theta = pi/2, eps0 = 0.2: tan(theta'/2) = 1.2, omega' = sqrt(1.22) omega.
        p = LambdaParams(omega=1.0, delta=2.0, theta=math.pi / 2, phi=0.0)
        eff = apply_errors(p, ErrorParams(epsilon0=0.2))
        assert eff.theta == pytest.approx(2.0 * math.atan(1.2), rel=1e-14)
        assert eff.omega == pytest.approx(math.sqrt(1.22), rel=1e-14)
        assert eff.phi == 0.0
        # cross-check through the drive pair of the errored parameters
        drive0, drive1 = eff.rabi_pair
        assert drive0 == pytest.approx(1.2 * math.sin(math.pi / 4), abs=1e-14)
        assert drive1 == pytest.approx(-math.cos(math.pi / 4), abs=1e-14)

    def test_detuning_error_scales_delta(self):
        p = LambdaParams(omega=1.0, delta=2.0)
        assert apply_errors(p, ErrorParams(kappa=0.1)).delta == pytest.approx(2.2, rel=1e-15)
        assert apply_errors(p, ErrorParams(kappa=-1.5)).delta == pytest.approx(-1.0, rel=1e-15)

    @pytest.mark.parametrize("drive, errors, named", [
        # omega' = 1.2 * 8.9e307 is finite, but the gap hypot(delta', 2*omega') is not.
        (dict(omega=8.9e307, delta=2.4), ErrorParams.symmetric(0.2), "omega=8.9e+307"),
        (dict(omega=8.9e307, delta=2.4, theta=1.0), ErrorParams(epsilon0=0.2), "omega=8.9e+307"),
        # delta' = 1.1 * 1.7e308 overflows to inf.
        (dict(omega=1.0, delta=1.7e308), ErrorParams(kappa=0.1), "delta=1.7e+308"),
    ])
    def test_overflowing_errored_drive_names_the_inputs(self, drive, errors, named):
        with pytest.raises(ValueError, match="errored gap") as info:
            apply_errors(LambdaParams(**drive), errors)
        message = str(info.value)
        assert named in message and repr(errors) in message
        assert "1.068e+308" not in message and "inf" not in message

    @pytest.mark.filterwarnings("error")
    def test_numpy_scalar_inputs_overflow_without_a_warning(self):
        # NumPy scalar arithmetic warns on overflow; the dataclasses store floats.
        with pytest.raises(ValueError, match="errored gap"):
            apply_errors(LambdaParams(1.0, np.float64(1e300)), ErrorParams(kappa=np.float64(1e10)))

    @given(theta=thetas, phi=phis, eps0=epsilons, eps1=epsilons,
           zeta0=phases, zeta1=phases, kappa=kappas)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_reproduces_raw_drives(self, theta, phi, eps0, eps1, zeta0, zeta1, kappa):
        # The drive pair of the errored parameters (omega', theta', phi') must give
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
        drive0, drive1 = eff.rabi_pair
        assert abs(drive0 * common - expected0) < 1e-12 * (1.0 + abs(expected0))
        assert abs(drive1 * common - expected1) < 1e-12 * (1.0 + abs(expected1))

    @given(theta=thetas, phi=phis, eps0=epsilons, eps1=epsilons,
           zeta0=phases, zeta1=phases)
    @settings(max_examples=300, deadline=None)
    def test_effective_angles_stay_in_range(self, theta, phi, eps0, eps1, zeta0, zeta1):
        p = LambdaParams(omega=1.0, delta=2.0, theta=theta, phi=phi)
        eff = apply_errors(p, ErrorParams(eps0, eps1, zeta0, zeta1))
        assert 0.0 <= eff.theta <= math.pi
        assert 0.0 <= eff.phi < 2.0 * math.pi
        assert eff.omega > 0.0

    @given(eps=epsilons, zeta=phases, kappa=kappas, theta=thetas, phi=phis)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_errors_fix_bright_dark_pair(self, eps, zeta, kappa, theta, phi):
        p = LambdaParams(omega=1.0, delta=2.0, theta=theta, phi=phi)
        eff = apply_errors(p, ErrorParams(eps, eps, zeta, zeta, kappa))
        dark, bright = bright_dark_states(p)
        dark_p, bright_p = bright_dark_states(eff)
        np.testing.assert_allclose(dark_p, dark, atol=1e-12)
        np.testing.assert_allclose(bright_p, bright, atol=1e-12)

    def test_degenerate_theta_endpoints(self):
        # Only one pulse is active, so asymmetric errors rescale the amplitude
        # but cannot tilt the bright/dark axis.
        errors = ErrorParams(epsilon0=0.3, epsilon1=-0.2, zeta0=1.0, zeta1=-0.4)
        p0 = LambdaParams(omega=1.0, delta=2.0, theta=0.0, phi=0.3)
        eff0 = apply_errors(p0, errors)
        assert (eff0.theta, eff0.phi) == (0.0, p0.phi)
        assert eff0.omega == pytest.approx(0.8, rel=1e-14)  # (1+eps1) omega
        p1 = LambdaParams(omega=1.0, delta=2.0, theta=math.pi, phi=0.3)
        eff1 = apply_errors(p1, errors)
        assert (eff1.theta, eff1.phi) == (math.pi, p1.phi)
        assert eff1.omega == pytest.approx(1.3, rel=1e-14)  # (1+eps0) omega

    def test_observable_phase_is_the_difference(self):
        p = LambdaParams(omega=1.0, delta=2.0, theta=1.0, phi=0.5)
        eff_a = apply_errors(p, ErrorParams(0.1, 0.2, zeta0=0.8, zeta1=0.3))
        eff_b = apply_errors(p, ErrorParams(0.1, 0.2, zeta0=1.6, zeta1=1.1))
        assert eff_a == eff_b  # same zeta0 - zeta1
