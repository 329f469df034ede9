"""Systematic pulse errors and the effective drive parameters they induce.

Relative amplitude errors epsilon_j and phase errors zeta_j act independently
on the two drive amplitudes, Omega_j' = (1 + epsilon_j) e^{i zeta_j} Omega_j,
and the detuning shifts as delta' = (1 + kappa) delta.  The errored pulse pair
is again a valid Lambda drive, just with rotated effective parameters
(omega', theta', phi', delta'): that translation is what this module does.

Only the difference zeta_0 - zeta_1 is observable; the common drive phase
e^{i zeta_1} amounts to a phase redefinition of |e> and drops out of every
computational-subspace quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lambda_system import LambdaParams, bright_dark_states, require_finite, wrap_phase

__all__ = ["ErrorParams", "EffectiveParams", "apply_errors"]


@dataclass(frozen=True)
class ErrorParams:
    """Systematic deviations of the pulse pair (all dimensionless or rad)."""

    epsilon0: float = 0.0
    epsilon1: float = 0.0
    zeta0: float = 0.0
    zeta1: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        require_finite(self, ("epsilon0", "epsilon1", "zeta0", "zeta1", "kappa"))
        for name in ("epsilon0", "epsilon1"):
            if not 1.0 + getattr(self, name) > 0.0:
                raise ValueError(
                    f"1 + {name} must stay positive (amplitude inversion is nonphysical), "
                    f"got {name}={getattr(self, name)}"
                )

    @classmethod
    def symmetric(cls, epsilon: float, kappa: float | None = None) -> "ErrorParams":
        """Equal amplitude errors on both pulses, no phase errors.

        ``kappa`` defaults to ``epsilon``, the joint scan used throughout the
        figure reproductions.
        """
        return cls(
            epsilon0=epsilon,
            epsilon1=epsilon,
            kappa=epsilon if kappa is None else kappa,
        )

    @property
    def is_symmetric(self) -> bool:
        """True when the errors leave the bright/dark pair unchanged."""
        return self.epsilon0 == self.epsilon1 and self.zeta0 == self.zeta1


@dataclass(frozen=True)
class EffectiveParams:
    """Drive parameters of the errored pulse pair."""

    omega_p: float
    theta_p: float
    phi_p: float
    delta_p: float

    def __post_init__(self):
        if not self.omega_p > 0.0:
            raise ValueError(f"effective omega must be positive, got {self.omega_p}")

    def as_params(self) -> LambdaParams:
        """Repackage as LambdaParams (e.g. for propagators in the errored frame)."""
        return LambdaParams(
            omega=self.omega_p, delta=self.delta_p, theta=self.theta_p, phi=self.phi_p
        )

    def bright_dark(self) -> tuple[np.ndarray, np.ndarray]:
        """Primed (dark, bright) states of the errored drive."""
        return bright_dark_states(self.as_params())


def apply_errors(p: LambdaParams, e: ErrorParams) -> EffectiveParams:
    """Translate raw pulse errors into effective drive parameters.

    omega' = sqrt[(1+eps0)^2 sin^2(theta/2) + (1+eps1)^2 cos^2(theta/2)] * omega
    e^{i phi'} tan(theta'/2) = ((1+eps0)/(1+eps1)) e^{i(zeta0-zeta1)} e^{i phi} tan(theta/2)
    delta' = (1+kappa) delta

    Symmetric errors (eps0 == eps1, zeta0 == zeta1) only rescale the amplitude
    and are short-circuited exactly.  At theta in {0, pi} a single pulse is
    active, so errors rescale the amplitude but cannot tilt the axis; the
    continuity limit theta' = theta, phi' = phi applies.
    """
    delta_p = (1.0 + e.kappa) * p.delta
    if e.is_symmetric:
        return EffectiveParams(
            omega_p=(1.0 + e.epsilon0) * p.omega,
            theta_p=p.theta,
            phi_p=p.phi,
            delta_p=delta_p,
        )
    half = 0.5 * p.theta
    a0 = (1.0 + e.epsilon0) * math.sin(half)
    a1 = (1.0 + e.epsilon1) * math.cos(half)
    omega_p = p.omega * math.hypot(a0, a1)
    if p.theta in (0.0, math.pi):
        theta_p, phi_p = p.theta, p.phi
    else:
        # a0, a1 >= 0, so atan2 lands in [0, pi/2] and theta' stays in [0, pi];
        # the full-quadrant form avoids the tan singularity at theta = pi.
        theta_p = 2.0 * math.atan2(a0, a1)
        phi_p = wrap_phase(p.phi + e.zeta0 - e.zeta1)
    return EffectiveParams(omega_p=omega_p, theta_p=theta_p, phi_p=phi_p, delta_p=delta_p)
