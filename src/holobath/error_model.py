"""Systematic pulse errors and the errored Lambda drive they leave behind.

Relative amplitude errors epsilon_j and phase errors zeta_j act independently
on the two drive amplitudes, Omega_j' = (1 + epsilon_j) e^{i zeta_j} Omega_j,
and the detuning shifts as delta' = (1 + kappa) delta.  The errored pulse pair
is again a valid Lambda drive, just with rotated parameters
(omega', theta', phi', delta'): :func:`apply_errors` returns it as a
:class:`LambdaParams`.

Only the difference zeta_0 - zeta_1 is observable; the common drive phase
e^{i zeta_1} amounts to a phase redefinition of |e> and drops out of every
computational-subspace quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lambda_system import LambdaParams, require_finite

__all__ = ["ErrorParams", "apply_errors"]


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
    def symmetric(cls, epsilon: float) -> "ErrorParams":
        """epsilon0 = epsilon1 = kappa = epsilon and no phase errors, as in the figures."""
        return cls(epsilon0=epsilon, epsilon1=epsilon, kappa=epsilon)

    @property
    def is_symmetric(self) -> bool:
        """True when the errors leave the bright/dark pair unchanged."""
        return self.epsilon0 == self.epsilon1 and self.zeta0 == self.zeta1


def apply_errors(p: LambdaParams, e: ErrorParams) -> LambdaParams:
    """The errored pulse pair as a Lambda drive (omega', delta', theta', phi').

    omega' = sqrt[(1+eps0)^2 sin^2(theta/2) + (1+eps1)^2 cos^2(theta/2)] * omega
    e^{i phi'} tan(theta'/2) = ((1+eps0)/(1+eps1)) e^{i(zeta0-zeta1)} e^{i phi} tan(theta/2)
    delta' = (1+kappa) delta

    Symmetric errors (eps0 == eps1, zeta0 == zeta1) only rescale the amplitude
    and are short-circuited exactly.  At theta in {0, pi} a single pulse is
    active, so errors rescale the amplitude but cannot tilt the axis; the
    continuity limit theta' = theta, phi' = phi applies.  An errored drive
    whose gap hypot(delta', 2*omega') overflows is rejected here, naming the
    drive and the errors it came from.  A drive that fits here can still
    overflow the kernel's phases once the bath shifts delta'; that is
    ``channel.build_channel``'s domain check.
    """
    delta = (1.0 + e.kappa) * p.delta
    theta, phi = p.theta, p.phi
    if e.is_symmetric:
        omega = (1.0 + e.epsilon0) * p.omega
    else:
        half = 0.5 * p.theta
        a0 = (1.0 + e.epsilon0) * math.sin(half)
        a1 = (1.0 + e.epsilon1) * math.cos(half)
        omega = p.omega * math.hypot(a0, a1)
        if p.theta not in (0.0, math.pi):
            # a0, a1 >= 0, so atan2 lands in [0, pi/2] and theta' stays in [0, pi];
            # the full-quadrant form avoids the tan singularity at theta = pi.
            theta = 2.0 * math.atan2(a0, a1)
            phi = p.phi + e.zeta0 - e.zeta1  # LambdaParams wraps it into [0, 2*pi)
    if not math.isfinite(math.hypot(delta, 2.0 * omega)):
        raise ValueError(f"errored gap hypot(delta', 2*omega') overflows for omega={p.omega}, "
                         f"delta={p.delta} with {e}")
    return LambdaParams(omega=omega, delta=delta, theta=theta, phi=phi)
