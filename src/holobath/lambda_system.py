"""Ideal three-level Lambda-system physics: states, survival amplitude and holonomic gate.

Everything works in the fixed basis {|0>, |1>, |e>} (indices 0, 1, 2), with
hbar = 1, frequencies in ns^-1 and times in ns.  A square pulse pair with Rabi
amplitude ``omega``, common detuning ``delta``, amplitude mixing angle
``theta`` and relative phase ``phi`` couples the excited level |e> to exactly
one superposition of the qubit levels (the bright state); the orthogonal
combination (the dark state) never couples to the drive.

The one propagator quantity the fidelity kernel needs, the bright-state
survival amplitude, is evaluated in closed form on the 2x2 {bright, excited}
block; dense matrix exponentials live in :mod:`holobath.reference` and are
used only to cross-validate this module.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LambdaParams",
    "bright_dark_states",
    "bright_survival_amplitude",
    "ideal_gate",
]

TWO_PI = 2.0 * math.pi


def require_finite(obj, names) -> None:
    """Store ``obj``'s fields as Python floats; raise ValueError naming the first NaN or inf.

    A NumPy scalar would otherwise carry NumPy's arithmetic, which warns on
    overflow, into code that checks for overflow itself.
    """
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(obj, name, float(value))


def require_count(name: str, value, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``: any integral (so ``np.int64``), not ``bool``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return operator.index(value)


def wrap_phase(x: float) -> float:
    """Reduce an angle to [0, 2*pi); x % (2*pi) alone can round up to 2*pi."""
    out = x % TWO_PI
    return 0.0 if out >= TWO_PI else out


@dataclass(frozen=True)
class LambdaParams:
    """Control parameters of the simultaneous square pulse pair.

    The two drive amplitudes are Omega_0 = omega * e^{i phi} * sin(theta/2)
    and Omega_1 = -omega * cos(theta/2); ``delta`` is the common detuning of
    both transitions.
    """

    omega: float
    delta: float
    theta: float = math.pi / 2
    phi: float = 0.0

    def __post_init__(self):
        require_finite(self, ("omega", "delta", "theta", "phi"))
        if not self.omega > 0.0:
            raise ValueError(f"Rabi amplitude omega must be positive, got {self.omega}")
        if not math.isfinite(self.delta0):
            raise ValueError(f"gap hypot(delta, 2*omega) overflows for omega={self.omega}, "
                             f"delta={self.delta}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"mixing angle theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", wrap_phase(self.phi))

    @property
    def delta0(self) -> float:
        """Gap sqrt(delta^2 + 4 omega^2) of the {bright, excited} block."""
        return math.hypot(self.delta, 2.0 * self.omega)

    @property
    def tau0(self) -> float:
        """Cyclic pulse duration 2*pi/delta0 (ns)."""
        return TWO_PI / self.delta0

    @property
    def chi(self) -> float:
        """Dynamical phase delta*tau0/2 acquired by the bright state over one cycle."""
        return 0.5 * self.delta * self.tau0

    @property
    def rabi_pair(self) -> tuple[complex, complex]:
        """Complex drive amplitudes (Omega_0, Omega_1) on the |0>-|e> and |1>-|e> legs."""
        half = 0.5 * self.theta
        return (
            self.omega * cmath.exp(1j * self.phi) * math.sin(half),
            -self.omega * math.cos(half),
        )


def bright_dark_states(p: LambdaParams) -> tuple[np.ndarray, np.ndarray]:
    """Return (dark, bright) unit kets of the pulse pair.

    dark   = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>
    bright = e^{-i phi} sin(theta/2)|0> - cos(theta/2)|1>
    """
    half = 0.5 * p.theta
    s, c = math.sin(half), math.cos(half)
    # One shared phase factor so that <bright|dark> cancels exactly in floats.
    phase = cmath.exp(1j * p.phi)
    dark = np.array([c, phase * s, 0.0], dtype=complex)
    bright = np.array([phase.conjugate() * s, -c, 0.0], dtype=complex)
    return dark, bright


def bright_survival_amplitude(omega_eff, effective_detuning, delta0):
    """Bright-state survival amplitude <b|exp(-i H_D tau0)|b> in closed form.

    The pulse runs for the cyclic time tau0 = 2*pi/delta0 of the *ideal*
    block, whose gap is delta0.  Any argument may be an array (one entry per
    bath level or per drive); the result matches the scalar calls elementwise.
    A NaN or non-positive entry of ``omega_eff`` or ``delta0`` raises ValueError.
    """
    # Scalars keep the bare comparison: this runs once per curve evaluation.
    if not (np.all(omega_eff > 0.0) if isinstance(omega_eff, np.ndarray) else omega_eff > 0.0):
        raise ValueError(f"omega_eff must be positive, got {omega_eff}")
    if not (np.all(delta0 > 0.0) if isinstance(delta0, np.ndarray) else delta0 > 0.0):
        raise ValueError(f"delta0 must be positive, got {delta0}")
    D = np.asarray(effective_detuning, dtype=float)
    tau0 = TWO_PI / delta0
    big = np.hypot(D, 2.0 * omega_eff)
    angle = np.pi * big / delta0
    # cos(eta) = D/big, sigma = D/2.  np.multiply, not *: on scalars * is
    # NumPy's scalar complex product, which can round unlike the array loop.
    out = np.multiply(np.exp(-0.5j * D * tau0), np.cos(angle) + 1j * (D / big) * np.sin(angle))
    if out.ndim == 0:
        return complex(out[()])
    return out


def ideal_gate(p: LambdaParams) -> np.ndarray:
    """Holonomic gate |d><d| - e^{-i chi}|b><b| after one cyclic pulse.

    Only the action on Span{|0>, |1>} is physically meaningful; the |e> level
    carries the phase -e^{-i chi} so the operator is unitary on all three
    levels and coincides with the error-free cyclic propagator.
    """
    dark, bright = bright_dark_states(p)
    bright_phase = -cmath.exp(-1j * p.chi)
    excited = np.zeros((3, 3), dtype=complex)
    excited[2, 2] = 1.0
    return np.outer(dark, dark.conj()) + bright_phase * (np.outer(bright, bright.conj()) + excited)
