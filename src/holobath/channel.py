"""The bath-assisted holonomic channel: Kraus ensemble and gate fidelity.

Coupling the excited level to the bath operator S_z + N/2 with strength gamma
splits the evolution into one effective drive per bath occupation m, with the
detuning shifted to delta' + gamma*m.  Tracing out the thermal bath leaves a
unital channel with N+1 Kraus operators A_m = sqrt(p_m) * U_m, where p_m are
the thermal weights and U_m the block propagators run for the *ideal* cyclic
time tau0.

Gate quality is the amplitude fidelity (the square-root convention)

    F(psi) = [ sum_m |<psi| G^dag A_m |psi>|^2 ]^(1/2),

against the ideal gate G, averaged over a sin-weighted grid of input states
cos(vartheta/2)|d> + e^{i xi} sin(vartheta/2)|b>.  On the qubit every U_m acts
as |d'><d'| + u_m |b'><b'|, with (d', b') the errored dark/bright pair and u_m
the bright-state survival amplitude, so for any error setting

    F^2 = |A|^2 + 2 Re(A^* B <u>) + |B|^2 <|u|^2>,
    A = <G psi|d'><d'|psi>,  B = <G psi|b'><b'|psi>,

with <u> = sum_m p_m u_m and <|u|^2> = sum_m p_m |u_m|^2.  One kernel evaluates
this for a scalar gamma or a whole gamma array; the dense 3x3 Kraus matrices
live in :mod:`holobath.reference` and serve only to validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .error_model import ErrorParams, apply_errors
from .lambda_system import (
    LambdaParams,
    bright_dark_states,
    bright_survival_amplitude,
    ideal_gate,
    require_count,
    wrap_phase,
)
from .spin_bath import SpinBath, thermal_weights

__all__ = [
    "InputState",
    "HolonomicChannel",
    "build_channel",
    "state_fidelity",
    "average_fidelity",
    "fidelity_curve",
    "vartheta_grid",
    "MAX_KERNEL_ELEMENTS",
    "N_INPUT_STATES",
]

N_INPUT_STATES = 30  # vartheta points of the F_av average unless a caller asks for others
# The largest kernel arrays are (len(gamma), N+1) in build_channel, about 72
# bytes per element at its peak, and (len(gamma), n_states) in the fidelity
# kernel, about 25.  3e6 elements (near 220 MB) admit a MAX_GRID_POINTS grid
# with the largest figure bath, N = 28, and N_INPUT_STATES input states.
MAX_KERNEL_ELEMENTS = 3_000_000


def _require_kernel_size(n_gammas: int, width: int, axis: str) -> None:
    """Reject a (n_gammas, width) kernel array before anything is allocated."""
    if n_gammas * width > MAX_KERNEL_ELEMENTS:
        raise ValueError(
            f"{n_gammas} gamma values x {width} {axis} is {n_gammas * width} kernel elements, "
            f"more than MAX_KERNEL_ELEMENTS = {MAX_KERNEL_ELEMENTS}"
        )


@dataclass(frozen=True)
class InputState:
    """Computational input cos(vartheta/2)|d> + e^{i xi} sin(vartheta/2)|b>."""

    vartheta: float
    xi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.vartheta <= math.pi:
            raise ValueError(f"vartheta must lie in [0, pi], got {self.vartheta}")
        if not math.isfinite(self.xi):
            raise ValueError(f"xi must be finite, got {self.xi}")
        object.__setattr__(self, "xi", wrap_phase(self.xi))


@dataclass(frozen=True)
class HolonomicChannel:
    """Thermal weights and survival amplitudes of {sqrt(p_m) U_m}.

    ``params`` is the ideal drive, which fixes the gate and the pulse time;
    ``effective`` is the errored drive that the U_m run.  ``gamma`` is a
    scalar or a 1-D array; ``survival`` then has shape (N+1,) or
    (len(gamma), N+1), one amplitude u_m per bath occupation m.  Both arrays
    are read-only, so a channel may be shared.
    """

    params: LambdaParams
    effective: LambdaParams
    bath: SpinBath
    gamma: float | np.ndarray
    weights: np.ndarray = field(repr=False)
    survival: np.ndarray = field(repr=False)


def build_channel(
    p: LambdaParams, e: ErrorParams, b: SpinBath, gamma: float | np.ndarray
) -> HolonomicChannel:
    """Assemble the channel for coupling strength gamma (ns^-1).

    ``gamma`` may be a scalar or a 1-D array; an array yields one channel over
    the whole grid, sharing the thermal weights.  The pulse always runs for
    the ideal cyclic time tau0 = 2*pi/delta0 of the unprimed parameters;
    errors enter only through the effective drive.
    """
    gammas = np.asarray(gamma, dtype=float)
    if gammas.ndim > 1:
        raise ValueError(f"gamma must be a scalar or a 1-D array, got shape {gammas.shape}")
    if not np.all(np.isfinite(gammas)):
        raise ValueError(f"gamma must be finite, got {gamma}")
    _require_kernel_size(gammas.size, b.n_spins + 1, "bath levels")
    eff = apply_errors(p, e)
    shifts = eff.delta + gammas[..., None] * b.occupations()
    weights = thermal_weights(b)
    survival = bright_survival_amplitude(eff.omega, shifts, p.tau0, p.delta0)
    weights.flags.writeable = survival.flags.writeable = False
    return HolonomicChannel(
        params=p,
        effective=eff,
        bath=b,
        gamma=gammas if gammas.ndim else float(gammas),
        weights=weights,
        survival=survival,
    )


def _fidelity(ch: HolonomicChannel, varthetas: np.ndarray, xi: float = 0.0) -> np.ndarray:
    """F for inputs (vartheta, xi), shape gamma.shape + varthetas.shape.

    The bath enters only through <u> and <|u|^2>, reduced over m before they
    meet the input states, so no (gamma, vartheta, m) array is ever built.
    """
    dark, bright = bright_dark_states(ch.params)
    half = 0.5 * np.asarray(varthetas)
    psi = np.cos(half)[..., None] * dark + (np.exp(1j * xi) * np.sin(half))[..., None] * bright
    target = psi @ ideal_gate(ch.params).T
    dark_p, bright_p = bright_dark_states(ch.effective)
    a = (target.conj() @ dark_p) * (psi @ dark_p.conj())
    b = (target.conj() @ bright_p) * (psi @ bright_p.conj())
    mean_u = ch.survival @ ch.weights
    mean_u2 = np.abs(ch.survival) ** 2 @ ch.weights
    f2 = (
        np.abs(a) ** 2
        + 2.0 * np.multiply.outer(mean_u, a.conj() * b).real
        + np.multiply.outer(mean_u2, np.abs(b) ** 2)
    )
    # The expanded form can dip below 0 by roundoff where A + B u_m cancels,
    # and the exact value is bounded by 1; clamp both.
    return np.minimum(np.sqrt(np.maximum(f2, 0.0)), 1.0)


def state_fidelity(ch: HolonomicChannel, s: InputState) -> float | np.ndarray:
    """Fidelity of the channel output against the ideal gate for one input state.

    A float for a scalar-gamma channel, one value per gamma otherwise.
    """
    values = _fidelity(ch, np.asarray(s.vartheta), s.xi)
    return float(values) if values.ndim == 0 else values


def vartheta_grid(n_states: int) -> np.ndarray:
    """Equidistant vartheta_k = k*pi/(n-1), k = 0..n-1."""
    n_states = require_count("n_states", n_states, 3)
    return np.arange(n_states) * (math.pi / (n_states - 1))


def fidelity_curve(ch: HolonomicChannel,
                   n_states: int = N_INPUT_STATES) -> tuple[np.ndarray, np.ndarray]:
    """(vartheta_k, F(vartheta_k)) over the equidistant input-state grid (xi = 0).

    For a gamma-array channel the values have shape (len(gamma), n_states).
    """
    n_states = require_count("n_states", n_states, 3)
    # survival holds one row of N+1 amplitudes per gamma
    _require_kernel_size(ch.survival.size // ch.weights.size, n_states, "input states")
    varthetas = vartheta_grid(n_states)
    return varthetas, _fidelity(ch, varthetas)


def average_fidelity(ch: HolonomicChannel, n_states: int = N_INPUT_STATES) -> float | np.ndarray:
    """sin-weighted average of F over n_states equidistant vartheta values.

    A float for a scalar-gamma channel, one average per gamma otherwise.
    """
    return _sin_weighted_average(*fidelity_curve(ch, n_states))


def _sin_weighted_average(varthetas: np.ndarray, values: np.ndarray) -> float | np.ndarray:
    """Average of a :func:`fidelity_curve` table over its last axis, weighted by sin(vartheta).

    The endpoint weights sin(0) and sin(pi) vanish analytically; they are
    zeroed explicitly (float sin(pi) is ~1.2e-16) so the average over n
    points equals the average over the n-2 interior points exactly.
    """
    weights = np.sin(varthetas)
    weights[0] = 0.0
    weights[-1] = 0.0
    averages = values @ weights / np.sum(weights)
    return float(averages) if averages.ndim == 0 else averages
