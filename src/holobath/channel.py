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
this for a scalar gamma or a whole gamma array, in two halves: the input-state
terms |A|^2, A^* B and |B|^2, which depend on the drive, the errors and
(vartheta, xi) but not on gamma, and the bath reduction <u>, <|u|^2> -> F.
The public functions compose the two.  F_av averages F over one vartheta
rule, built read-only at import: N_INPUT_STATES = 30 equidistant nodes
vartheta_k = k*pi/29 on the xi = 0 meridian, their sin weights with both
endpoints zeroed, and the weights' sum; the average of a table on the nodes
is values @ weights / sum.  :func:`_curve` builds a sweep curve: it computes the
first half, the bath occupations and the ideal drive's gap delta0 once
and returns F_av on the grid and an objective gamma -> F_av whose channels
carry those terms, so each golden-section step computes only the survival
amplitudes, the second half and the rule's average.  The dense
3x3 Kraus matrices live in :mod:`holobath.reference` and serve only to
validate the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .error_model import ErrorParams, apply_errors
from .lambda_system import (
    LambdaParams,
    bright_dark_states,
    bright_survival_amplitude,
    ideal_gate,
    require_finite,
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
    "curve_average",
    "MAX_KERNEL_ELEMENTS",
    "N_INPUT_STATES",
]

N_INPUT_STATES = 30  # vartheta nodes of the F_av average
# The one size limit, applied by build_channel (its docstring states the rule):
# the largest kernel arrays are (len(gamma), N+1) in build_channel, about 72
# bytes per element at its peak, and (len(gamma), N_INPUT_STATES) in the
# fidelity kernel, about 25.  A gamma grid has one row per point.  3e6
# elements (near 220 MB) admit a grid as fine as the golden-section tolerance
# over the figure range (80,001 points) with the largest figure bath, N = 28.
MAX_KERNEL_ELEMENTS = 3_000_000


@dataclass(frozen=True)
class InputState:
    """Computational input cos(vartheta/2)|d> + e^{i xi} sin(vartheta/2)|b>."""

    vartheta: float
    xi: float = 0.0

    def __post_init__(self):
        require_finite(self, ("vartheta", "xi"))
        if not 0.0 <= self.vartheta <= math.pi:
            raise ValueError(f"vartheta must lie in [0, pi], got {self.vartheta}")
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
    # The gamma-independent input-state terms of a fidelity_curve, when the
    # channel's curve computed them once for every gamma it visits (see
    # _curve); None makes fidelity_curve compute them.
    _curve_terms: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)


def build_channel(
    p: LambdaParams, e: ErrorParams, b: SpinBath, gamma: float | np.ndarray
) -> HolonomicChannel:
    """Assemble the channel for coupling strength gamma (ns^-1).

    ``gamma`` may be a scalar or a 1-D array; an array yields one channel over
    the whole grid, sharing the thermal weights.  The pulse always runs for
    the ideal cyclic time tau0 = 2*pi/delta0 of the unprimed parameters;
    errors enter only through the effective drive.

    This holds the kernel's one size check and one domain check, both made
    before any kernel array is built.  Size: the gamma count times the wider
    of the N+1 bath levels and the N_INPUT_STATES rule nodes may be at most
    MAX_KERNEL_ELEMENTS, so every array that a fidelity function builds on
    the channel fits, and those functions check nothing.  Domain: the
    survival phases D*tau0/2 and pi*hypot(D, 2*omega')/delta0 of the shifted
    detuning D = delta' + gamma*m must be finite for every gamma and m.  Both
    grow with |D|, which peaks at m = N and at the smallest or largest of
    gamma and 0, so those two shifts decide it.  A NaN or infinite gamma, an
    overflowing D or phase and an infinite tau0 all raise ValueError naming
    the inputs; an accepted channel yields finite fidelities.
    """
    gammas = np.asarray(gamma, dtype=float)
    if gammas.ndim > 1:
        raise ValueError(f"gamma must be a scalar or a 1-D array, got shape {gammas.shape}")
    width, axis = ((b.n_spins + 1, "bath levels") if b.n_spins + 1 >= N_INPUT_STATES
                   else (N_INPUT_STATES, "input states"))
    if gammas.size * width > MAX_KERNEL_ELEMENTS:
        raise ValueError(f"{gammas.size} gamma values x {width} {axis} is "
                         f"{gammas.size * width} kernel elements, "
                         f"more than MAX_KERNEL_ELEMENTS = {MAX_KERNEL_ELEMENTS}")
    eff = apply_errors(p, e)
    # Plain floats, in the kernel's expressions and order, so no overflow warns.
    for g in (float(gammas.min(initial=0.0)), float(gammas.max(initial=0.0))):
        shift = eff.delta + g * b.n_spins
        phases = 0.5 * shift * p.tau0, math.pi * math.hypot(shift, 2.0 * eff.omega) / p.delta0
        if not all(map(math.isfinite, phases)):
            raise ValueError(f"the kernel phases are not finite at gamma={g}, N={b.n_spins} "
                             f"for omega={p.omega}, delta={p.delta} with {e}")
    weights = thermal_weights(b)
    weights.flags.writeable = False
    return _channel_maker(p, eff, b, weights)(gammas)


def _channel_maker(p: LambdaParams, eff: LambdaParams, b: SpinBath, weights: np.ndarray,
                   curve_terms=None):
    """gamma array -> the channel whose u_m run the effective drive at detuning delta' + gamma*m.

    The gamma-independent factors, the occupations m and the ideal drive's
    gap delta0, are computed here once for every channel it makes.
    """
    occupations, delta0 = b.occupations(), p.delta0

    def make(gammas: np.ndarray) -> HolonomicChannel:
        shifts = eff.delta + gammas[..., None] * occupations
        survival = bright_survival_amplitude(eff.omega, shifts, delta0)
        survival.flags.writeable = False
        return HolonomicChannel(p, eff, b, gammas if gammas.ndim else float(gammas),
                                weights, survival, curve_terms)

    return make


def _input_terms(p: LambdaParams, eff: LambdaParams, varthetas: np.ndarray,
                 xi: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|A|^2, A^* B, |B|^2) of each input (vartheta, xi): the gamma-independent half of F^2."""
    dark, bright = bright_dark_states(p)
    half = 0.5 * np.asarray(varthetas)
    psi = np.cos(half)[..., None] * dark + (np.exp(1j * xi) * np.sin(half))[..., None] * bright
    target = psi @ ideal_gate(p).T
    dark_p, bright_p = bright_dark_states(eff)
    a = (target.conj() @ dark_p) * (psi @ dark_p.conj())
    b = (target.conj() @ bright_p) * (psi @ bright_p.conj())
    return np.abs(a) ** 2, a.conj() * b, np.abs(b) ** 2


def _bath_fidelity(terms: tuple[np.ndarray, np.ndarray, np.ndarray], weights: np.ndarray,
                   survival: np.ndarray) -> np.ndarray:
    """F from the input-state terms and the bath, shape survival.shape[:-1] + the terms' shape.

    The bath enters only through <u> and <|u|^2>, reduced over m before they
    meet the input states, so no (gamma, vartheta, m) array is ever built.
    """
    a2, ab, b2 = terms
    mean_u = survival @ weights
    mean_u2 = np.abs(survival) ** 2 @ weights
    f2 = a2 + 2.0 * np.multiply.outer(mean_u, ab).real + np.multiply.outer(mean_u2, b2)
    # The expanded form can dip below 0 by roundoff where A + B u_m cancels,
    # and the exact value is bounded by 1; clamp both.
    return np.minimum(np.sqrt(np.maximum(f2, 0.0)), 1.0)


def state_fidelity(ch: HolonomicChannel, s: InputState) -> float | np.ndarray:
    """Fidelity of the channel output against the ideal gate for one input state.

    A float for a scalar-gamma channel, one value per gamma otherwise.
    """
    terms = _input_terms(ch.params, ch.effective, np.asarray(s.vartheta), s.xi)
    values = _bath_fidelity(terms, ch.weights, ch.survival)
    return float(values) if values.ndim == 0 else values


class _ThetaRule(NamedTuple):
    """The n = N_INPUT_STATES vartheta nodes k*pi/(n-1) (xi = 0), their sin weights, their sum.

    Both arrays are read-only.  The endpoint weights sin(0) and sin(pi) vanish
    analytically; they are zeroed explicitly (float sin(pi) is ~1.2e-16) so
    the average over n points equals the average over the n-2 interior
    points exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    total: np.float64


def _build_theta_rule() -> _ThetaRule:
    nodes = np.arange(N_INPUT_STATES) * (math.pi / (N_INPUT_STATES - 1))
    weights = np.sin(nodes)
    weights[0] = 0.0
    weights[-1] = 0.0
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return _ThetaRule(nodes, weights, np.sum(weights))


_THETA_RULE = _build_theta_rule()  # the one rule of every F_av


def fidelity_curve(ch: HolonomicChannel) -> tuple[np.ndarray, np.ndarray]:
    """(vartheta_k, F(vartheta_k)) over the N_INPUT_STATES rule nodes (xi = 0).

    The vartheta_k array is read-only.  For a gamma-array channel the values
    have shape (len(gamma), N_INPUT_STATES); it checks nothing, as
    ``build_channel`` sized the channel for this table.
    """
    terms = ch._curve_terms  # only _curve attaches terms
    if terms is None:
        terms = _input_terms(ch.params, ch.effective, _THETA_RULE.nodes)
    return _THETA_RULE.nodes, _bath_fidelity(terms, ch.weights, ch.survival)


def curve_average(values: np.ndarray) -> float | np.ndarray:
    """sin-weighted average of a :func:`fidelity_curve` table over its last axis.

    The last axis holds the N_INPUT_STATES rule nodes.  A float for a 1-D
    table, one average per row otherwise.
    """
    if values.shape[-1:] != (N_INPUT_STATES,):
        raise ValueError(f"a fidelity table's last axis must hold the N_INPUT_STATES = "
                         f"{N_INPUT_STATES} rule nodes, got shape {values.shape}")
    averages = values @ _THETA_RULE.weights / _THETA_RULE.total
    return float(averages) if averages.ndim == 0 else averages


def average_fidelity(ch: HolonomicChannel) -> float | np.ndarray:
    """sin-weighted average of F over the N_INPUT_STATES equidistant vartheta nodes.

    A float for a scalar-gamma channel, one average per gamma otherwise.
    """
    return curve_average(fidelity_curve(ch)[1])


def _curve(ch: HolonomicChannel):
    """(F_av over ch's gamma grid, objective gamma -> F_av at ch's drive, errors and bath).

    The curve's input-state terms are computed once, read-only.  Both results
    go through ``average_fidelity`` on channels carrying them, because the
    benchmark's planted-fault test patches that function: the grid on ch, each
    objective call on a channel of ch's effective drive and thermal weights.
    A call checks nothing, as the refinement passes one gamma at a time from
    a grid bracket whose domain and size ``build_channel`` checked, and
    computes only the survival amplitudes, the bath reduction and the rule's
    average.  The objective equals ``average_fidelity(build_channel(p, e,
    ch.bath, gamma))`` bit for bit and keeps ch's survival array alive no
    longer than ch.
    """
    terms = _input_terms(ch.params, ch.effective, _THETA_RULE.nodes)
    for array in terms:
        array.flags.writeable = False
    make = _channel_maker(ch.params, ch.effective, ch.bath, ch.weights, terms)

    def f_av(gamma: float | np.ndarray) -> float | np.ndarray:
        return average_fidelity(make(np.asarray(gamma, dtype=float)))

    return average_fidelity(replace(ch, _curve_terms=terms)), f_av
