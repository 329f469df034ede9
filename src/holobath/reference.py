"""Independent brute-force references used to validate the fast code paths.

Nothing here reuses the survival-amplitude closed form or the fidelity
kernel: system Hamiltonians are assembled from the raw errored drive
amplitudes, bath weights from exact binomial coefficients, and everything is
exponentiated densely via eigendecomposition.  Agreement with
:mod:`holobath.channel` is therefore a genuine cross-check.

The dense Kraus matrices sqrt(p_m) U_m (one 3x3 block propagator per bath
level) are assembled here for validation only; the channel keeps just what
its fidelity kernel needs, and the suite checks that kernel against them.

The full system (x) bath evolution works in the collapsed occupation basis
(dimension 3*(N+1), each level m carrying its binomial multiplicity as
weight) and optionally in the raw 2^N product basis, which validates the
collapse itself.  Both are capped to keep runtimes in the seconds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channel import HolonomicChannel, InputState, build_channel, state_fidelity
from .error_model import ErrorParams
from .lambda_system import LambdaParams, propagator, sub_hamiltonian
from .spin_bath import SpinBath

__all__ = [
    "BRUTE_FORCE_MAX_COLLAPSED",
    "BRUTE_FORCE_MAX_PRODUCT",
    "expm_hermitian",
    "raw_error_hamiltonian",
    "full_evolution",
    "partial_trace_bath",
    "trace_distance",
    "find_cyclic_time",
    "CheckResult",
    "run_validation_suite",
]

BRUTE_FORCE_MAX_COLLAPSED = 12  # occupation basis, dimension 3*(N+1)
BRUTE_FORCE_MAX_PRODUCT = 6  # full product basis, dimension 3*2^N

HERMITICITY_TOL = 1e-12


def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i h t) of a Hermitian matrix via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    defect = np.max(np.abs(h - h.conj().T))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max |H - H^dag| = {defect:.3e})")
    eigvals, eigvecs = np.linalg.eigh(h)
    return (eigvecs * np.exp(-1j * eigvals * t)) @ eigvecs.conj().T


def raw_error_hamiltonian(p: LambdaParams, e: ErrorParams) -> np.ndarray:
    """Errored system Hamiltonian built directly from the raw drive amplitudes.

    Omega_j' = (1 + epsilon_j) e^{i zeta_j} Omega_j and delta' = (1 + kappa)
    delta, with the common drive phase stripped (a phase redefinition of |e>
    that drops out of every computational-subspace quantity).  The stripped
    phase is e^{i zeta_1}, matching the effective-parameter convention that
    keeps the |1> drive real; at theta = pi that drive is off and the
    convention pins the phase of the only active drive, so e^{i zeta_0} is
    stripped instead.  Deliberately bypasses the effective-parameter
    trigonometry otherwise.
    """
    omega0, omega1 = p.rabi_pair
    common = e.zeta0 if p.theta == math.pi else e.zeta1
    drive0 = (1.0 + e.epsilon0) * cmath.exp(1j * (e.zeta0 - common)) * omega0
    drive1 = (1.0 + e.epsilon1) * cmath.exp(1j * (e.zeta1 - common)) * omega1
    h = np.zeros((3, 3), dtype=complex)
    h[2, 2] = (1.0 + e.kappa) * p.delta
    h[2, 0] = drive0
    h[0, 2] = np.conj(drive0)
    h[2, 1] = drive1
    h[1, 2] = np.conj(drive1)
    return h


def _input_ket(p: LambdaParams, state: InputState) -> np.ndarray:
    # Own copy of the state construction so the comparison inputs are not
    # routed through the module under test.
    half = 0.5 * p.theta
    phase = cmath.exp(1j * p.phi)
    dark = np.array([math.cos(half), phase * math.sin(half), 0.0], dtype=complex)
    bright = np.array([phase.conjugate() * math.sin(half), -math.cos(half), 0.0], dtype=complex)
    vhalf = 0.5 * state.vartheta
    return math.cos(vhalf) * dark + cmath.exp(1j * state.xi) * math.sin(vhalf) * bright


def partial_trace_bath(rho: np.ndarray, bath_dim: int) -> np.ndarray:
    """Trace a (3*bath_dim) x (3*bath_dim) system(x)bath state down to the system."""
    reshaped = np.asarray(rho).reshape(3, bath_dim, 3, bath_dim)
    return np.einsum("ikjk->ij", reshaped)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 for Hermitian matrices."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def full_evolution(
    p: LambdaParams,
    e: ErrorParams,
    b: SpinBath,
    gamma: float,
    psi: InputState,
    t: float | None = None,
    basis: str = "collapsed",
) -> np.ndarray:
    """Exact system(x)bath evolution and partial trace, at t = tau0 by default.

    ``basis`` selects the collapsed occupation basis (N <= 12) or the full
    spin product basis (N <= 6); the two must agree, which validates folding
    the degenerate bath levels into binomial weights.
    """
    n = b.n_spins
    if basis == "collapsed":
        if n > BRUTE_FORCE_MAX_COLLAPSED:
            raise ValueError(
                f"collapsed-basis brute force is capped at N = {BRUTE_FORCE_MAX_COLLAPSED}, got {n}"
            )
        occupations = np.arange(n + 1, dtype=float)
        multiplicities = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    elif basis == "product":
        if n > BRUTE_FORCE_MAX_PRODUCT:
            raise ValueError(
                f"product-basis brute force is capped at N = {BRUTE_FORCE_MAX_PRODUCT}, got {n}"
            )
        states = np.arange(2**n)
        occupations = np.array([bin(s).count("1") for s in states], dtype=float)
        multiplicities = np.ones(2**n)
    else:
        raise ValueError(f"unknown basis {basis!r}")

    # Bath thermal weights from exact binomials (or explicit enumeration),
    # normalized directly; independent of the log-space accumulation.
    boltzmann = multiplicities * np.exp(-b.beta_alpha * occupations)
    boltzmann /= boltzmann.sum()

    bath_dim = occupations.size
    h_system = raw_error_hamiltonian(p, e)
    bath_energies = b.alpha * (occupations - 0.5 * n)
    projector_e = np.zeros((3, 3))
    projector_e[2, 2] = 1.0
    h_total = (
        np.kron(h_system, np.eye(bath_dim))
        + np.kron(np.eye(3), np.diag(bath_energies))
        + gamma * np.kron(projector_e, np.diag(occupations))
    )

    ket = _input_ket(p, psi)
    rho0 = np.kron(np.outer(ket, ket.conj()), np.diag(boltzmann).astype(complex))
    u = expm_hermitian(h_total, p.tau0 if t is None else t)
    return partial_trace_bath(u @ rho0 @ u.conj().T, bath_dim)


def find_cyclic_time(p: LambdaParams) -> float:
    """Smallest t > 0 with <e|exp(-i H t)|b> = 0, by bracketing + bisection.

    The search signal is the signed quantity Im(e^{i delta t/2} <e|U(t)|b>),
    which crosses zero exactly at the cyclic time; the amplitude itself comes
    from the dense exponential, not the closed form.  The first zero provably
    lies in (t_ub/2, t_ub] with t_ub = 2*pi/max(2*omega, |delta|).
    """
    h = raw_error_hamiltonian(p, ErrorParams())
    half = 0.5 * p.theta
    phase = cmath.exp(1j * p.phi)
    bright = np.array([phase.conjugate() * math.sin(half), -math.cos(half), 0.0], dtype=complex)

    def signal(t: float) -> float:
        amp = complex(expm_hermitian(h, t)[2] @ bright)
        return (cmath.exp(0.5j * p.delta * t) * amp).imag

    t_ub = 2.0 * math.pi / max(2.0 * p.omega, abs(p.delta))
    lo = 0.5 * t_ub
    hi = t_ub * (1.0 + 1e-9)  # nudge past the root when delta = 0 lands t_ub on it
    f_lo = signal(lo)
    for _ in range(200):
        if hi - lo < 1e-13 * t_ub:
            break
        mid = 0.5 * (lo + hi)
        f_mid = signal(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CheckResult:
    """One row of the validation table."""

    name: str
    worst: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.worst < self.threshold


def _random_case(rng: np.random.Generator, max_spins: int):
    p = LambdaParams(
        omega=rng.uniform(0.2, 5.0),
        delta=rng.uniform(-5.0, 5.0),
        theta=rng.uniform(0.0, math.pi),
        phi=rng.uniform(0.0, 2.0 * math.pi),
    )
    e = ErrorParams(
        epsilon0=rng.uniform(-0.3, 0.3),
        epsilon1=rng.uniform(-0.3, 0.3),
        zeta0=rng.uniform(-math.pi, math.pi),
        zeta1=rng.uniform(-math.pi, math.pi),
        kappa=rng.uniform(-0.3, 0.3),
    )
    alpha = rng.uniform(0.1, 50.0)
    bath = SpinBath(
        n_spins=int(rng.integers(1, max_spins + 1)),
        alpha=alpha,
        beta=rng.uniform(0.0, 5.0) / alpha,  # beta*alpha spans [0, 5]
    )
    gamma = rng.uniform(0.0, 8.0)
    state = InputState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
    return p, e, bath, gamma, state


def kraus_unitaries(ch: HolonomicChannel) -> np.ndarray:
    """Block propagators U_m of a scalar-gamma channel, shape (N+1, 3, 3)."""
    if np.ndim(ch.gamma):
        raise ValueError("dense Kraus matrices need a scalar-gamma channel")
    shifts = ch.effective.delta_p + ch.gamma * ch.bath.occupations()
    eff_params = ch.effective.as_params()
    return np.stack([propagator(eff_params, float(shift), ch.tau0) for shift in shifts])


def kraus_matrices(ch: HolonomicChannel) -> np.ndarray:
    """Stacked Kraus operators sqrt(p_m) * U_m, shape (N+1, 3, 3)."""
    return np.sqrt(ch.weights)[:, None, None] * kraus_unitaries(ch)


def apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_m A_m rho A_m^dag on a 3x3 density matrix."""
    return np.einsum("mij,jk,mlk->il", kraus, np.asarray(rho, dtype=complex), kraus.conj())


def kraus_fidelity(ch: HolonomicChannel, kraus: np.ndarray, state: InputState) -> float:
    """F(psi) = [sum_m |<G psi|A_m|psi>|^2]^(1/2) from the dense Kraus matrices of ch."""
    psi = state.ket(ch.dark, ch.bright)
    target = ch.gate @ psi
    overlaps = np.einsum("i,mij,j->m", target.conj(), kraus, psi)
    f2 = float(np.sum(np.abs(overlaps) ** 2))
    return min(math.sqrt(f2), 1.0)


def channel_output_state(ch: HolonomicChannel, state: InputState) -> np.ndarray:
    """Channel output density matrix for a pure input, via the Kraus ensemble."""
    ket = state.ket(ch.dark, ch.bright)
    return apply_kraus(kraus_matrices(ch), np.outer(ket, ket.conj()))


def run_validation_suite(
    cases: int = 40, seed: int = 2024, max_spins: int = 8
) -> list[CheckResult]:
    """Cross-check the fast paths against the brute-force references.

    Returns one :class:`CheckResult` per check; all must pass for the channel
    construction, fidelity kernel and cyclic-time formula to be trusted.
    """
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    max_spins = min(max_spins, BRUTE_FORCE_MAX_COLLAPSED)
    rng = np.random.default_rng(seed)

    worst_channel = 0.0
    worst_complete = 0.0
    worst_unital = 0.0
    worst_fidelity = 0.0
    for _ in range(cases):
        p, e, bath, gamma, state = _random_case(rng, max_spins)
        ch = build_channel(p, e, bath, gamma)
        kraus = kraus_matrices(ch)
        ket = state.ket(ch.dark, ch.bright)
        rho_fast = apply_kraus(kraus, np.outer(ket, ket.conj()))
        rho_exact = full_evolution(p, e, bath, gamma, state)
        worst_channel = max(worst_channel, trace_distance(rho_fast, rho_exact))

        identity = np.eye(3)
        completeness = np.einsum("mji,mjk->ik", kraus.conj(), kraus)
        unitality = np.einsum("mij,mkj->ik", kraus, kraus.conj())
        worst_complete = max(worst_complete, np.max(np.abs(completeness - identity)))
        worst_unital = max(worst_unital, np.max(np.abs(unitality - identity)))

        diff = abs(state_fidelity(ch, state) - kraus_fidelity(ch, kraus, state))
        worst_fidelity = max(worst_fidelity, diff)

    worst_collapse = 0.0
    for _ in range(max(4, cases // 10)):
        p, e, bath, gamma, state = _random_case(rng, BRUTE_FORCE_MAX_PRODUCT)
        rho_col = full_evolution(p, e, bath, gamma, state, basis="collapsed")
        rho_prod = full_evolution(p, e, bath, gamma, state, basis="product")
        worst_collapse = max(worst_collapse, trace_distance(rho_col, rho_prod))

    worst_propagator = 0.0
    for _ in range(max(50, 5 * cases)):
        p = LambdaParams(
            omega=rng.uniform(1e-3, 10.0),
            delta=rng.uniform(-10.0, 10.0),
            theta=rng.uniform(0.0, math.pi),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        )
        shift = rng.uniform(-10.0, 10.0)
        t = p.tau0 * rng.uniform(0.2, 3.0)
        closed = propagator(p, shift, t)
        dense = expm_hermitian(sub_hamiltonian(p, shift), t)
        worst_propagator = max(worst_propagator, np.max(np.abs(closed - dense)))

    worst_cyclic = 0.0
    for _ in range(max(10, cases // 4)):
        p = LambdaParams(omega=rng.uniform(0.05, 10.0), delta=rng.uniform(-10.0, 10.0))
        found = find_cyclic_time(p)
        worst_cyclic = max(worst_cyclic, abs(found - p.tau0))

    return [
        CheckResult("channel vs full evolution (trace distance)", worst_channel, 1e-10),
        CheckResult("multiplicity collapse, product vs occupation basis", worst_collapse, 1e-10),
        CheckResult("Kraus completeness", worst_complete, 1e-12),
        CheckResult("Kraus unitality", worst_unital, 1e-12),
        CheckResult("fidelity kernel vs dense Kraus fidelity", worst_fidelity, 1e-12),
        CheckResult("closed-form propagator vs dense exponential", worst_propagator, 1e-10),
        CheckResult("cyclic-time search vs 2*pi/delta0", worst_cyclic, 1e-9),
    ]
