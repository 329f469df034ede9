"""Independent brute-force references used to validate the fast code paths.

No oracle here reuses the survival-amplitude closed form or the fidelity
kernel: system Hamiltonians are assembled from the raw errored drive
amplitudes, bath weights from exact binomial coefficients, and everything is
exponentiated densely via eigendecomposition.  Agreement with
:mod:`holobath.channel` is therefore a genuine cross-check.

The dense Kraus matrices sqrt(p_m) U_m are assembled here for validation
only, each U_m the dense exponential of the errored drive Hamiltonian with
the excited level shifted by gamma*m; the channel keeps just what its
fidelity kernel needs, and the suite checks that kernel against them.  The
small-matrix oracles work on stacks: one batched eigendecomposition per
check, not one per 3x3 matrix.

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
from .lambda_system import LambdaParams, bright_survival_amplitude, ideal_gate
from .spin_bath import SpinBath

__all__ = [
    "BRUTE_FORCE_MAX_COLLAPSED",
    "BRUTE_FORCE_MAX_PRODUCT",
    "expm_hermitian",
    "raw_error_hamiltonian",
    "full_evolution",
    "partial_trace_bath",
    "trace_distance",
    "cyclic_times",
    "CheckResult",
    "MAX_VALIDATION_CASES",
    "run_validation_suite",
]

BRUTE_FORCE_MAX_COLLAPSED = 12  # occupation basis, dimension 3*(N+1)
BRUTE_FORCE_MAX_PRODUCT = 6  # full product basis, dimension 3*2^N
# The survival-amplitude check exponentiates 5*cases drives as one stack.  A
# suite peaks near 6 kB per case under tracemalloc (23 MB at 4,000 cases), so
# the cap holds it near 60 MB.
MAX_VALIDATION_CASES = 10_000

HERMITICITY_TOL = 1e-12


def expm_hermitian(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) of a Hermitian matrix, or of each matrix of a (..., n, n) stack.

    ``t`` is a scalar or one time per matrix (shape ``h.shape[:-2]``).  The
    stack goes through one batched eigendecomposition, whose results equal
    those of per-matrix calls bit for bit.
    """
    h = np.asarray(h, dtype=complex)
    defect = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max |H - H^dag| = {defect:.3e})")
    eigvals, eigvecs = np.linalg.eigh(h)
    phases = np.exp(-1j * eigvals * np.asarray(t)[..., None])
    return (eigvecs * phases[..., None, :]) @ np.swapaxes(eigvecs, -1, -2).conj()


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


def _bright_ket(p: LambdaParams) -> np.ndarray:
    # Own copy of the state construction so the comparison inputs are not
    # routed through the module under test.
    half = 0.5 * p.theta
    phase = cmath.exp(1j * p.phi)
    return np.array([phase.conjugate() * math.sin(half), -math.cos(half), 0.0], dtype=complex)


def _input_ket(p: LambdaParams, state: InputState) -> np.ndarray:
    half = 0.5 * p.theta
    phase = cmath.exp(1j * p.phi)
    dark = np.array([math.cos(half), phase * math.sin(half), 0.0], dtype=complex)
    bright = _bright_ket(p)
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
    basis: str = "collapsed",
) -> np.ndarray:
    """Exact system(x)bath evolution over the cyclic time tau0, then the partial trace.

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
    # H_sys (x) 1 + 1 (x) diag(E) + gamma |e><e| (x) diag(m): the last two
    # terms are diagonal, so they are added to the diagonal in place.
    h_total = np.kron(h_system, np.eye(bath_dim))
    diagonal = h_total.reshape(-1)[:: 3 * bath_dim + 1]  # a view
    diagonal += np.tile(bath_energies, 3)
    diagonal[2 * bath_dim :] += gamma * occupations

    ket = _input_ket(p, psi)
    rho0 = np.kron(np.outer(ket, ket.conj()), np.diag(boltzmann).astype(complex))
    u = expm_hermitian(h_total, p.tau0)
    return partial_trace_bath(u @ rho0 @ u.conj().T, bath_dim)


def cyclic_times(drives) -> np.ndarray:
    """Smallest t > 0 with <e|exp(-i H t)|b> = 0 for each drive, bisected in lockstep.

    The search signal is the signed quantity Im(e^{i delta t/2} <e|U(t)|b>),
    which crosses zero exactly at the cyclic time; the amplitude itself comes
    from the dense exponential, not the closed form.  The first zero provably
    lies in (t_ub/2, t_ub] with t_ub = 2*pi/max(2*omega, |delta|).  Every
    drive sees the midpoints its own bisection would, so the result does not
    depend on which other drives share the stack.
    """
    h = np.stack([raw_error_hamiltonian(p, ErrorParams()) for p in drives])
    bright = np.stack([_bright_ket(p) for p in drives])[..., None]
    half_delta = 0.5j * np.array([p.delta for p in drives])
    t_ub = np.array([2.0 * math.pi / max(2.0 * p.omega, abs(p.delta)) for p in drives])

    def signal(t: np.ndarray, k) -> np.ndarray:
        amp = (expm_hermitian(h[k], t)[:, 2:3, :] @ bright[k])[:, 0, 0]
        return (np.exp(half_delta[k] * t) * amp).imag

    lo = 0.5 * t_ub
    hi = t_ub * (1.0 + 1e-9)  # nudge past the root when delta = 0 lands t_ub on it
    f_lo = signal(lo, slice(None))
    for _ in range(200):
        active = np.flatnonzero(hi - lo >= 1e-13 * t_ub)
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        f_mid = signal(mid, active)
        same = (f_mid < 0.0) == (f_lo[active] < 0.0)
        lo[active[same]] = mid[same]
        f_lo[active[same]] = f_mid[same]
        hi[active[~same]] = mid[~same]
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
    """U_m = exp(-i (H' + gamma m |e><e|) tau0) of a scalar-gamma channel, shape (N+1, 3, 3)."""
    if np.ndim(ch.gamma):
        raise ValueError("dense Kraus matrices need a scalar-gamma channel")
    h = np.repeat(raw_error_hamiltonian(ch.effective, ErrorParams())[None], ch.bath.n_spins + 1, 0)
    h[:, 2, 2] += ch.gamma * ch.bath.occupations()
    return expm_hermitian(h, ch.params.tau0)


def kraus_matrices(ch: HolonomicChannel) -> np.ndarray:
    """Stacked Kraus operators sqrt(p_m) * U_m, shape (N+1, 3, 3)."""
    return np.sqrt(ch.weights)[:, None, None] * kraus_unitaries(ch)


def apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_m A_m rho A_m^dag on a 3x3 density matrix."""
    return np.einsum("mij,jk,mlk->il", kraus, np.asarray(rho, dtype=complex), kraus.conj())


def kraus_fidelity(ch: HolonomicChannel, kraus: np.ndarray, state: InputState) -> float:
    """F(psi) = [sum_m |<G psi|A_m|psi>|^2]^(1/2) from the dense Kraus matrices of ch."""
    psi = _input_ket(ch.params, state)
    target = ideal_gate(ch.params) @ psi
    overlaps = np.einsum("i,mij,j->m", target.conj(), kraus, psi)
    f2 = float(np.sum(np.abs(overlaps) ** 2))
    return min(math.sqrt(f2), 1.0)


def channel_output_state(ch: HolonomicChannel, state: InputState) -> np.ndarray:
    """Channel output density matrix for a pure input, via the Kraus ensemble."""
    ket = _input_ket(ch.params, state)
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
    if cases > MAX_VALIDATION_CASES:
        raise ValueError(
            f"cases must be at most MAX_VALIDATION_CASES = {MAX_VALIDATION_CASES}, got {cases}"
        )
    if max_spins < 1:
        raise ValueError(f"max_spins must be at least 1, got {max_spins}")
    if max_spins > BRUTE_FORCE_MAX_COLLAPSED:
        raise ValueError(f"max_spins must be at most BRUTE_FORCE_MAX_COLLAPSED = "
                         f"{BRUTE_FORCE_MAX_COLLAPSED}, got {max_spins}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)

    worst_channel = 0.0
    worst_complete = 0.0
    worst_unital = 0.0
    worst_fidelity = 0.0
    for _ in range(cases):
        p, e, bath, gamma, state = _random_case(rng, max_spins)
        ch = build_channel(p, e, bath, gamma)
        kraus = kraus_matrices(ch)
        ket = _input_ket(p, state)
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

    # Each drive runs for the cyclic time tau0 of an ideal drive with gap
    # 2*pi/tau0, which is all the closed form assumes of its last arguments.
    drives, shifts, tau0s = [], [], []
    for _ in range(max(50, 5 * cases)):
        drives.append(LambdaParams(
            omega=rng.uniform(1e-3, 10.0),
            delta=rng.uniform(-10.0, 10.0),
            theta=rng.uniform(0.0, math.pi),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        ))
        shifts.append(rng.uniform(-10.0, 10.0))
        tau0s.append(drives[-1].tau0 * rng.uniform(0.2, 3.0))
    h = np.stack([raw_error_hamiltonian(p, ErrorParams()) for p in drives])
    h[:, 2, 2] = shifts
    bright = np.stack([_bright_ket(p) for p in drives])
    u = expm_hermitian(h, np.array(tau0s))
    dense = np.einsum("ki,kij,kj->k", bright.conj(), u, bright)
    closed = np.array([
        bright_survival_amplitude(p.omega, shift, t, 2.0 * math.pi / t)
        for p, shift, t in zip(drives, shifts, tau0s)
    ])
    worst_survival = float(np.max(np.abs(closed - dense)))

    cyclic = [
        LambdaParams(omega=rng.uniform(0.05, 10.0), delta=rng.uniform(-10.0, 10.0))
        for _ in range(max(10, cases // 4))
    ]
    worst_cyclic = float(np.max(np.abs(cyclic_times(cyclic) - [p.tau0 for p in cyclic])))

    return [
        CheckResult("channel vs full evolution (trace distance)", worst_channel, 1e-10),
        CheckResult("multiplicity collapse, product vs occupation basis", worst_collapse, 1e-10),
        CheckResult("Kraus completeness", worst_complete, 1e-12),
        CheckResult("Kraus unitality", worst_unital, 1e-12),
        CheckResult("fidelity kernel vs dense Kraus fidelity", worst_fidelity, 1e-12),
        CheckResult("bright survival amplitude vs dense exponential", worst_survival, 1e-10),
        CheckResult("cyclic-time search vs 2*pi/delta0", worst_cyclic, 1e-9),
    ]
