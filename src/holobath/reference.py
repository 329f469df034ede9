"""Independent brute-force references used to validate the fast code paths.

No oracle here reuses the survival-amplitude closed form or the fidelity
kernel: system Hamiltonians are assembled from the raw errored drive
amplitudes, bath weights from exact binomial coefficients, and everything is
exponentiated densely via eigendecomposition.  Agreement with
:mod:`holobath.channel` is therefore a genuine cross-check.

The dense Kraus matrices sqrt(p_m) U_m are assembled here for validation
only, each U_m the dense exponential of the errored drive Hamiltonian with
the excited level shifted by gamma*m; the channel keeps just what its
fidelity kernel needs, and the suite checks that kernel against them.

The oracles work on stacks, one batched eigendecomposition each.  The suite
draws its per-case checks in blocks of cases: per block, one exponential
of every Kraus Hamiltonian, one of the exact evolutions per bath size and
one eigvalsh for the trace distances.  The cyclic-time search
eigendecomposes its drives once, before bisecting.  The one-case oracles
(``full_evolution``, ``kraus_matrices``, ``trace_distance``) are one-item
calls into the same stacked code, and a stack equals its one-item calls bit
for bit.  Only the multiplicity-collapse check runs one case at a time: its
192x192 product-basis matrices cost LAPACK time, not call overhead, and
stacking them would only raise peak memory.

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
# The survival-amplitude check exponentiates 5*cases drives as one stack, so
# a suite's peak grows with cases: under tracemalloc it reads 23.5 MB at 4,000
# cases and 56 MB at the cap.
MAX_VALIDATION_CASES = 10_000

HERMITICITY_TOL = 1e-12
# The per-case checks run this many cases per stacked exponential: enough to
# amortize the per-call overhead, few enough to keep the stacks small.
_BLOCK_CASES = 40
_NO_ERRORS = ErrorParams()


def expm_hermitian(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) of a Hermitian matrix, or of each matrix of a (..., n, n) stack.

    ``t`` is a scalar or one time per matrix (shape ``h.shape[:-2]``).  The
    stack goes through one batched eigendecomposition, whose results equal
    those of per-matrix calls bit for bit.
    """
    return _expm_from_eigh(*_eigh_hermitian(h), t)


def _eigh_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix or stack, after checking Hermiticity."""
    h = np.asarray(h, dtype=complex)
    defect = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max |H - H^dag| = {defect:.3e})")
    return np.linalg.eigh(h)


def _expm_from_eigh(eigvals: np.ndarray, eigvecs: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) from the eigenpairs of h, so one decomposition serves many t."""
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
    """Trace a (3*bath_dim) x (3*bath_dim) system(x)bath state, or a stack, down to the system."""
    rho = np.asarray(rho)
    reshaped = rho.reshape(rho.shape[:-2] + (3, bath_dim, 3, bath_dim))
    return np.einsum("...ikjk->...ij", reshaped)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 for Hermitian matrices."""
    return float(_trace_distances(a, b))


def _trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """trace_distance of each pair of matrices of two (..., n, n) stacks."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)), axis=-1)


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
    return _full_evolutions([(p, e, b, gamma, psi)], basis)[0]


def _bath_levels(n: int, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """(occupation, multiplicity) of each basis state of an N-spin bath."""
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
    return occupations, multiplicities


def _full_evolutions(cases, basis: str = "collapsed") -> np.ndarray:
    """full_evolution of each (p, e, b, gamma, psi) case, shape (len(cases), 3, 3).

    The cases of one bath size share one stacked exponential.  Every
    Hamiltonian and initial state is broadcast from the same products that
    ``np.kron`` forms, so each case's result equals its one-case call bit
    for bit.
    """
    out = np.empty((len(cases), 3, 3), dtype=complex)
    by_size: dict[int, list[int]] = {}
    for k, case in enumerate(cases):
        by_size.setdefault(case[2].n_spins, []).append(k)
    for n, index in by_size.items():
        occupations, multiplicities = _bath_levels(n, basis)
        params, errors, baths, gammas, states = zip(*(cases[k] for k in index))
        bath_dim = occupations.size

        # Bath thermal weights from exact binomials (or explicit enumeration),
        # normalized directly; independent of the log-space accumulation.
        # Level m = 0 carries no Boltzmann factor, so beta = inf (T -> 0)
        # leaves the bath in its ground state instead of exp(-inf * 0) = NaN.
        beta_alpha = np.array([b.beta_alpha for b in baths])[:, None]
        exponents = np.zeros((len(index), bath_dim))
        np.multiply(-beta_alpha, occupations, out=exponents, where=occupations > 0)
        boltzmann = multiplicities * np.exp(exponents)
        boltzmann /= boltzmann.sum(axis=-1, keepdims=True)

        alpha = np.array([b.alpha for b in baths])[:, None]
        bath_energies = alpha * (occupations - 0.5 * n)
        # H_sys (x) 1 + 1 (x) diag(E) + gamma |e><e| (x) diag(m): the last two
        # terms are diagonal, so they are added to the diagonal in place.
        h_system = np.stack([raw_error_hamiltonian(p, e) for p, e in zip(params, errors)])
        h_total = _kron_stack(h_system, np.eye(bath_dim))
        diagonal = h_total.reshape(len(index), -1)[:, :: 3 * bath_dim + 1]  # a view
        diagonal += np.tile(bath_energies, 3)
        diagonal[:, 2 * bath_dim :] += np.array(gammas)[:, None] * occupations

        kets = np.stack([_input_ket(p, psi) for p, psi in zip(params, states)])
        rho_system = kets[:, :, None] * kets.conj()[:, None, :]
        bath_rho = np.zeros((len(index), bath_dim, bath_dim), dtype=complex)
        bath_rho[:, np.arange(bath_dim), np.arange(bath_dim)] = boltzmann
        rho0 = _kron_stack(rho_system, bath_rho)
        u = expm_hermitian(h_total, np.array([p.tau0 for p in params]))
        rho = u @ rho0 @ np.swapaxes(u.conj(), -1, -2)
        out[index] = partial_trace_bath(rho, bath_dim)
    return out


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[k], b[k]) of every 3x3 a[k] with its b[k] (b may be one shared matrix)."""
    d = b.shape[-1]
    product = a[:, :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(len(a), 3 * d, 3 * d)


def cyclic_times(drives) -> np.ndarray:
    """Smallest t > 0 with <e|exp(-i H t)|b> = 0 for each drive, bisected in lockstep.

    The search signal is the signed quantity Im(e^{i delta t/2} <e|U(t)|b>),
    which crosses zero exactly at the cyclic time; the amplitude itself comes
    from the dense exponential, not the closed form.  The first zero provably
    lies in (t_ub/2, t_ub] with t_ub = 2*pi/max(2*omega, |delta|).  Every
    drive sees the midpoints its own bisection would, so the result does not
    depend on which other drives share the stack.  The stack is
    eigendecomposed once; each bisection step only re-evaluates the phases.
    """
    eigvals, eigvecs = _eigh_hermitian(
        np.stack([raw_error_hamiltonian(p, _NO_ERRORS) for p in drives])
    )
    bright = np.stack([_bright_ket(p) for p in drives])[..., None]
    half_delta = 0.5j * np.array([p.delta for p in drives])
    t_ub = np.array([2.0 * math.pi / max(2.0 * p.omega, abs(p.delta)) for p in drives])

    def signal(t: np.ndarray, k) -> np.ndarray:
        amp = (_expm_from_eigh(eigvals[k], eigvecs[k], t)[:, 2:3, :] @ bright[k])[:, 0, 0]
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
    return _kraus_unitaries([ch])


def kraus_matrices(ch: HolonomicChannel) -> np.ndarray:
    """Stacked Kraus operators sqrt(p_m) * U_m, shape (N+1, 3, 3)."""
    return _kraus_matrices([ch])


def _kraus_unitaries(channels) -> np.ndarray:
    """kraus_unitaries of every channel, concatenated into one (sum of N+1, 3, 3) stack."""
    if any(np.ndim(ch.gamma) for ch in channels):
        raise ValueError("dense Kraus matrices need a scalar-gamma channel")
    levels = np.array([ch.bath.n_spins + 1 for ch in channels])
    h = np.repeat(np.stack([raw_error_hamiltonian(ch.effective, _NO_ERRORS) for ch in channels]),
                  levels, axis=0)
    h[:, 2, 2] += np.concatenate([ch.gamma * ch.bath.occupations() for ch in channels])
    return expm_hermitian(h, np.repeat([ch.params.tau0 for ch in channels], levels))


def _kraus_matrices(channels) -> np.ndarray:
    """kraus_matrices of every channel, concatenated into one (sum of N+1, 3, 3) stack."""
    weights = np.concatenate([ch.weights for ch in channels])
    return np.sqrt(weights)[:, None, None] * _kraus_unitaries(channels)


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

    # np.maximum, not max(): a NaN anywhere makes its check fail.
    worst_channel = worst_complete = worst_unital = worst_fidelity = 0.0
    identity = np.eye(3)
    for start in range(0, cases, _BLOCK_CASES):
        block = [_random_case(rng, max_spins) for _ in range(min(_BLOCK_CASES, cases - start))]
        channels = [build_channel(p, e, bath, gamma) for p, e, bath, gamma, _ in block]
        kraus_stack = _kraus_matrices(channels)
        offsets = np.cumsum([ch.bath.n_spins + 1 for ch in channels])[:-1]
        rho_fast = []
        for (p, _, _, _, state), ch, kraus in zip(block, channels, np.split(kraus_stack, offsets)):
            ket = _input_ket(p, state)
            rho_fast.append(apply_kraus(kraus, np.outer(ket, ket.conj())))
            completeness = np.einsum("mji,mjk->ik", kraus.conj(), kraus)
            unitality = np.einsum("mij,mkj->ik", kraus, kraus.conj())
            worst_complete = np.maximum(worst_complete, np.max(np.abs(completeness - identity)))
            worst_unital = np.maximum(worst_unital, np.max(np.abs(unitality - identity)))
            diff = abs(state_fidelity(ch, state) - kraus_fidelity(ch, kraus, state))
            worst_fidelity = np.maximum(worst_fidelity, diff)
        distances = _trace_distances(np.stack(rho_fast), _full_evolutions(block))
        worst_channel = np.maximum(worst_channel, np.max(distances))

    worst_collapse = 0.0
    for _ in range(max(4, cases // 10)):
        p, e, bath, gamma, state = _random_case(rng, BRUTE_FORCE_MAX_PRODUCT)
        rho_col = full_evolution(p, e, bath, gamma, state, basis="collapsed")
        rho_prod = full_evolution(p, e, bath, gamma, state, basis="product")
        worst_collapse = np.maximum(worst_collapse, trace_distance(rho_col, rho_prod))

    # Each drive runs for the cyclic time tau0 of an ideal drive with gap
    # 2*pi/tau0, which is all the closed form assumes of its last arguments.
    # One row per drive, drawn in the order omega, delta, theta, phi, shift,
    # tau0 factor: the same doubles as one scalar draw after another.
    low = [1e-3, -10.0, 0.0, 0.0, -10.0, 0.2]
    high = [10.0, 10.0, math.pi, 2.0 * math.pi, 10.0, 3.0]
    drives, shifts, tau0s = [], [], []
    for omega, delta, theta, phi, shift, factor in rng.uniform(
        low, high, size=(max(50, 5 * cases), 6)
    ).tolist():
        drives.append(LambdaParams(omega=omega, delta=delta, theta=theta, phi=phi))
        shifts.append(shift)
        tau0s.append(drives[-1].tau0 * factor)
    h = np.stack([raw_error_hamiltonian(p, _NO_ERRORS) for p in drives])
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
        CheckResult("channel vs full evolution (trace distance)", float(worst_channel), 1e-10),
        CheckResult("multiplicity collapse, product vs occupation basis",
                    float(worst_collapse), 1e-10),
        CheckResult("Kraus completeness", float(worst_complete), 1e-12),
        CheckResult("Kraus unitality", float(worst_unital), 1e-12),
        CheckResult("fidelity kernel vs dense Kraus fidelity", float(worst_fidelity), 1e-12),
        CheckResult("bright survival amplitude vs dense exponential", worst_survival, 1e-10),
        CheckResult("cyclic-time search vs 2*pi/delta0", worst_cyclic, 1e-9),
    ]
