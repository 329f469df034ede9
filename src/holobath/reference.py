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
draws its per-case checks in blocks of cases: per block, one exponential of
every Kraus Hamiltonian, one array pass for the Kraus sums (completeness,
unitality, output state, fidelity), one eigendecomposition of the exact
evolutions per bath size and one eigvalsh for the trace distances.  An exact
evolution propagates only the columns U(psi (x) b) that the partial trace
reads, never U or rho itself.  The survival check is one array pass, and the
cyclic-time search eigendecomposes its drives once, before bisecting.  The
one-case oracles (``full_evolution``, ``kraus_matrices``, ``kraus_fidelity``,
``channel_output_state``) are one-item calls into the same stacked code, and
``trace_distance`` takes one pair or two stacks; a stack equals its one-item
calls bit for bit.  Only the product basis of the multiplicity-collapse check
runs one case at a time (its collapsed side is one stack): 192x192 matrices
cost LAPACK time, not call overhead, and a stack of them costs memory.
Stacking them was measured to keep every worst value bit-identical while it
raised the traced peak of ``run_validation_suite(cases=400, max_spins=12)``
from 2.9 MB to 16.9 MB, past the 8 MB that the tests allow a suite.

The full system (x) bath evolution works in the collapsed occupation basis
(dimension 3*(N+1), each level m carrying its binomial multiplicity as
weight) and optionally in the raw 2^N product basis, which validates the
collapse itself.  Both are capped to keep runtimes in the seconds.  The
Lambda couplings |0>-|e>-|1> form no closed loop, so the gauge of unit phases
D = diag(conj g0, conj g1, 1), g_j = exp(i angle(leg j)), makes the Hamiltonian
real: H = D H_r D^dag, H_r = |H| with the signed detuning.  The evolution
diagonalises the real symmetric system (x) bath matrix, at about half the
LAPACK cost of the complex one, with the gauge moved onto the input kets and
output rows.  It stays brute force: a dense eigendecomposition of the whole
matrix, with no closed form, bright/dark states or effective-drive algebra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channel import HolonomicChannel, InputState, build_channel, state_fidelity
from .error_model import ErrorParams
from .lambda_system import LambdaParams, bright_survival_amplitude, ideal_gate, require_count
from .spin_bath import SpinBath

__all__ = [
    "BRUTE_FORCE_MAX_COLLAPSED",
    "BRUTE_FORCE_MAX_PRODUCT",
    "expm_hermitian",
    "raw_error_hamiltonian",
    "full_evolution",
    "trace_distance",
    "cyclic_times",
    "kraus_matrices",
    "kraus_fidelity",
    "channel_output_state",
    "CheckResult",
    "MAX_VALIDATION_CASES",
    "run_validation_suite",
]

BRUTE_FORCE_MAX_COLLAPSED = 12  # occupation basis, dimension 3*(N+1)
BRUTE_FORCE_MAX_PRODUCT = 6  # full product basis, dimension 3*2^N
# The survival-amplitude check exponentiates 5*cases drives as one stack, so
# a suite's peak grows with cases: under tracemalloc it reads 20.8 MB at 4,000
# cases and 49.7 MB at the cap.
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
    eigvals, eigvecs = _eigh_hermitian(h)
    phases = np.exp(-1j * eigvals * np.asarray(t)[..., None])
    return (eigvecs * phases[..., None, :]) @ np.swapaxes(eigvecs, -1, -2).conj()


def _eigh_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix or stack, after checking Hermiticity."""
    h = np.asarray(h)
    h = h.astype(np.result_type(h, float), copy=False)  # a real stack stays real
    defect = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max |H - H^dag| = {defect:.3e})")
    return np.linalg.eigh(h)


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
    return _lambda_hamiltonians(drive0, drive1, (1.0 + e.kappa) * p.delta)


def _lambda_hamiltonians(drive0, drive1, detuning) -> np.ndarray:
    """Lambda Hamiltonian(s) with |e> couplings drive0, drive1 and |e> energy ``detuning``."""
    h = np.zeros(np.shape(detuning) + (3, 3), dtype=complex)
    h[..., 2, 2] = detuning
    h[..., 2, 0] = drive0
    h[..., 0, 2] = np.conj(drive0)
    h[..., 2, 1] = drive1
    h[..., 1, 2] = np.conj(drive1)
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


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """(1/2) ||a - b||_1 of two Hermitian matrices, or of each pair of two (..., n, n)
    stacks as an array; NaN for a non-finite pair."""
    diff = np.asarray(a - b)
    finite = np.all(np.isfinite(diff), axis=(-2, -1))  # LAPACK rejects or drops NaN
    eigvals = np.linalg.eigvalsh(np.where(finite[..., None, None], diff, 0.0))
    distances = np.where(finite, 0.5 * np.sum(np.abs(eigvals), axis=-1), np.nan)
    return float(distances) if distances.ndim == 0 else distances


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

    The cases of one bath size share one stacked eigendecomposition, and
    every step acts on each case alone, so each case's result equals its
    one-case call bit for bit.
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
        # H = D H_r D^dag with D (x) 1 commuting with the bath terms: the real
        # H_r (x) 1 + 1 (x) diag(E) + gamma |e><e| (x) diag(m) is diagonalised,
        # the kets gain the leg phases g = exp(i angle(leg)), by atan2 a unit
        # phase even for an off or subnormal leg, and the output rows conj(g).
        # The last two terms are added to the diagonal in place.
        h_system = np.stack([raw_error_hamiltonian(p, e) for p, e in zip(params, errors)])
        legs = h_system[:, 2, :]
        gauges = np.exp(1j * np.angle(legs))
        gauges[:, 2] = 1.0
        h_real = np.abs(h_system)
        h_real[:, 2, 2] = legs[:, 2].real  # the detuning keeps its sign
        h_total = (h_real[:, :, None, :, None] * np.eye(bath_dim)[:, None, :]).reshape(
            len(index), 3 * bath_dim, 3 * bath_dim)
        diagonal = h_total.reshape(len(index), -1)[:, :: 3 * bath_dim + 1]  # a view
        diagonal += np.tile(bath_energies, 3)
        diagonal[:, 2 * bath_dim :] += np.array(gammas)[:, None] * occupations

        # rho0 = |psi><psi| (x) diag(p_b), so the traced state sums the bath
        # columns U(psi (x) b) weighted by p_b; V^dag (psi (x) b) reads only
        # row block b of the eigenvectors, and U itself is never formed.
        eigvals, eigvecs = _eigh_hermitian(h_total)
        phases = np.exp(-1j * eigvals * np.array([p.tau0 for p in params])[:, None])
        kets = np.stack([_input_ket(p, psi) for p, psi in zip(params, states)]) * gauges
        blocks = eigvecs.reshape(len(index), 3, bath_dim, 3 * bath_dim)
        overlaps = np.einsum("kibn,ki->knb", blocks, kets) * np.sqrt(boltzmann)[:, None, :]
        columns = (eigvecs @ (phases[:, :, None] * overlaps)).reshape(len(index), 3, -1)
        columns *= gauges.conj()[:, :, None]
        out[index] = columns @ np.swapaxes(columns.conj(), -1, -2)
    return out


def cyclic_times(drives) -> np.ndarray:
    """Smallest t > 0 with <e|exp(-i H t)|b> = 0 for each drive, bisected in lockstep.

    The search signal is the signed quantity Im(e^{i delta t/2} <e|U(t)|b>),
    which crosses zero exactly at the cyclic time; the amplitude itself comes
    from the dense exponential, not the closed form.  The first zero provably
    lies in (t_ub/2, t_ub] with t_ub = 2*pi/max(2*omega, |delta|).  Every
    drive sees the midpoints its own bisection would, so the result does not
    depend on which other drives share the stack.  The stack is
    eigendecomposed once, and <e|U(t)|b> = sum_n V_en (V^dag b)_n e^{-i w_n t},
    so each bisection step is one exponential and one row sum.  A drive whose
    t_ub overflows raises ValueError naming it.
    """
    t_ub = np.array([2.0 * math.pi / max(2.0 * p.omega, abs(p.delta)) for p in drives])
    for p, t in zip(drives, t_ub):
        if not math.isfinite(t):
            raise ValueError(f"the cyclic-time bracket 2*pi/max(2*omega, |delta|) overflows "
                             f"for omega={p.omega}, delta={p.delta}")
    eigvals, eigvecs = _eigh_hermitian(
        np.stack([raw_error_hamiltonian(p, _NO_ERRORS) for p in drives])
    )
    bright = np.stack([_bright_ket(p) for p in drives])
    weights = eigvecs[:, 2, :] * np.sum(eigvecs.conj() * bright[:, :, None], axis=1)
    half_delta = 0.5j * np.array([p.delta for p in drives])

    def signal(t: np.ndarray) -> np.ndarray:
        amp = np.sum(weights * np.exp(-1j * eigvals * t[:, None]), axis=-1)
        return (np.exp(half_delta * t) * amp).imag

    lo = 0.5 * t_ub
    hi = t_ub * (1.0 + 1e-9)  # nudge past the root when delta = 0 lands t_ub on it
    f_lo = signal(lo)
    # Every bracket starts (0.5 + 1e-9) * t_ub wide, so every drive needs the
    # same 43 halvings to fall below 1e-13 * t_ub (2^-42 / 2 > 1e-13 > 2^-43 / 2).
    for _ in range(43):
        mid = 0.5 * (lo + hi)
        f_mid = signal(mid)
        same = (f_mid < 0.0) == (f_lo < 0.0)
        lo = np.where(same, mid, lo)
        f_lo = np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _survival_deviations(rows: np.ndarray) -> np.ndarray:
    """|closed form - dense exponential| of the bright survival amplitude of each
    (omega, delta, theta, phi, |e> shift, tau0 factor) drive row."""
    omega, delta, theta, phi, shift, factor = rows.T
    half, phase = 0.5 * theta, np.exp(1j * phi)
    h = _lambda_hamiltonians(omega * phase * np.sin(half), -omega * np.cos(half), shift)
    bright = np.stack([phase.conj() * np.sin(half), -np.cos(half), np.zeros_like(half)], axis=-1)
    gap = np.hypot(delta, 2.0 * omega) / factor  # tau0 = factor * 2*pi/hypot(delta, 2*omega)
    dense = np.einsum("ki,kij,kj->k", bright.conj(), expm_hermitian(h, 2.0 * math.pi / gap), bright)
    return np.abs(bright_survival_amplitude(omega, shift, gap) - dense)


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


def kraus_matrices(ch: HolonomicChannel) -> np.ndarray:
    """Stacked Kraus operators sqrt(p_m) * U_m, shape (N+1, 3, 3)."""
    return _kraus_matrices([ch])


def _kraus_unitaries(channels) -> np.ndarray:
    """U_m = exp(-i (H' + gamma m |e><e|) tau0) of scalar-gamma channels, shape (sum N+1, 3, 3)."""
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


def kraus_fidelity(ch: HolonomicChannel, kraus: np.ndarray, state: InputState) -> float:
    """F(psi) = [sum_m |<G psi|A_m|psi>|^2]^(1/2) from the dense Kraus matrices of ch."""
    return float(_kraus_sums([ch], kraus, _input_ket(ch.params, state)[None])[3][0])


def _kraus_sums(channels, kraus: np.ndarray, kets: np.ndarray):
    """Per channel of a concatenated Kraus stack, kets[k] the input of channels[k]: sum
    A^dag A, sum A A^dag, sum (A psi)(A psi)^dag and kraus_fidelity, each over its own
    N+1 operators only, so equal to the one-channel call bit for bit."""
    levels = [ch.bath.n_spins + 1 for ch in channels]
    starts = np.cumsum([0] + levels[:-1])
    adjoint = np.swapaxes(kraus.conj(), -1, -2)
    images = np.einsum("mij,mj->mi", kraus, np.repeat(kets, levels, axis=0))
    targets = np.stack([ideal_gate(ch.params) @ ket for ch, ket in zip(channels, kets)])
    overlaps = np.einsum("mi,mi->m", np.repeat(targets.conj(), levels, axis=0), images)
    return (
        np.add.reduceat(adjoint @ kraus, starts),
        np.add.reduceat(kraus @ adjoint, starts),
        np.add.reduceat(images[:, :, None] * images.conj()[:, None, :], starts),
        np.minimum(np.sqrt(np.add.reduceat(np.abs(overlaps) ** 2, starts)), 1.0),
    )


def channel_output_state(ch: HolonomicChannel, state: InputState) -> np.ndarray:
    """Channel output sum_m (A_m psi)(A_m psi)^dag for a pure input, via the Kraus ensemble."""
    return _kraus_sums([ch], kraus_matrices(ch), _input_ket(ch.params, state)[None])[2][0]


def run_validation_suite(
    cases: int = 40, seed: int = 2024, max_spins: int = 8
) -> list[CheckResult]:
    """Cross-check the fast paths against the brute-force references.

    Returns one :class:`CheckResult` per check; all must pass for the channel
    construction, fidelity kernel and cyclic-time formula to be trusted.
    """
    if require_count("cases", cases, 1) > MAX_VALIDATION_CASES:
        raise ValueError(
            f"cases must be at most MAX_VALIDATION_CASES = {MAX_VALIDATION_CASES}, got {cases}"
        )
    if require_count("max_spins", max_spins, 1) > BRUTE_FORCE_MAX_COLLAPSED:
        raise ValueError(f"max_spins must be at most BRUTE_FORCE_MAX_COLLAPSED = "
                         f"{BRUTE_FORCE_MAX_COLLAPSED}, got {max_spins}")
    rng = np.random.default_rng(require_count("seed", seed, 0))

    # np.maximum, not max(): a NaN anywhere makes its check fail.
    worst_channel = worst_complete = worst_unital = worst_fidelity = 0.0
    identity = np.eye(3)
    for start in range(0, cases, _BLOCK_CASES):
        block = [_random_case(rng, max_spins) for _ in range(min(_BLOCK_CASES, cases - start))]
        channels = [build_channel(p, e, bath, gamma) for p, e, bath, gamma, _ in block]
        kets = np.stack([_input_ket(p, state) for p, *_, state in block])
        completeness, unitality, rho_fast, dense_fidelity = _kraus_sums(
            channels, _kraus_matrices(channels), kets)
        worst_complete = np.maximum(worst_complete, np.max(np.abs(completeness - identity)))
        worst_unital = np.maximum(worst_unital, np.max(np.abs(unitality - identity)))
        fast_fidelity = [state_fidelity(ch, case[-1]) for ch, case in zip(channels, block)]
        worst_fidelity = np.maximum(worst_fidelity, np.max(np.abs(fast_fidelity - dense_fidelity)))
        distances = trace_distance(rho_fast, _full_evolutions(block))
        worst_channel = np.maximum(worst_channel, np.max(distances))

    collapse = [_random_case(rng, BRUTE_FORCE_MAX_PRODUCT) for _ in range(max(4, cases // 10))]
    rho_prod = np.stack([full_evolution(*case, basis="product") for case in collapse])
    worst_collapse = np.max(trace_distance(_full_evolutions(collapse), rho_prod))

    # Each drive runs for the cyclic time 2*pi/gap of an ideal drive with gap
    # hypot(delta, 2*omega)/factor, the one number the closed form takes.
    # One row per drive, drawn in the order omega, delta, theta, phi, shift,
    # tau0 factor: the same doubles as one scalar draw after another.
    low = [1e-3, -10.0, 0.0, 0.0, -10.0, 0.2]
    high = [10.0, 10.0, math.pi, 2.0 * math.pi, 10.0, 3.0]
    rows = rng.uniform(low, high, size=(max(50, 5 * cases), 6))
    worst_survival = float(np.max(_survival_deviations(rows)))

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
