import cmath
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holobath import reference
from holobath.channel import InputState, build_channel, state_fidelity
from holobath.error_model import ErrorParams
from holobath.lambda_system import LambdaParams, bright_dark_states, bright_survival_amplitude
from holobath.reference import (
    BRUTE_FORCE_MAX_COLLAPSED,
    BRUTE_FORCE_MAX_PRODUCT,
    MAX_VALIDATION_CASES,
    _input_ket,
    _random_case,
    channel_output_state,
    cyclic_times,
    expm_hermitian,
    full_evolution,
    kraus_fidelity,
    kraus_matrices,
    raw_error_hamiltonian,
    run_validation_suite,
    trace_distance,
)
from holobath.spin_bath import SpinBath


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (raw + raw.conj().T)


def scalar_cyclic_time(p):
    """The cyclic-time bisection for one drive in scalar arithmetic, as a reference.

    Its signal is <e|U(t)|b> = sum_n V_en (V^dag b)_n e^{-i w_n t}, summed one
    term at a time from the drive's own eigendecomposition: the rounding of
    cyclic_times, so near the root both bisections step the same way.
    """
    eigvals, eigvecs = np.linalg.eigh(raw_error_hamiltonian(p, ErrorParams()))
    _, bright = bright_dark_states(p)
    terms = [
        (complex(eigvecs[2, n]) * sum(complex(eigvecs[i, n]).conjugate() * complex(bright[i])
                                      for i in range(3)), float(eigvals[n]))
        for n in range(3)
    ]

    def signal(t):
        amp = sum(weight * cmath.exp(-1j * w * t) for weight, w in terms)
        return (cmath.exp(0.5j * p.delta * t) * amp).imag

    t_ub = 2.0 * math.pi / max(2.0 * p.omega, abs(p.delta))
    lo, hi = 0.5 * t_ub, t_ub * (1.0 + 1e-9)
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


def per_case_suite(cases, seed, max_spins):
    """The validation suite one case (or drive) at a time, through one-item calls
    of the suite's stacked helpers, as a reference for the stacked suite."""
    rng = np.random.default_rng(seed)
    worst_channel = worst_complete = worst_unital = worst_fidelity = 0.0
    for _ in range(cases):
        p, e, bath, gamma, state = _random_case(rng, max_spins)
        ch = build_channel(p, e, bath, gamma)
        kraus = kraus_matrices(ch)
        completeness, unitality, _, _ = (
            sums[0] for sums in reference._kraus_sums([ch], kraus, _input_ket(p, state)[None])
        )
        rho_fast = channel_output_state(ch, state)
        rho_exact = full_evolution(p, e, bath, gamma, state)
        worst_channel = max(worst_channel, trace_distance(rho_fast, rho_exact))
        worst_complete = max(worst_complete, np.max(np.abs(completeness - np.eye(3))))
        worst_unital = max(worst_unital, np.max(np.abs(unitality - np.eye(3))))
        diff = abs(state_fidelity(ch, state) - kraus_fidelity(ch, kraus, state))
        worst_fidelity = max(worst_fidelity, diff)

    worst_collapse = 0.0
    for _ in range(max(4, cases // 10)):
        p, e, bath, gamma, state = _random_case(rng, BRUTE_FORCE_MAX_PRODUCT)
        rho_col = full_evolution(p, e, bath, gamma, state, basis="collapsed")
        rho_prod = full_evolution(p, e, bath, gamma, state, basis="product")
        worst_collapse = max(worst_collapse, trace_distance(rho_col, rho_prod))

    low = [1e-3, -10.0, 0.0, 0.0, -10.0, 0.2]
    high = [10.0, 10.0, math.pi, 2.0 * math.pi, 10.0, 3.0]
    rows = rng.uniform(low, high, size=(max(50, 5 * cases), 6))
    worst_survival = max(float(reference._survival_deviations(row[None])[0]) for row in rows)

    cyclic = [
        LambdaParams(omega=rng.uniform(0.05, 10.0), delta=rng.uniform(-10.0, 10.0))
        for _ in range(max(10, cases // 4))
    ]
    worst_cyclic = max(abs(float(cyclic_times([p])[0]) - p.tau0) for p in cyclic)
    return [worst_channel, worst_collapse, worst_complete, worst_unital, worst_fidelity,
            worst_survival, worst_cyclic]


def dense_full_evolution(p, e, b, gamma, psi, basis):
    """The exact evolution through the dense U rho0 U^dag and its partial trace, as a
    reference for the column-only stack."""
    occupations, multiplicities = reference._bath_levels(b.n_spins, basis)
    d = occupations.size
    exponents = np.array([-b.beta_alpha * m if m > 0 else 0.0 for m in occupations])
    weights = multiplicities * np.exp(exponents)
    weights /= weights.sum()
    h = (np.kron(raw_error_hamiltonian(p, e), np.eye(d))
         + np.kron(np.eye(3), np.diag(b.alpha * (occupations - 0.5 * b.n_spins)))
         + gamma * np.kron(np.diag([0.0, 0.0, 1.0]), np.diag(occupations)))
    ket = _input_ket(p, psi)
    rho0 = np.kron(np.outer(ket, ket.conj()), np.diag(weights))
    u = expm_hermitian(h, p.tau0)
    rho = u @ rho0 @ u.conj().T
    return np.einsum("ikjk->ij", rho.reshape(3, d, 3, d))


def count_calls(monkeypatch, names):
    """Count calls of the named np.linalg functions from here on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def record_dtypes(monkeypatch, name):
    """Record the dtype of the matrix argument of each np.linalg.<name> call from here on."""
    dtypes = []

    def recorded(a, *args, _original=getattr(np.linalg, name), **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return dtypes


class TestExpmHermitian:
    def test_zero_hamiltonian(self):
        np.testing.assert_allclose(expm_hermitian(np.zeros((4, 4)), 2.0), np.eye(4), atol=1e-15)

    def test_diagonal_case(self):
        h = np.diag([1.0, -2.0, 0.5])
        expected = np.diag(np.exp(-1j * np.array([1.0, -2.0, 0.5]) * 0.7))
        np.testing.assert_allclose(expm_hermitian(h, 0.7), expected, atol=1e-14)

    def test_against_scaling_and_squaring(self):
        # scipy.linalg.expm (Pade scaling-and-squaring) as the second,
        # independent algorithm
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5, 12, 25, 40):
            h = random_hermitian(rng, dim)
            mine = expm_hermitian(h, 0.9)
            ref = scipy_linalg.expm(-1j * h * 0.9)
            assert np.max(np.abs(mine - ref)) < 1e-9

    def test_unitary_output(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 17)
        u = expm_hermitian(h, 3.1)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(17), atol=1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(bad, 1.0)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 5, 27, 39]),
           count=st.integers(1, 6), per_matrix_times=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_per_matrix_calls(self, seed, dim, count, per_matrix_times):
        rng = np.random.default_rng(seed)
        stack = np.stack([random_hermitian(rng, dim) for _ in range(count)])
        times = rng.uniform(0.0, 5.0, count) if per_matrix_times else 0.9
        stacked = expm_hermitian(stack, times)
        for k in range(count):
            single = expm_hermitian(stack[k], times[k] if per_matrix_times else times)
            assert np.array_equal(stacked[k], single)

    def test_complex_stack_is_diagonalised_as_complex(self, monkeypatch):
        # The raw Hamiltonian is complex even when every entry is real: its
        # exponential keeps the arithmetic the asymmetric-gate oracle relies on.
        drives = [LambdaParams(omega=1.0, delta=2.0, phi=phi) for phi in (0.0, 0.7)]
        stack = np.stack([raw_error_hamiltonian(p, ErrorParams()) for p in drives])
        dtypes = record_dtypes(monkeypatch, "eigh")
        expm_hermitian(stack, 0.9)
        assert dtypes == [np.complex128]

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rejects_stack_with_one_non_hermitian_member(self, seed, count, data):
        rng = np.random.default_rng(seed)
        stack = np.stack([random_hermitian(rng, 3) for _ in range(count)])
        bad = data.draw(st.integers(0, count - 1))
        stack[bad, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(stack, 1.0)


class TestRawErrorHamiltonian:
    def test_hermitian(self):
        p = LambdaParams(omega=1.0, delta=2.0, theta=1.2, phi=0.7)
        h = raw_error_hamiltonian(p, ErrorParams(0.1, -0.2, 0.3, -0.4, 0.2))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)

    def test_zero_errors_matches_drive(self):
        p = LambdaParams(omega=1.0, delta=2.0, theta=1.2, phi=0.7)
        h = raw_error_hamiltonian(p, ErrorParams())
        omega0, omega1 = p.rabi_pair
        assert h[2, 2] == pytest.approx(2.0)
        assert h[2, 0] == pytest.approx(omega0)
        assert h[2, 1] == pytest.approx(omega1)
        assert h[0, 1] == 0.0

    def test_detuning_error(self):
        p = LambdaParams(omega=1.0, delta=2.0)
        h = raw_error_hamiltonian(p, ErrorParams(kappa=0.25))
        assert h[2, 2] == pytest.approx(2.5)


class TestFullEvolution:
    def test_decoupled_bath_reproduces_unitary_evolution(self, params, bath50):
        # gamma = 0: the output must be exactly U'|psi><psi|U'^dag
        errors = ErrorParams.symmetric(0.15)
        state = InputState(1.2, 0.8)
        small = SpinBath(n_spins=6, alpha=bath50.alpha, beta=bath50.beta)
        rho = full_evolution(params, errors, small, 0.0, state)
        ch = build_channel(params, errors, small, 0.0)
        ket = reference._kraus_unitaries([ch])[0] @ _input_ket(params, state)
        np.testing.assert_allclose(rho, np.outer(ket, ket.conj()), atol=1e-12)

    def test_density_matrix_properties(self, params):
        bath = SpinBath(n_spins=8, alpha=3.0, beta=0.4)
        errors = ErrorParams(0.1, -0.1, 0.2, -0.7, 0.3)
        state = InputState(2.1, 4.0)
        rho = full_evolution(params, errors, bath, 2.8, state)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10
        # purity bound: mixed for coupled thermal baths, pure when decoupled
        purity = float(np.trace(rho @ rho).real)
        assert purity <= 1.0 + 1e-12
        assert purity < 0.999
        rho0 = full_evolution(params, errors, bath, 0.0, state)
        assert float(np.trace(rho0 @ rho0).real) == pytest.approx(1.0, abs=1e-12)

    def test_matches_channel_small_bath(self, params):
        bath = SpinBath(n_spins=4, alpha=2.0, beta=0.6)
        errors = ErrorParams(0.1, 0.2, 0.3, -0.2, 0.1)
        state = InputState(0.8, 0.3)
        ch = build_channel(params, errors, bath, 2.8)
        rho_fast = channel_output_state(ch, state)
        rho_exact = full_evolution(params, errors, bath, 2.8, state)
        assert trace_distance(rho_fast, rho_exact) < 1e-10

    def test_theta_endpoint_with_phase_errors(self, bath50):
        # theta = pi pins the common drive phase to zeta0; channel and oracle
        # must still agree on the full matrix
        p = LambdaParams(omega=1.0, delta=2.0, theta=math.pi, phi=0.4)
        bath = SpinBath(n_spins=5, alpha=2.0, beta=0.7)
        errors = ErrorParams(0.1, -0.2, 0.9, -0.5, 0.2)
        state = InputState(1.7, 2.2)
        ch = build_channel(p, errors, bath, 1.9)
        rho_fast = channel_output_state(ch, state)
        rho_exact = full_evolution(p, errors, bath, 1.9, state)
        assert trace_distance(rho_fast, rho_exact) < 1e-10

    def test_product_basis_matches_collapsed(self, params):
        # validates folding the degenerate levels into binomial weights
        bath = SpinBath(n_spins=4, alpha=3.0, beta=1.5)
        errors = ErrorParams(0.1, 0.2, 0.3, -0.2, 0.1)
        state = InputState(0.8, 0.3)
        rho_col = full_evolution(params, errors, bath, 2.8, state, basis="collapsed")
        rho_prod = full_evolution(params, errors, bath, 2.8, state, basis="product")
        assert trace_distance(rho_col, rho_prod) < 1e-10

    def test_zero_temperature_bases_agree(self, params):
        # beta = inf leaves only the m = 0 level, with no Boltzmann factor on it
        bath = SpinBath(n_spins=4, alpha=3.0, beta=math.inf)
        errors = ErrorParams(0.1, 0.2, 0.3, -0.2, 0.1)
        state = InputState(0.8, 0.3)
        rho_col = full_evolution(params, errors, bath, 2.8, state, basis="collapsed")
        rho_prod = full_evolution(params, errors, bath, 2.8, state, basis="product")
        assert np.all(np.isfinite(rho_col)) and np.all(np.isfinite(rho_prod))
        assert trace_distance(rho_col, rho_prod) < 1e-10

    def test_zero_temperature_matches_channel(self, params):
        bath = SpinBath(n_spins=5, alpha=2.0, beta=math.inf)
        errors = ErrorParams(-0.1, 0.15, -0.6, 0.4, 0.2)
        state = InputState(1.9, 5.1)
        ch = build_channel(params, errors, bath, 1.7)
        rho_exact = full_evolution(params, errors, bath, 1.7, state)
        assert trace_distance(channel_output_state(ch, state), rho_exact) < 1e-10

    def test_respects_brute_force_caps(self, params):
        state = InputState(1.0)
        big = SpinBath(n_spins=BRUTE_FORCE_MAX_COLLAPSED + 1, alpha=1.0, beta=0.1)
        with pytest.raises(ValueError, match="capped"):
            full_evolution(params, ErrorParams(), big, 1.0, state)
        mid = SpinBath(n_spins=BRUTE_FORCE_MAX_PRODUCT + 1, alpha=1.0, beta=0.1)
        with pytest.raises(ValueError, match="capped"):
            full_evolution(params, ErrorParams(), mid, 1.0, state, basis="product")

    def test_rejects_unknown_basis(self, params):
        bath = SpinBath(n_spins=2, alpha=1.0, beta=0.1)
        with pytest.raises(ValueError, match="basis"):
            full_evolution(params, ErrorParams(), bath, 1.0, InputState(1.0), basis="spam")

    @pytest.mark.parametrize("basis, n_spins", [
        ("collapsed", 1), ("collapsed", 8), ("collapsed", BRUTE_FORCE_MAX_COLLAPSED),
        ("product", 3), ("product", BRUTE_FORCE_MAX_PRODUCT),
    ])
    @pytest.mark.parametrize("beta", [0.4, math.inf, 0.0])
    def test_columns_match_dense_evolution(self, basis, n_spins, beta):
        # Propagating only the input columns must give the dense U rho0 U^dag.
        p = LambdaParams(omega=1.3, delta=-2.1, theta=2.2, phi=4.0)
        bath = SpinBath(n_spins=n_spins, alpha=3.0, beta=beta)
        case = (p, ErrorParams(0.1, -0.2, 0.4, -0.9, 0.15), bath, 2.3, InputState(1.1, 5.3))
        rho = full_evolution(*case, basis=basis)
        assert np.max(np.abs(rho - dense_full_evolution(*case, basis))) <= 1e-14


    @pytest.mark.parametrize("basis", ["collapsed", "product"])
    def test_eigendecomposes_real_stacks(self, monkeypatch, basis):
        # The gauged system (x) bath Hamiltonian is real symmetric: one float64
        # eigh per bath size, never a complex one.
        p = LambdaParams(omega=1.3, delta=-2.1, theta=2.2, phi=4.0)
        errors = ErrorParams(0.1, -0.2, 0.4, -0.9, 0.15)
        cases = [(p, errors, SpinBath(n_spins=n, alpha=3.0, beta=0.4), 2.3, InputState(1.1, 5.3))
                 for n in (1, 2, 3, 3)]
        dtypes = record_dtypes(monkeypatch, "eigh")
        reference._full_evolutions(cases, basis)
        assert dtypes == [np.float64] * 3

    @given(
        omega=st.just(1.3), theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi),
        zeta0=st.floats(-math.pi, math.pi), zeta1=st.floats(-math.pi, math.pi),
        epsilon=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        kappa=st.floats(-0.5, 0.5), gamma=st.floats(0.0, 8.0),
        beta_alpha=st.one_of(st.just(0.0), st.floats(0.01, 5.0), st.just(math.inf)),
        bath=st.one_of(st.tuples(st.just("collapsed"), st.integers(1, 8)),
                       st.tuples(st.just("product"), st.integers(1, 4))),
    )
    # One leg is off at theta = 0; at theta = pi the |1> leg is cos(pi/2) ~ 6e-17.
    @example(omega=1.3, theta=0.0, phi=1.3, zeta0=2.0, zeta1=-0.7, epsilon=(0.2, -0.3),
             kappa=0.1, gamma=2.3, beta_alpha=0.8, bath=("collapsed", 5))
    @example(omega=1.3, theta=math.pi, phi=4.1, zeta0=-2.5, zeta1=0.9, epsilon=(-0.3, 0.2),
             kappa=-0.2, gamma=5.0, beta_alpha=math.inf, bath=("product", 4))
    # Subnormal legs, whose 1/|leg| overflows: one at theta = 1e-310, both at
    # omega = 1e-310.
    @example(omega=1.3, theta=1e-310, phi=0.0, zeta0=0.0, zeta1=0.0, epsilon=(0.0, 0.0),
             kappa=0.0, gamma=0.0, beta_alpha=0.0, bath=("collapsed", 1))
    @example(omega=1e-310, theta=1.1, phi=4.1, zeta0=-2.5, zeta1=0.9, epsilon=(-0.3, 0.2),
             kappa=-0.2, gamma=2.3, beta_alpha=0.8, bath=("product", 2))
    @settings(max_examples=80, deadline=None)
    def test_gauged_evolution_matches_dense_evolution(self, omega, theta, phi, zeta0, zeta1,
                                                      epsilon, kappa, gamma, beta_alpha, bath):
        # The real gauged Hamiltonian must give the evolution of the complex one.
        # 9,000 seeded draws of these ranges reached 2.7e-14 at worst.
        basis, n_spins = bath
        p = LambdaParams(omega=omega, delta=-2.1, theta=theta, phi=phi)
        errors = ErrorParams(*epsilon, zeta0, zeta1, kappa)
        case = (p, errors, SpinBath(n_spins=n_spins, alpha=3.0, beta=beta_alpha / 3.0), gamma,
                InputState(1.1, 5.3))
        rho = full_evolution(*case, basis=basis)
        assert np.max(np.abs(rho - dense_full_evolution(*case, basis))) <= 1e-13


class TestTraceDistance:
    def test_stack_equals_pairwise_calls(self):
        # One pair with a NaN: its distance is NaN and the others are unaffected.
        rng = np.random.default_rng(5)
        a = np.stack([random_hermitian(rng, 3) for _ in range(5)])
        b = np.stack([random_hermitian(rng, 3) for _ in range(5)])
        a[2, 1, 0] = math.nan
        stacked = trace_distance(a, b)
        pairwise = [trace_distance(x, y) for x, y in zip(a, b)]
        assert all(isinstance(d, float) for d in pairwise)
        assert math.isnan(stacked[2]) and math.isnan(pairwise[2])
        assert [float(d) for d in np.delete(stacked, 2)] == pairwise[:2] + pairwise[3:]

    def test_pure_states(self):
        # Orthogonal pure states are one apart, identical ones zero.
        up, down = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
        assert trace_distance(up, down) == pytest.approx(1.0, abs=1e-15)
        assert trace_distance(up, up) == 0.0


class TestFindCyclicTime:
    def test_reference_configuration(self):
        p = LambdaParams(omega=1.0, delta=2.0)
        assert cyclic_times([p])[0] == pytest.approx(2.0 * math.pi / math.sqrt(8.0), abs=1e-9)

    def test_resonant_case(self):
        p = LambdaParams(omega=1.0, delta=0.0)
        assert cyclic_times([p])[0] == pytest.approx(math.pi, abs=1e-9)

    def test_errored_cyclic_time_differs_from_ideal(self):
        # omega' = 1.1, delta' = 2.2: tau0' = 2 pi / sqrt(9.68) != tau0
        eff = LambdaParams(omega=1.1, delta=2.2)
        (found,) = cyclic_times([eff])
        assert found == pytest.approx(2.019492244617, abs=1e-9)
        assert abs(found - LambdaParams(omega=1.0, delta=2.0).tau0) > 0.1

    def test_leakage_amplitude_vanishes_at_the_root(self):
        from holobath.lambda_system import bright_dark_states

        p = LambdaParams(omega=0.7, delta=-3.1, theta=1.0, phi=0.5)
        (t,) = cyclic_times([p])
        u = expm_hermitian(raw_error_hamiltonian(p, ErrorParams()), t)
        _, b = bright_dark_states(p)
        assert abs(u[2] @ b) < 1e-10

    @given(omega=st.floats(0.05, 10.0), delta=st.floats(-10.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form(self, omega, delta):
        p = LambdaParams(omega=omega, delta=delta)
        assert abs(cyclic_times([p])[0] - p.tau0) < 1e-9

    @pytest.mark.filterwarnings("error")
    def test_overflowing_bracket_names_the_drive(self):
        # t_ub = 2*pi/(2*omega) overflows, though the drive's gap fits in a float.
        drives = [LambdaParams(omega=1.0, delta=2.0), LambdaParams(omega=4.9e-314, delta=0.0)]
        with pytest.raises(ValueError, match=r"bracket .* overflows for omega=4.9e-314, delta=0.0"):
            cyclic_times(drives)

    def test_one_eigendecomposition_per_stack(self, monkeypatch):
        drives = [LambdaParams(omega=0.3 * k, delta=1.0 - k) for k in range(1, 9)]
        counts = count_calls(monkeypatch, ("eigh",))
        cyclic_times(drives)
        assert counts["eigh"] == 1

    @given(drives=st.lists(
        st.builds(LambdaParams, omega=st.floats(0.05, 10.0), delta=st.floats(-10.0, 10.0),
                  theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi)),
        min_size=1, max_size=8,
    ))
    # A drive whose bisection once rounded the other way near the root when
    # the reference took its signal from the dense exponential.
    @example(drives=[LambdaParams(omega=8.99616531906449, delta=5.986806154622464,
                                  theta=1.5203279157937677, phi=2.4304850993370457)])
    # cyclic_times takes a fixed number of halvings; these extremes reach
    # the per-drive search's stopping width after exactly as many.
    @example(drives=[LambdaParams(omega=1.0, delta=0.0)])
    @example(drives=[LambdaParams(omega=1.0, delta=5e-324)])
    @example(drives=[LambdaParams(omega=1e8, delta=-1e8)])
    @example(drives=[LambdaParams(omega=1e150, delta=1e150)])
    @example(drives=[LambdaParams(omega=1e-150, delta=-1e-150)])
    @settings(max_examples=40, deadline=None)
    def test_lockstep_equals_per_drive_search(self, drives):
        # Each drive bisects through its own midpoints whatever shares the stack.
        together = [float(t) for t in cyclic_times(drives)]
        assert together == [float(cyclic_times([p])[0]) for p in drives]
        assert together == [scalar_cyclic_time(p) for p in drives]


class TestPublicApi:
    def test_all_names_the_public_api(self):
        defined = {
            name for name, value in vars(reference).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == reference.__name__
        }
        assert defined <= set(reference.__all__)
        assert all(hasattr(reference, name) for name in reference.__all__)


class TestValidationSuite:
    def test_all_checks_pass(self):
        checks = run_validation_suite(cases=12, seed=5, max_spins=6)
        assert len(checks) == 7
        for check in checks:
            assert check.passed, f"{check.name}: worst={check.worst:.3e}"

    @pytest.mark.parametrize("cases, seed, max_spins", [
        (12, 5, 6),
        (2 * reference._BLOCK_CASES + 7, 11, BRUTE_FORCE_MAX_COLLAPSED),
    ])
    def test_stacked_suite_equals_per_case_suite(self, cases, seed, max_spins):
        # Several blocks, a short last block and the N = 12 cap: the stacks
        # must reproduce their one-item calls bit for bit.
        stacked = [check.worst for check in run_validation_suite(cases, seed, max_spins)]
        assert stacked == per_case_suite(cases, seed, max_spins)

    def test_eigendecompositions_are_stacked(self, monkeypatch):
        # Per block: one eigh for the Kraus stack, one per bath size and one
        # eigvalsh.  The collapse check adds one eigh per case (product basis),
        # one per bath size (collapsed side) and one eigvalsh.
        counts = count_calls(monkeypatch, ("eigh", "eigvalsh"))
        run_validation_suite(cases=40, seed=2024)
        assert counts["eigh"] <= 30
        assert counts["eigvalsh"] <= 10

    def test_nan_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(reference, "state_fidelity", lambda ch, state: math.nan)
        checks = {check.name: check for check in run_validation_suite(cases=3, seed=1)}
        failed = [name for name, check in checks.items() if not check.passed]
        assert failed == ["fidelity kernel vs dense Kraus fidelity"]

    def test_nan_in_one_kraus_operator_fails_the_kraus_sums(self, monkeypatch):
        # The sums of a block run as one stack; a NaN in one case must still surface.
        def planted(channels, _original=reference._kraus_matrices):
            kraus = _original(channels)
            kraus[1, 0, 0] = math.nan
            return kraus

        monkeypatch.setattr(reference, "_kraus_matrices", planted)
        checks = {check.name: check for check in run_validation_suite(cases=3, seed=1)}
        failed = {name for name, check in checks.items() if not check.passed}
        assert {"Kraus completeness", "Kraus unitality"} <= failed

    def test_survival_check_is_one_array_call(self, monkeypatch):
        # The survival check draws its drives as rows: one closed-form call for
        # all of them and no LambdaParams per drive.
        closed_calls, params_built = [], [0]

        def counted_closed(omega_eff, *args):
            closed_calls.append(np.ndim(omega_eff))
            return bright_survival_amplitude(omega_eff, *args)

        def counted_params(*args, **kwargs):
            params_built[0] += 1
            return LambdaParams(*args, **kwargs)

        monkeypatch.setattr(reference, "bright_survival_amplitude", counted_closed)
        monkeypatch.setattr(reference, "LambdaParams", counted_params)
        cases = 40
        run_validation_suite(cases=cases, seed=3)
        assert closed_calls == [1]
        # One per random case (per-case checks and collapse check) and one per cyclic drive.
        assert params_built[0] == cases + max(4, cases // 10) + max(10, cases // 4)

    def test_peak_memory_is_bounded_by_the_block(self):
        tracemalloc.start()
        try:
            run_validation_suite(cases=400, max_spins=BRUTE_FORCE_MAX_COLLAPSED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_rejects_cases_over_the_cap_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_VALIDATION_CASES"):
                run_validation_suite(cases=MAX_VALIDATION_CASES + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("name, value, minimum", [
        ("cases", True, 1), ("cases", 2.5, 1), ("cases", 0, 1),
        ("max_spins", 2.5, 1), ("max_spins", np.float64(3.0), 1),
        ("seed", 1.5, 0), ("seed", -1, 0),
    ])
    def test_counts_must_be_integers(self, name, value, minimum):
        # The count rule of SpinBath, SweepConfig and fidelity_curve: a bool
        # does not run a one-case suite, and a float is a ValueError.
        message = f"{name} must be an integer of at least {minimum}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_validation_suite(**{name: value})
