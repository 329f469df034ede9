"""Acceptance suite: every headline number at its stated tolerance.

Each test prints one [PASS]/[FAIL] line with the measured values (run with
``pytest tests/test_acceptance.py -v -s`` to see them all).
"""

import csv
import math
import time

import numpy as np

from holobath.channel import (
    InputState,
    average_fidelity,
    build_channel,
    fidelity_curve,
    state_fidelity,
)
from holobath.error_model import ErrorParams
from holobath.lambda_system import LambdaParams, bright_dark_states, bright_survival_amplitude
from holobath.reference import (
    channel_output_state,
    expm_hermitian,
    full_evolution,
    kraus_fidelity,
    kraus_matrices,
    raw_error_hamiltonian,
    trace_distance,
)
from holobath.spin_bath import SpinBath
from holobath.sweep import reproduce

PARAMS = LambdaParams(omega=1.0, delta=2.0)
ALPHA_NS_INV = 15.0e3
EPS_VALUES = (0.1, 0.15, 0.2)
FIG2_SPINS = (16, 22, 28)


def report(ok: bool, name: str, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def bath(n_spins: int, temperature_k: float) -> SpinBath:
    return SpinBath.from_temperature(n_spins, ALPHA_NS_INV, temperature_k)


def read_optima(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_criterion_1_rotation_angle():
    rotation = math.pi - PARAMS.chi
    exact = math.pi * (1.0 - 2.0 / math.sqrt(8.0))
    ok = abs(rotation - 0.29 * math.pi) < 0.005 * math.pi and abs(rotation - exact) < 1e-12
    report(ok, "criterion 1 (rotation angle)",
           f"pi - chi = {rotation / math.pi:.6f} pi, quoted ~0.29 pi (tol 0.005 pi)")


def test_criterion_2_zero_error_zero_coupling_identity():
    worst = 0.0
    for n_spins, temperature in ((1, 10.0), (20, 50.0), (20, 300.0), (48, 1000.0)):
        ch = build_channel(PARAMS, ErrorParams(), bath(n_spins, temperature), 0.0)
        worst = max(worst, abs(average_fidelity(ch) - 1.0))
    report(worst < 1e-12, "criterion 2 (zero-error, zero-coupling identity)",
           f"max |F_av - 1| = {worst:.2e} over (N, T) combinations (tol 1e-12)")


def test_criterion_3_bath_free_error_baseline():
    start = time.perf_counter()
    values = [
        average_fidelity(build_channel(PARAMS, ErrorParams.symmetric(e), bath(20, 50.0), 0.0))
        for e in EPS_VALUES
    ]
    elapsed = time.perf_counter() - start
    monotone = all(a > b for a, b in zip(values, values[1:]))
    span_ok = abs(min(values) - 0.955) <= 0.005 and abs(max(values) - 0.986) <= 0.005
    ok = monotone and span_ok and elapsed < 1.0
    report(ok, "criterion 3 (bath-free baseline)",
           f"F_av(gamma=0) = {[f'{100 * v:.2f}%' for v in values]} for eps = {EPS_VALUES}, "
           f"quoted span [95.5%, 98.6%] +/- 0.5 pp, decreasing; {elapsed:.2f} s (< 1 s)")


def test_criterion_4_fig1_left_reproduction(tmp_path):
    start = time.perf_counter()
    rep = reproduce("fig1_left", out_dir=str(tmp_path))
    elapsed = time.perf_counter() - start
    rows = read_optima(tmp_path / "fig1_left_optima.csv")
    stars = [float(row["bath_gamma_star_ns_inv"]) for row in rows]
    peaks = [float(row["bath_f_av_star"]) for row in rows]
    beta_alpha = bath(20, 50.0).beta_alpha
    gamma_ok = all(abs(s - 2.8) <= 0.2 for s in stars)
    fid_ok = all(0.973 - 0.005 <= f <= 0.974 + 0.005 for f in peaks)
    ok = rep.passed and gamma_ok and fid_ok and elapsed < 30.0
    report(ok, "criterion 4 (Fig. 1 left reproduction)",
           f"gamma* = {[f'{s:.3f}' for s in stars]} ns^-1 (quoted 2.8 +/- 0.2), "
           f"F_av* = {[f'{100 * f:.2f}%' for f in peaks]} (quoted 97.3-97.4% +/- 0.5 pp), "
           f"beta*alpha = {beta_alpha:.6f}; {elapsed:.1f} s (< 30 s)")


def test_criterion_5_fig2_reproduction(tmp_path):
    start = time.perf_counter()
    rep = reproduce("fig2", out_dir=str(tmp_path))
    elapsed = time.perf_counter() - start
    rows = read_optima(tmp_path / "fig2_optima.csv")
    stars = [float(row["bath_gamma_star_ns_inv"]) for row in rows]
    spread = (max(stars) - min(stars)) / (sum(stars) / len(stars))
    band_ok = all(2.74 - 0.05 <= s <= 2.80 + 0.05 for s in stars)
    ok = rep.passed and band_ok and spread < 0.03 and elapsed < 60.0
    report(ok, "criterion 5 (Fig. 2 reproduction)",
           f"gamma* = {[f'{s:.3f}' for s in stars]} ns^-1 for N = {FIG2_SPINS} "
           f"(quoted [2.74, 2.80] +/- 0.05), spread = {100 * spread:.2f}% (< 3%); "
           f"{elapsed:.1f} s (< 60 s)")


def test_criterion_6_channel_matches_full_evolution():
    rng = np.random.default_rng(20240615)
    worst = 0.0
    cases = 0
    for _ in range(100):
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
        b = SpinBath(
            n_spins=int(rng.integers(1, 9)), alpha=alpha, beta=rng.uniform(0.0, 5.0) / alpha
        )
        gamma = rng.uniform(0.0, 8.0)
        state = InputState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        ch = build_channel(p, e, b, gamma)
        worst = max(
            worst,
            trace_distance(channel_output_state(ch, state), full_evolution(p, e, b, gamma, state)),
        )
        cases += 1
    # a few at the experimental bath scale alpha = 15 ps^-1
    for n_spins in (4, 8):
        for gamma in (0.0, 2.8, 8.0):
            b = bath(n_spins, 50.0)
            e = ErrorParams.symmetric(0.2)
            state = InputState(2.0, 0.7)
            ch = build_channel(PARAMS, e, b, gamma)
            worst = max(
                worst,
                trace_distance(
                    channel_output_state(ch, state), full_evolution(PARAMS, e, b, gamma, state)
                ),
            )
            cases += 1
    report(worst < 1e-10, "criterion 6 (channel vs system-bath oracle)",
           f"max trace distance = {worst:.2e} over {cases} randomized cases, N <= 8 (tol 1e-10)")


def _figure_channels():
    """Every channel configuration used by criteria 3-5."""
    gammas = np.arange(0.0, 8.0 + 1e-9, 0.05)
    for eps in EPS_VALUES:
        yield build_channel(PARAMS, ErrorParams.symmetric(eps), bath(20, 50.0), 0.0)
    for eps in EPS_VALUES:
        b = bath(20, 50.0)
        for gamma in gammas:
            yield build_channel(PARAMS, ErrorParams.symmetric(eps), b, float(gamma))
    for n_spins in FIG2_SPINS:
        b = bath(n_spins, 50.0)
        for gamma in gammas:
            yield build_channel(PARAMS, ErrorParams.symmetric(0.2), b, float(gamma))


def test_criterion_7_completeness_and_unitality():
    worst_complete = 0.0
    worst_unital = 0.0
    count = 0
    identity = np.eye(3)
    for ch in _figure_channels():
        kraus = kraus_matrices(ch)
        worst_complete = max(
            worst_complete,
            np.max(np.abs(np.einsum("mji,mjk->ik", kraus.conj(), kraus) - identity)),
        )
        worst_unital = max(
            worst_unital,
            np.max(np.abs(np.einsum("mij,mkj->ik", kraus, kraus.conj()) - identity)),
        )
        count += 1
    ok = worst_complete < 1e-12 and worst_unital < 1e-12
    report(ok, "criterion 7 (Kraus completeness and unitality)",
           f"max completeness defect = {worst_complete:.2e}, max unitality defect = "
           f"{worst_unital:.2e} over {count} channels from criteria 3-5 (tol 1e-12)")


def test_criterion_8_fidelity_paths_and_symmetries():
    worst_agreement = 0.0
    worst_xi = 0.0
    worst_dark = 0.0
    for eps in (0.1, 0.2):
        for temperature in (50.0, 300.0):
            b = bath(20, temperature)
            for gamma in (0.0, 1.4, 2.8, 5.0):
                ch = build_channel(PARAMS, ErrorParams.symmetric(eps), b, gamma)
                kraus = kraus_matrices(ch)
                varthetas, analytic = fidelity_curve(ch)
                direct = np.array([kraus_fidelity(ch, kraus, InputState(v)) for v in varthetas])
                worst_agreement = max(worst_agreement, np.max(np.abs(analytic - direct)))
                for vartheta in (0.9, 2.2):
                    base = kraus_fidelity(ch, kraus, InputState(vartheta, 0.0))
                    for xi in np.linspace(0.0, 2.0 * math.pi, 9):
                        diff = abs(
                            kraus_fidelity(ch, kraus, InputState(vartheta, float(xi))) - base
                        )
                        worst_xi = max(worst_xi, diff)
                worst_dark = max(worst_dark, abs(state_fidelity(ch, InputState(0.0)) - 1.0))
    ok = worst_agreement < 1e-12 and worst_xi < 1e-12 and worst_dark < 1e-12
    report(ok, "criterion 8 (fidelity paths and symmetries)",
           f"analytic-vs-matrix = {worst_agreement:.2e}, xi-independence = {worst_xi:.2e}, "
           f"dark-state |F(0) - 1| = {worst_dark:.2e} (all tol 1e-12)")


def test_criterion_9_closed_form_vs_dense_exponential():
    rng = np.random.default_rng(90125)
    worst = 0.0
    for _ in range(1000):
        omega_eff = rng.uniform(1e-6, 10.0)
        shift = rng.uniform(-10.0, 10.0)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        closed = bright_survival_amplitude(omega_eff, shift, PARAMS.delta0)
        frame = LambdaParams(omega=omega_eff, delta=shift, theta=theta, phi=phi)
        u = expm_hermitian(raw_error_hamiltonian(frame, ErrorParams()), PARAMS.tau0)
        _, b = bright_dark_states(frame)
        worst = max(worst, abs(closed - b.conj() @ u @ b))
    report(worst < 1e-10, "criterion 9 (closed form vs dense exponential)",
           f"max |amplitude difference| = {worst:.2e} over 1000 random "
           f"(omega', D) in (0, 10] x [-10, 10] (tol 1e-10)")


def test_fig1_right_qualitative_temperature_dependence(tmp_path):
    # No quoted optimum at 300 K: assert only that the operating point moves
    # by more than the grid step relative to the 50 K value.
    rep = reproduce("fig1_right", out_dir=str(tmp_path))
    rows = read_optima(tmp_path / "fig1_right_optima.csv")
    stars = [float(row["bath_gamma_star_ns_inv"]) for row in rows]
    ok = rep.passed and all(abs(s - 2.8) > 0.05 for s in stars)
    report(ok, "Fig. 1 right (qualitative)",
           f"gamma*(300 K) = {[f'{s:.3f}' for s in stars]} ns^-1, all differing from the "
           f"50 K optimum 2.8 ns^-1 by more than the 0.05 grid step")
