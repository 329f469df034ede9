"""Independent oracle for the fidelity of asymmetric error settings.

Only two holobath functions are used: ``reference.expm_hermitian`` and
``reference.raw_error_hamiltonian``, the dense brute-force building blocks.
Everything else (dark/bright states, the ideal gate, exact binomial bath
weights and the input-state grid) is written out here, so the oracle shares
no code with ``channel`` or ``lambda_system``.

For asymmetric errors the fidelity F(vartheta, xi) depends on the input phase
xi.  The oracle returns one sin-weighted vartheta average per xi slice.  The
program's F_av must lie within the range of those slice averages: the xi = 0
meridian average and any average over the whole sphere both do.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from holobath.reference import expm_hermitian, raw_error_hamiltonian

KB_OVER_HBAR_NS_INV_PER_K = 1.380649e-23 / 1.054572e-34 * 1e-9
N_XI = 16  # slices at xi = 2*pi*j/N_XI; j = 0 is the xi = 0 meridian


def slice_averages(p, e, n_spins: int, alpha: float, temperature_k: float,
                   gamma: float, n_states: int = 30) -> np.ndarray:
    """Sin-weighted vartheta average of F for each of N_XI input phases xi."""
    tau0 = 2.0 * math.pi / math.hypot(p.delta, 2.0 * p.omega)
    chi = 0.5 * p.delta * tau0
    half = 0.5 * p.theta
    phase = cmath.exp(1j * p.phi)
    dark = np.array([math.cos(half), phase * math.sin(half), 0.0])
    bright = np.array([phase.conjugate() * math.sin(half), -math.cos(half), 0.0])
    excited = np.array([0.0, 0.0, 1.0])
    gate = np.outer(dark, dark.conj()) - cmath.exp(-1j * chi) * (
        np.outer(bright, bright.conj()) + np.outer(excited, excited)
    )

    beta_alpha = alpha / (KB_OVER_HBAR_NS_INV_PER_K * temperature_k)
    levels = range(n_spins + 1)
    boltzmann = np.array([math.comb(n_spins, m) * math.exp(-beta_alpha * m) for m in levels])
    weights = boltzmann / boltzmann.sum()

    h_system = raw_error_hamiltonian(p, e)
    unitaries = []
    for m in levels:
        h = h_system.copy()
        h[2, 2] += gamma * m
        unitaries.append(expm_hermitian(h, tau0))
    unitaries = np.array(unitaries)

    varthetas = np.arange(n_states) * (math.pi / (n_states - 1))
    xis = 2.0 * math.pi * np.arange(N_XI) / N_XI
    c = np.cos(0.5 * varthetas)[:, None, None]
    s = np.sin(0.5 * varthetas)[:, None, None]
    kets = c * dark + np.exp(1j * xis)[None, :, None] * s * bright  # (theta, xi, 3)
    targets = kets @ gate.T
    overlaps = np.einsum("txi,mij,txj->txm", targets.conj(), unitaries, kets)
    fidelity = np.sqrt(np.abs(overlaps) ** 2 @ weights)  # (theta, xi)

    w = np.sin(varthetas)
    w[0] = w[-1] = 0.0
    return w @ fidelity / w.sum()
