"""Finite spin bath: spectrum, multiplicities and thermal weights.

The bath is N independent spin-1/2 with total z-projection S_z.  Its free
Hamiltonian alpha*S_z has levels nu_m = alpha*(m - N/2) with multiplicity
C(N, m), where m = 0..N counts the up spins; the operator coupling to the
system, S_z + N/2, has spectrum m on those same levels.

Unit convention: hbar = 1, energies in ns^-1, times and inverse temperature
beta in ns.  The level splitting alpha is stored in ns^-1 (the CLI accepts the
experimental ps^-1 scale and multiplies by 1000).  Thermal weights are
accumulated in log space so binomial coefficients never overflow; only numpy
and the standard library are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lambda_system import require_count

__all__ = [
    "KB_OVER_HBAR_NS_INV_PER_K",
    "SpinBath",
    "beta_from_temperature",
    "thermal_weights",
]

# CODATA: k_B = 1.380649e-23 J/K (exact), hbar = 1.054572e-34 J*s.
# Their ratio converts Kelvin to ns^-1: ~130.92 ns^-1 per K.
KB_JOULE_PER_K = 1.380649e-23
HBAR_JOULE_S = 1.054572e-34
KB_OVER_HBAR_NS_INV_PER_K = KB_JOULE_PER_K / HBAR_JOULE_S * 1e-9


def beta_from_temperature(temperature_k: float) -> float:
    """Inverse temperature beta (ns) for a temperature in Kelvin."""
    if not temperature_k > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k} K")
    return 1.0 / (KB_OVER_HBAR_NS_INV_PER_K * temperature_k)


@dataclass(frozen=True)
class SpinBath:
    """Bath of ``n_spins`` spin-1/2 with level splitting ``alpha`` at inverse temperature ``beta``.

    beta is the one temperature parameter; :attr:`temperature_k` is read
    from it.  ``alpha`` and ``beta`` are stored as Python floats.
    """

    n_spins: int
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "n_spins", require_count("n_spins", self.n_spins, 1))
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"level splitting alpha must be positive and finite, got {self.alpha}")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def from_temperature(cls, n_spins: int, alpha: float, temperature_k: float) -> "SpinBath":
        return cls(n_spins, alpha, beta_from_temperature(temperature_k))

    @property
    def temperature_k(self) -> float:
        """Temperature 1/(k_B/hbar * beta) in Kelvin: inf at beta = 0 and 0 at beta = inf."""
        return 1.0 / (KB_OVER_HBAR_NS_INV_PER_K * self.beta) if self.beta else math.inf

    @property
    def beta_alpha(self) -> float:
        """Dimensionless thermal parameter beta*alpha."""
        return self.beta * self.alpha

    def occupations(self) -> np.ndarray:
        """Eigenvalues m = 0..N of the system-coupled bath operator S_z + N/2."""
        return np.arange(self.n_spins + 1)

    def log_weights(self) -> np.ndarray:
        """Unnormalized log thermal weights log C(N, m) - beta*alpha*m."""
        n = self.n_spins
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        # log C(N, m) = log N! - log m! - log (N - m)!
        log_binom = log_fact[n] - log_fact - log_fact[::-1]
        # Level m = 0 carries no Boltzmann factor; skipping it keeps beta = inf
        # (T -> 0) at the ground state [1, 0, ..., 0] instead of 0*inf = NaN.
        log_binom[1:] -= self.beta_alpha * np.arange(1, n + 1)
        return log_binom


def thermal_weights(bath: SpinBath) -> np.ndarray:
    """Normalized thermal weights p_m = C(N, m) e^{-beta*alpha*m} / Z, m = 0..N."""
    logw = bath.log_weights()
    w = np.exp(logw - logw.max())
    return w / w.sum()
