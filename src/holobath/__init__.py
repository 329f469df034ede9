"""Bath-assisted holonomic quantum maps for a driven three-level system.

A square pulse pair drives an off-resonant Lambda system whose excited level
is coupled to a finite thermal spin bath.  Tracing out the bath turns the
errored holonomic gate into a unital Kraus channel; tuning the system-bath
coupling strength can reduce the sensitivity of the gate fidelity to
systematic pulse errors.  This package builds that channel, evaluates the
average gate fidelity against the ideal holonomic gate, sweeps and optimizes
the coupling strength, and cross-validates everything against brute-force
references.
"""

__version__ = "0.1.0"

from .channel import (
    HolonomicChannel,
    InputState,
    average_fidelity,
    build_channel,
    fidelity_curve,
    state_fidelity,
)
from .error_model import ErrorParams, apply_errors
from .lambda_system import (
    LambdaParams,
    bright_dark_states,
    bright_survival_amplitude,
    ideal_gate,
)
from .reference import (
    expm_hermitian,
    find_cyclic_time,
    full_evolution,
    run_validation_suite,
    trace_distance,
)
from .spin_bath import (
    KB_OVER_HBAR_NS_INV_PER_K,
    SpinBath,
    beta_from_temperature,
    thermal_weights,
)
from .sweep import (
    CurveOptimum,
    GammaGrid,
    SweepConfig,
    SweepResult,
    optimize_gamma,
    reproduce,
    run_sweep,
)

__all__ = [
    "__version__",
    "LambdaParams",
    "bright_dark_states",
    "bright_survival_amplitude",
    "ideal_gate",
    "ErrorParams",
    "apply_errors",
    "SpinBath",
    "KB_OVER_HBAR_NS_INV_PER_K",
    "beta_from_temperature",
    "thermal_weights",
    "InputState",
    "HolonomicChannel",
    "build_channel",
    "state_fidelity",
    "average_fidelity",
    "fidelity_curve",
    "expm_hermitian",
    "full_evolution",
    "find_cyclic_time",
    "trace_distance",
    "run_validation_suite",
    "GammaGrid",
    "SweepConfig",
    "SweepResult",
    "CurveOptimum",
    "run_sweep",
    "optimize_gamma",
    "reproduce",
]
