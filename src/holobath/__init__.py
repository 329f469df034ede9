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

from .channel import average_fidelity, build_channel
from .error_model import ErrorParams
from .lambda_system import LambdaParams
from .reference import run_validation_suite
from .spin_bath import SpinBath
from .sweep import GammaGrid, SweepConfig, optimize_gamma, reproduce, run_sweep

__all__ = [
    "__version__",
    "LambdaParams",
    "ErrorParams",
    "SpinBath",
    "build_channel",
    "average_fidelity",
    "GammaGrid",
    "SweepConfig",
    "run_sweep",
    "optimize_gamma",
    "reproduce",
    "run_validation_suite",
]
