"""The three benchmark workloads: their inputs, their CLI calls and their gates.

Every workload drives the public entry point ``holobath.cli.main`` in-process.
``prepare`` turns the workload seed into CLI argument lists (the program only
ever sees those flags), ``calls`` runs one timed iteration, and ``check``
returns the correctness gates of that iteration as ``(label, ok)`` pairs.
Gates run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from holobath import cli
from holobath.error_model import ErrorParams
from holobath.lambda_system import LambdaParams

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
FIGURES = ("fig1_left", "fig1_right", "fig2")
FIGURES_REFERENCE = os.path.join(HERE, "figures_reference.json")

REFINE_TOL = 1e-4  # the seed commit's bracket width, kept apart from the program's
F_STAR_TOL = 1e-12
SLICE_TOL = 1e-12
# optimize prints F_av* in percent with 4 decimals: half a unit of 1e-6.
PRINTED_F_RESOLUTION = 5e-7

# Asymmetric workload: the figure drive, bath and grid, one setting per call.
ASYM_SETTINGS = 3
ASYM_PARAMS = {"omega_ns_inv": 1.0, "delta_ns_inv": 2.0, "theta_rad": math.pi / 2,
               "phi_rad": 0.0}
ASYM_N_SPINS = 20
ASYM_ALPHA_PS_INV = 15.0
ASYM_TEMPERATURE_K = 50.0
ASYM_GRID = (0.0, 8.0, 0.05)
ASYM_EXTRA_POINTS = 2  # grid points checked against the oracle besides gamma*

VALIDATE_CASES = 40
VALIDATE_SUITES = 8


@dataclass
class Call:
    """One CLI invocation: its arguments, exit code and captured stdout.

    ``code`` is None when ``main`` raised instead of returning.
    """

    argv: list[str]
    code: int | None
    stdout: str
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.code == 0


def call_cli(argv: list[str]) -> Call:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return Call(argv, exc.code if isinstance(exc.code, int) else 2, out.getvalue(),
                    f"SystemExit({exc.code!r})")
    except Exception as exc:  # noqa: BLE001 - any crash is a failed operation
        return Call(argv, None, out.getvalue(), repr(exc))
    return Call(argv, code, out.getvalue())


def _status_lines(text: str) -> tuple[int, int]:
    lines = text.splitlines()
    return (sum(line.startswith("[PASS]") for line in lines),
            sum(line.startswith("[FAIL]") for line in lines))


def _all_pass(call: Call) -> bool:
    passed, failed = _status_lines(call.stdout)
    return passed > 0 and failed == 0


# --- figures ------------------------------------------------------------------

def figure_outputs(out_dir: str, figure: str) -> dict:
    """SHA-256 of the sweep CSV and the parsed optima CSV of one reproduction."""
    with open(os.path.join(out_dir, f"{figure}.csv"), "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    rows = []
    with open(os.path.join(out_dir, f"{figure}_optima.csv"), encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        for line in handle:
            row = dict(zip(header, line.strip().split(",")))
            rows.append({key: (value if key == "curve" else float(value) if value else None)
                         for key, value in row.items()})
    return {"csv_sha256": digest, "optima": rows}


def _optima_match(got: list[dict], want: list[dict]) -> bool:
    if [r["curve"] for r in got] != [r["curve"] for r in want]:
        return False
    for g, w in zip(got, want):
        if g["on_boundary"] != w["on_boundary"]:
            return False
        for gamma_key, f_key in (("gamma_star_ns_inv", "f_av_star"),
                                 ("bath_gamma_star_ns_inv", "bath_f_av_star")):
            if (g[gamma_key] is None) != (w[gamma_key] is None):
                return False
            if w[gamma_key] is None:
                continue
            if abs(g[gamma_key] - w[gamma_key]) > REFINE_TOL:
                return False
            if abs(g[f_key] - w[f_key]) > F_STAR_TOL:
                return False
    return True


class Figures:
    """`holobath reproduce` for fig1_left, fig1_right and fig2.

    The figure configurations are fixed by the paper, so the seed is unused.
    """

    name = "figures"

    def __init__(self, seed: int):
        with open(FIGURES_REFERENCE, encoding="utf-8") as handle:
            self.reference = json.load(handle)

    def prepare(self, out_dir: str) -> list[list[str]]:
        return [["reproduce", figure, "--out-dir", out_dir] for figure in FIGURES]

    def check(self, calls: list[Call], out_dir: str) -> list[tuple[str, bool]]:
        gates = []
        for figure, call in zip(FIGURES, calls):
            gates.append((f"{figure}: every check line is [PASS]", _all_pass(call)))
            want = self.reference[figure]
            try:
                got = figure_outputs(out_dir, figure)
            except (OSError, ValueError):
                gates.append((f"{figure}: CSV bytes match the recorded digest", False))
                gates.append((f"{figure}: optima match the recorded values", False))
                continue
            gates.append((f"{figure}: CSV bytes match the recorded digest",
                          got["csv_sha256"] == want["csv_sha256"]))
            gates.append((f"{figure}: optima match the recorded values",
                          _optima_match(got["optima"], want["optima"])))
        return gates


# --- asymmetric ---------------------------------------------------------------

_OPTIMUM = re.compile(r"gamma\*=([-+0-9.eE]+|nan|inf) ns\^-1, F_av\*=([-+0-9.eE]+|nan|inf)%")
_FAV = re.compile(r"^F_av \(n=\d+\) = (\S+)$", re.MULTILINE)


def _physics_flags() -> list[str]:
    flags = []
    for key, value in ASYM_PARAMS.items():
        flags += [f"--{key.replace('_', '-')}", repr(value)]
    flags += ["--n-spins", str(ASYM_N_SPINS), "--alpha-ps-inv", repr(ASYM_ALPHA_PS_INV),
              "--temperature-k", repr(ASYM_TEMPERATURE_K)]
    return flags


def _error_flags(e: ErrorParams) -> list[str]:
    return ["--epsilon0", repr(e.epsilon0), "--epsilon1", repr(e.epsilon1),
            "--zeta0-rad", repr(e.zeta0), "--zeta1-rad", repr(e.zeta1),
            "--kappa", repr(e.kappa)]


class Asymmetric:
    """`holobath optimize` for asymmetric error settings drawn from the seed.

    epsilon0, epsilon1 and kappa come from U[0.15, 0.2] and zeta0 from
    U[-0.3, 0.3], with zeta1 = 0: the global optimum is then interior, so the
    golden-section refinement runs on the direct (non-symmetric) path.
    """

    name = "asymmetric"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.settings = []
        for _ in range(ASYM_SETTINGS):
            eps0, eps1, kappa = (float(x) for x in rng.uniform(0.15, 0.2, 3))
            zeta0 = float(rng.uniform(-0.3, 0.3))
            self.settings.append(ErrorParams(epsilon0=eps0, epsilon1=eps1, zeta0=zeta0,
                                             zeta1=0.0, kappa=kappa))
        start, stop, step = ASYM_GRID
        n_grid = int(round((stop - start) / step)) + 1
        self.extra_gammas = [
            [f"{start + step * int(i):.2f}"
             for i in rng.choice(n_grid, ASYM_EXTRA_POINTS, replace=False)]
            for _ in self.settings
        ]
        self.params = LambdaParams(omega=ASYM_PARAMS["omega_ns_inv"],
                                   delta=ASYM_PARAMS["delta_ns_inv"],
                                   theta=ASYM_PARAMS["theta_rad"], phi=ASYM_PARAMS["phi_rad"])
        grid = ["--gamma-start-ns-inv", repr(start), "--gamma-stop-ns-inv", repr(stop),
                "--gamma-step-ns-inv", repr(step)]
        self.argvs = [["optimize"] + _physics_flags() + grid + _error_flags(e)
                      for e in self.settings]
        self._checked: set[tuple[int, str]] = set()
        self._slices: dict[tuple[int, str], np.ndarray] = {}

    def prepare(self, out_dir: str) -> list[list[str]]:
        return self.argvs

    def slices(self, index: int, gamma: str) -> np.ndarray:
        key = (index, gamma)
        if key not in self._slices:
            self._slices[key] = oracle.slice_averages(
                self.params, self.settings[index], ASYM_N_SPINS, ASYM_ALPHA_PS_INV * 1000.0,
                ASYM_TEMPERATURE_K, float(gamma))
        return self._slices[key]

    def _point_gates(self, index: int, gamma: str) -> list[tuple[str, bool]]:
        """Oracle gate at one gamma, read through `holobath fidelity`.

        Outputs repeat exactly between iterations, so each point is checked
        once per run; later iterations add no gates for it.
        """
        key = (index, gamma)
        if key in self._checked:
            return []
        self._checked.add(key)
        argv = (["fidelity"] + _physics_flags() + _error_flags(self.settings[index])
                + ["--gamma-ns-inv", gamma])
        call = call_cli(argv)
        match = _FAV.search(call.stdout)
        in_range = call.ok and match is not None
        if in_range:
            f_av = float(match.group(1))
            sl = self.slices(index, gamma)
            in_range = sl.min() - SLICE_TOL <= f_av <= sl.max() + SLICE_TOL
        return [
            (f"set{index + 1}: `fidelity` at gamma={gamma} exits 0", call.ok),
            (f"set{index + 1}: F_av at gamma={gamma} within the oracle's xi-slice range",
             in_range),
        ]

    def check(self, calls: list[Call], out_dir: str) -> list[tuple[str, bool]]:
        gates = []
        for index, call in enumerate(calls):
            label = f"set{index + 1}"
            match = _OPTIMUM.search(call.stdout)
            if match is None:
                gates.append((f"{label}: optimum printed", False))
                continue
            gamma = match.group(1)
            f_star = float(match.group(2)) / 100.0
            gates.append((f"{label}: F_av* finite and in [0, 1]",
                          math.isfinite(f_star) and 0.0 <= f_star <= 1.0))
            gates.append((f"{label}: optimum is interior (refinement ran)",
                          "grid boundary" not in call.stdout))
            if not math.isfinite(float(gamma)):
                gates.append((f"{label}: gamma* finite", False))
                continue
            sl = self.slices(index, gamma)
            tol = PRINTED_F_RESOLUTION + SLICE_TOL
            gates.append((f"{label}: printed F_av* within the oracle's xi-slice range",
                          sl.min() - tol <= f_star <= sl.max() + tol))
            for point in [gamma] + self.extra_gammas[index]:
                gates.extend(self._point_gates(index, point))
        return gates


# --- validate -----------------------------------------------------------------

class Validate:
    """`holobath validate --cases 40` for VALIDATE_SUITES suite seeds drawn from the seed.

    The random cases of one suite set its cost: at 40 cases, suite times
    differ by up to 1.5x between seeds.  Several suites per iteration average
    that out, so the metrics follow the code rather than the seed.
    """

    name = "validate"

    def __init__(self, seed: int):
        suite_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, VALIDATE_SUITES)
        self.argvs = [["validate", "--cases", str(VALIDATE_CASES), "--seed", str(s)]
                      for s in suite_seeds]

    def prepare(self, out_dir: str) -> list[list[str]]:
        return self.argvs

    def check(self, calls: list[Call], out_dir: str) -> list[tuple[str, bool]]:
        return [("validate: every check line is [PASS]", _all_pass(call)) for call in calls]


WORKLOADS = {cls.name: cls for cls in (Figures, Asymmetric, Validate)}
