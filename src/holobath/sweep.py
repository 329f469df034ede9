"""Coupling-strength sweeps, optimum location, CSV emission, figure reproduction.

A sweep evaluates the sin-weighted average fidelity on a gamma grid for one or
more error settings.  Each setting gets one channel over the whole grid, so
the thermal weights are computed once and the fidelity kernel runs once per
curve; values are formatted to 12 significant digits, which makes the emitted
CSV byte-identical for identical configurations.

Two optima matter for a fidelity curve: the refined global maximum (which sits
at gamma = 0 whenever the bath cannot beat the bare errored gate) and the best
*interior* local maximum, the bath-assisted operating point one would actually
tune to.  Both are reported.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import average_fidelity, build_channel
from .error_model import ErrorParams
from .lambda_system import LambdaParams, require_finite
from .spin_bath import SpinBath

__all__ = [
    "GammaGrid",
    "SweepConfig",
    "CurveOptimum",
    "SweepResult",
    "run_sweep",
    "optimize_gamma",
    "golden_section_maximize",
    "refine_global_optimum",
    "refine_interior_optimum",
    "reproduce",
    "ReproduceReport",
    "FIGURES",
]

REFINE_TOL = 1e-4  # golden-section bracket width (ns^-1)
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class GammaGrid:
    """Inclusive arithmetic grid start, start+step, ..., up to stop."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        require_finite(self, ("start", "stop", "step"))
        if not self.step > 0.0:
            raise ValueError(f"gamma grid step must be positive, got {self.step}")
        if self.stop < self.start:
            raise ValueError(
                f"gamma grid is empty: stop {self.stop} lies below start {self.start}"
            )

    def values(self) -> np.ndarray:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return self.start + self.step * np.arange(count)


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to evaluate F_av(gamma) for one or more error settings."""

    params: LambdaParams
    error_settings: tuple[ErrorParams, ...]
    bath: SpinBath
    grid: GammaGrid
    n_states: int = 30

    def __post_init__(self):
        if isinstance(self.error_settings, ErrorParams):
            object.__setattr__(self, "error_settings", (self.error_settings,))
        if not self.error_settings:
            raise ValueError("at least one error setting is required")
        if self.n_states < 3:
            raise ValueError(f"n_states must be at least 3, got {self.n_states}")

    def labels(self) -> list[str]:
        return [_setting_label(e, i) for i, e in enumerate(self.error_settings)]


def _setting_label(e: ErrorParams, index: int) -> str:
    if e.is_symmetric and e.zeta0 == 0.0:
        if e.kappa == e.epsilon0:
            return f"eps_{e.epsilon0:g}"
        return f"eps_{e.epsilon0:g}_kap_{e.kappa:g}"
    return f"set{index + 1}"


@dataclass(frozen=True)
class CurveOptimum:
    """Located maximum of one F_av(gamma) curve."""

    label: str
    gamma_star: float
    f_av_star: float
    on_boundary: bool


@dataclass(frozen=True)
class SweepResult:
    """Tabulated sweep: one fidelity column per error setting plus grid optima."""

    config: SweepConfig
    gammas: np.ndarray
    curves: np.ndarray  # shape (n_settings, n_gammas)
    labels: tuple[str, ...]
    grid_optima: tuple[CurveOptimum, ...]

    def metadata_lines(self) -> list[str]:
        cfg = self.config
        bath = cfg.bath
        lines = [
            f"tool: holobath {__version__}",
            f"omega_ns_inv: {_fmt(cfg.params.omega)}",
            f"delta_ns_inv: {_fmt(cfg.params.delta)}",
            f"theta_rad: {_fmt(cfg.params.theta)}",
            f"phi_rad: {_fmt(cfg.params.phi)}",
            f"n_spins: {bath.n_spins}",
            f"alpha_ns_inv: {_fmt(bath.alpha)}",
            f"beta_ns: {_fmt(bath.beta)}",
        ]
        if bath.temperature_k is not None:
            lines.append(f"temperature_K: {_fmt(bath.temperature_k)}")
        lines.append(f"beta_alpha: {_fmt(bath.beta_alpha)}")
        lines.append(
            f"gamma_grid_ns_inv: {_fmt(cfg.grid.start)}:{_fmt(cfg.grid.stop)}:{_fmt(cfg.grid.step)}"
        )
        lines.append(f"n_states: {cfg.n_states}")
        for label, e in zip(self.labels, cfg.error_settings):
            lines.append(
                f"errors[{label}]: epsilon0={_fmt(e.epsilon0)} epsilon1={_fmt(e.epsilon1)} "
                f"zeta0_rad={_fmt(e.zeta0)} zeta1_rad={_fmt(e.zeta1)} kappa={_fmt(e.kappa)}"
            )
        return lines

    def to_csv_text(self) -> str:
        return format_curves_csv(self.gammas, self.curves, self.labels, self.metadata_lines())

    def write_csv(self, path) -> None:
        _write_text(path, self.to_csv_text())


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def format_curves_csv(gammas, curves, labels, metadata_lines) -> str:
    lines = [f"# {line}" for line in metadata_lines]
    lines.append("gamma_ns_inv," + ",".join(f"f_av_{label}" for label in labels))
    for j, gamma in enumerate(gammas):
        row = [_fmt(gamma)] + [_fmt(curves[i][j]) for i in range(len(labels))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!s}: {exc}") from exc


def _f_av(cfg: SweepConfig, errors: ErrorParams, gamma):
    """F_av for one error setting at a scalar gamma or over a gamma array."""
    return average_fidelity(build_channel(cfg.params, errors, cfg.bath, gamma), cfg.n_states)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate F_av on the grid for every error setting.

    Builds exactly one channel per error setting, spanning the whole grid;
    the result is deterministic.
    """
    gammas = cfg.grid.values()
    labels = cfg.labels()
    curves = np.array([_f_av(cfg, errors, gammas) for errors in cfg.error_settings])

    optima = []
    for label, values in zip(labels, curves):
        best = int(np.argmax(values))
        optima.append(
            CurveOptimum(
                label=label,
                gamma_star=float(gammas[best]),
                f_av_star=float(values[best]),
                on_boundary=best in (0, gammas.size - 1),
            )
        )
    return SweepResult(
        config=cfg,
        gammas=gammas,
        curves=curves,
        labels=tuple(labels),
        grid_optima=tuple(optima),
    )


def golden_section_maximize(f, lo: float, hi: float, tol: float = REFINE_TOL):
    """Golden-section search for the maximum of a unimodal f on [lo, hi].

    Returns (x, f(x)) once the bracket width drops below tol.
    """
    width = hi - lo
    if width <= tol:
        mid = 0.5 * (lo + hi)
        return mid, f(mid)
    a = lo + INV_PHI2 * width
    b = lo + INV_PHI * width
    fa, fb = f(a), f(b)
    steps = int(math.ceil(math.log(tol / width) / math.log(INV_PHI)))
    for _ in range(steps):
        if fa > fb:
            hi, b, fb = b, a, fa
            width = hi - lo
            a = lo + INV_PHI2 * width
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            width = hi - lo
            b = lo + INV_PHI * width
            fb = f(b)
    if fa > fb:
        return a, fa
    return b, fb


def refine_global_optimum(f, gammas: np.ndarray, values: np.ndarray, label: str,
                          tol: float = REFINE_TOL) -> CurveOptimum:
    """Grid argmax refined by golden-section search on the bracketing interval.

    A maximum on the first or last grid point cannot be bracketed; it is
    returned as-is with the boundary flag raised (the true optimum may lie
    outside the scanned range).
    """
    best = int(np.argmax(values))
    if best in (0, gammas.size - 1):
        return CurveOptimum(label, float(gammas[best]), float(values[best]), on_boundary=True)
    x, fx = golden_section_maximize(f, float(gammas[best - 1]), float(gammas[best + 1]), tol)
    if values[best] > fx:  # keep the grid point if refinement did not improve
        x, fx = float(gammas[best]), float(values[best])
    return CurveOptimum(label, x, fx, on_boundary=False)


def refine_interior_optimum(f, gammas: np.ndarray, values: np.ndarray, label: str,
                            tol: float = REFINE_TOL) -> CurveOptimum | None:
    """Best interior local maximum, refined; None when the curve has none.

    This is the bath-assisted operating point: the strongest peak away from
    the grid edges, even when the gamma = 0 boundary value is globally higher.
    """
    candidates = [
        i
        for i in range(1, gammas.size - 1)
        if values[i] >= values[i - 1] and values[i] >= values[i + 1]
    ]
    if not candidates:
        return None
    best = max(candidates, key=lambda i: values[i])
    x, fx = golden_section_maximize(f, float(gammas[best - 1]), float(gammas[best + 1]), tol)
    if values[best] > fx:
        x, fx = float(gammas[best]), float(values[best])
    return CurveOptimum(label, x, fx, on_boundary=False)


def optimize_gamma(cfg: SweepConfig, result: SweepResult | None = None) -> list[CurveOptimum]:
    """Refined global optimum of F_av(gamma) for every error setting.

    Runs the grid sweep first (unless one is supplied), then polishes each
    argmax by golden-section search until the bracket is narrower than 1e-4.
    """
    if result is None:
        result = run_sweep(cfg)
    out = []
    for errors, label, values in zip(cfg.error_settings, result.labels, result.curves):
        f = functools.partial(_f_av, cfg, errors)
        out.append(refine_global_optimum(f, result.gammas, values, label))
    return out


# --- figure reproduction -----------------------------------------------------

FIGURES = ("fig1_left", "fig1_right", "fig2")

FIGURE_GRID = GammaGrid(0.0, 8.0, 0.05)
FIGURE_PARAMS = LambdaParams(omega=1.0, delta=2.0, theta=math.pi / 2, phi=0.0)
FIGURE_ALPHA_NS_INV = 15.0e3  # 15 ps^-1
FIGURE_ERRORS = tuple(ErrorParams.symmetric(v) for v in (0.1, 0.15, 0.2))

# Quoted reference numbers the reproduction is compared against.
QUOTED_GAMMA_STAR_50K = 2.8  # ns^-1, +/- 0.2
QUOTED_GAMMA_TOL = 0.2
QUOTED_FSTAR_BAND = (0.973, 0.974)  # +/- 0.005 at the optimum
QUOTED_F_TOL = 0.005
QUOTED_BASELINE_BAND = (0.955, 0.986)  # gamma = 0 span over the error range
QUOTED_FIG2_BAND = (2.74, 2.80)  # ns^-1, +/- 0.05
QUOTED_FIG2_GAMMA_TOL = 0.05
QUOTED_FIG2_SPREAD = 0.03


@dataclass(frozen=True)
class ReproduceReport:
    """Outcome of one figure reproduction."""

    figure: str
    csv_path: str
    optima_path: str
    lines: tuple[str, ...]
    passed: bool


def _figure_config(n_spins: int, temperature_k: float,
                   errors: tuple[ErrorParams, ...]) -> SweepConfig:
    return SweepConfig(
        params=FIGURE_PARAMS,
        error_settings=errors,
        bath=SpinBath.from_temperature(n_spins, FIGURE_ALPHA_NS_INV, temperature_k),
        grid=FIGURE_GRID,
        n_states=30,
    )


def _optima_csv(rows: list[dict]) -> str:
    header = (
        "curve,gamma_star_ns_inv,f_av_star,on_boundary,"
        "bath_gamma_star_ns_inv,bath_f_av_star"
    )
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row["curve"],
                    _fmt(row["global"].gamma_star),
                    _fmt(row["global"].f_av_star),
                    str(int(row["global"].on_boundary)),
                    _fmt(row["bath"].gamma_star) if row["bath"] else "",
                    _fmt(row["bath"].f_av_star) if row["bath"] else "",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _locate_optima(cfg: SweepConfig, result: SweepResult) -> list[dict]:
    rows = []
    for errors, label, values in zip(cfg.error_settings, result.labels, result.curves):
        f = functools.partial(_f_av, cfg, errors)
        rows.append(
            {
                "curve": label,
                "global": refine_global_optimum(f, result.gammas, values, label),
                "bath": refine_interior_optimum(f, result.gammas, values, label),
            }
        )
    return rows


def _check(lines: list[str], ok: bool, text: str) -> bool:
    lines.append(f"[{'PASS' if ok else 'FAIL'}] {text}")
    return ok


def reproduce(figure: str, out_dir: str = ".") -> ReproduceReport:
    """Run one baked-in figure configuration end to end.

    Writes the sweep CSV plus a summary CSV of optima into ``out_dir`` and
    returns a report comparing the measured optima against the quoted
    reference numbers, with one pass/fail line per tolerance.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose one of {FIGURES}")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{figure}.csv")
    optima_path = os.path.join(out_dir, f"{figure}_optima.csv")
    lines: list[str] = []
    ok = True

    if figure in ("fig1_left", "fig1_right"):
        temperature = 50.0 if figure == "fig1_left" else 300.0
        cfg = _figure_config(20, temperature, FIGURE_ERRORS)
        result = run_sweep(cfg)
        result.write_csv(csv_path)
        rows = _locate_optima(cfg, result)
        _write_text(optima_path, _optima_csv(rows))

        lines.append(
            f"{figure}: N=20, alpha=15 ps^-1, T={temperature:g} K, "
            f"beta*alpha={cfg.bath.beta_alpha:.6f}"
        )
        baseline = [float(curve[0]) for curve in result.curves]
        for row, base in zip(rows, baseline):
            bath_opt = row["bath"]
            lines.append(
                f"  {row['curve']}: bath optimum gamma*={bath_opt.gamma_star:.4f} ns^-1, "
                f"F_av*={100 * bath_opt.f_av_star:.3f}%  (gamma=0: {100 * base:.3f}%)"
                if bath_opt
                else f"  {row['curve']}: no interior optimum; "
                f"global gamma*={row['global'].gamma_star:.4f}"
            )

        if figure == "fig1_left":
            for row in rows:
                bath_opt = row["bath"]
                if bath_opt is None:
                    ok &= _check(lines, False, f"{row['curve']}: interior optimum exists")
                    continue
                ok &= _check(
                    lines,
                    abs(bath_opt.gamma_star - QUOTED_GAMMA_STAR_50K) <= QUOTED_GAMMA_TOL,
                    f"{row['curve']}: gamma* within {QUOTED_GAMMA_STAR_50K} +/- "
                    f"{QUOTED_GAMMA_TOL} ns^-1 (measured {bath_opt.gamma_star:.4f})",
                )
                ok &= _check(
                    lines,
                    QUOTED_FSTAR_BAND[0] - QUOTED_F_TOL
                    <= bath_opt.f_av_star
                    <= QUOTED_FSTAR_BAND[1] + QUOTED_F_TOL,
                    f"{row['curve']}: F_av* within [{100 * QUOTED_FSTAR_BAND[0]:.1f}, "
                    f"{100 * QUOTED_FSTAR_BAND[1]:.1f}]% +/- {100 * QUOTED_F_TOL:.1f} pp "
                    f"(measured {100 * bath_opt.f_av_star:.3f}%)",
                )
            span_ok = (
                abs(min(baseline) - QUOTED_BASELINE_BAND[0]) <= QUOTED_F_TOL
                and abs(max(baseline) - QUOTED_BASELINE_BAND[1]) <= QUOTED_F_TOL
                and all(a > b for a, b in zip(baseline, baseline[1:]))
            )
            ok &= _check(
                lines,
                span_ok,
                "gamma=0 baseline spans "
                f"[{100 * QUOTED_BASELINE_BAND[0]:.1f}, {100 * QUOTED_BASELINE_BAND[1]:.1f}]% "
                f"+/- {100 * QUOTED_F_TOL:.1f} pp, decreasing in the error size "
                f"(measured {[f'{100 * b:.2f}%' for b in baseline]})",
            )
        else:
            # No quoted optimum at 300 K: assert only that the operating point
            # moved by more than the grid step relative to the 50 K value.
            for row in rows:
                bath_opt = row["bath"]
                if bath_opt is None:
                    ok &= _check(lines, False, f"{row['curve']}: interior optimum exists")
                    continue
                ok &= _check(
                    lines,
                    abs(bath_opt.gamma_star - QUOTED_GAMMA_STAR_50K) > cfg.grid.step,
                    f"{row['curve']}: gamma*(300 K) differs from the 50 K optimum "
                    f"{QUOTED_GAMMA_STAR_50K} ns^-1 by more than the grid step "
                    f"(measured {bath_opt.gamma_star:.4f})",
                )
    else:  # fig2
        errors = (ErrorParams.symmetric(0.2),)
        spins = (16, 22, 28)
        curves = []
        rows = []
        gammas = FIGURE_GRID.values()
        meta = None
        for n_spins in spins:
            cfg = _figure_config(n_spins, 50.0, errors)
            result = run_sweep(cfg)
            curves.append(result.curves[0])
            label = f"N{n_spins}"
            row = _locate_optima(cfg, result)[0]
            row["curve"] = label
            rows.append(row)
            meta = result.metadata_lines()
        labels = [f"N{n}" for n in spins]
        meta = [line for line in meta if not line.startswith("n_spins")]
        meta.insert(1, f"n_spins: {','.join(str(n) for n in spins)}")
        _write_text(csv_path, format_curves_csv(gammas, curves, labels, meta))
        _write_text(optima_path, _optima_csv(rows))

        lines.append("fig2: eps=kappa=0.2, T=50 K, N in {16, 22, 28}")
        stars = []
        for row in rows:
            bath_opt = row["bath"]
            stars.append(bath_opt.gamma_star if bath_opt else math.nan)
            lines.append(
                f"  {row['curve']}: bath optimum gamma*={bath_opt.gamma_star:.4f} ns^-1, "
                f"F_av*={100 * bath_opt.f_av_star:.3f}%"
                if bath_opt
                else f"  {row['curve']}: no interior optimum"
            )
        lo = QUOTED_FIG2_BAND[0] - QUOTED_FIG2_GAMMA_TOL
        hi = QUOTED_FIG2_BAND[1] + QUOTED_FIG2_GAMMA_TOL
        in_band = all(lo <= s <= hi for s in stars)
        ok &= _check(
            lines,
            in_band,
            f"all gamma* within [{QUOTED_FIG2_BAND[0]}, {QUOTED_FIG2_BAND[1]}] ns^-1 "
            f"+/- {QUOTED_FIG2_GAMMA_TOL} (measured {[f'{s:.4f}' for s in stars]})",
        )
        spread = (max(stars) - min(stars)) / (sum(stars) / len(stars))
        ok &= _check(
            lines,
            spread < QUOTED_FIG2_SPREAD,
            f"gamma* spread below {100 * QUOTED_FIG2_SPREAD:.0f}% "
            f"(measured {100 * spread:.2f}%)",
        )

    lines.append(f"wrote {csv_path}")
    lines.append(f"wrote {optima_path}")
    return ReproduceReport(
        figure=figure,
        csv_path=csv_path,
        optima_path=optima_path,
        lines=tuple(lines),
        passed=ok,
    )
