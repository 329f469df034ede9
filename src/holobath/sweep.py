"""Coupling-strength sweeps, optimum location, CSV emission, figure reproduction.

A sweep evaluates the sin-weighted average fidelity on a gamma grid for one or
more error settings.  One ``channel._curve`` call per setting, on one channel
over the whole grid, returns the curve and its objective gamma -> F_av: the
effective drive, the thermal weights, the input-state terms, the bath
occupations and the ideal drive's gap delta0 are computed once per curve, so
every golden-section step recomputes only the survival amplitudes, the bath
reduction and ``channel.average_fidelity``, the one F_av reduction.  Values
are formatted to 12 significant digits from Python floats, one list per
column, which makes the emitted CSV byte-identical for identical
configurations.

Two optima matter for a fidelity curve: the global maximum (which sits at
gamma = 0 whenever the bath cannot beat the bare errored gate) and the best
*interior* local maximum, the bath-assisted operating point one would actually
tune to.  A global maximum on a grid edge is reported as that grid point, and
any other is the best interior maximum, so both share one golden-section search.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import MAX_KERNEL_ELEMENTS, N_INPUT_STATES, _curve, build_channel
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
    "refine_interior_optimum",
    "reproduce",
    "ReproduceReport",
    "FIGURE_SPECS",
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
        # Each point is a kernel row, so the kernel's limit bounds the grid too.
        # Checked before values() allocates anything; the span may be inf.
        span = self._span()
        if span >= MAX_KERNEL_ELEMENTS:
            points = math.floor(span) + 1 if math.isfinite(span) else span
            raise ValueError(f"gamma grid has {points} points, "
                             f"more than MAX_KERNEL_ELEMENTS = {MAX_KERNEL_ELEMENTS}")

    def _span(self) -> float:
        """Number of steps from start to stop, plus 1e-9 so a stop on the grid is kept."""
        return (self.stop - self.start) / self.step + 1e-9

    def values(self) -> np.ndarray:
        count = int(math.floor(self._span())) + 1
        return self.start + self.step * np.arange(count)


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to evaluate F_av(gamma) for one or more error settings."""

    params: LambdaParams
    error_settings: tuple[ErrorParams, ...]
    bath: SpinBath
    grid: GammaGrid

    def __post_init__(self):
        if not self.error_settings:
            raise ValueError("at least one error setting is required")
        labels = self.labels()
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"two error settings share the curve label {label!r}")

    def labels(self) -> list[str]:
        return [_setting_label(e, i) for i, e in enumerate(self.error_settings)]


def _setting_label(e: ErrorParams, index: int) -> str:
    """A column name that keeps the setting's 12 significant digits, as the metadata does."""
    if e.is_symmetric and e.zeta0 == 0.0:
        if e.kappa == e.epsilon0:
            return f"eps_{_fmt(e.epsilon0)}"
        return f"eps_{_fmt(e.epsilon0)}_kap_{_fmt(e.kappa)}"
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
        bath, grid = cfg.bath, cfg.grid
        lines = [
            f"tool: holobath {__version__}",
            f"omega_ns_inv: {_fmt(cfg.params.omega)}",
            f"delta_ns_inv: {_fmt(cfg.params.delta)}",
            f"theta_rad: {_fmt(cfg.params.theta)}",
            f"phi_rad: {_fmt(cfg.params.phi)}",
            f"n_spins: {bath.n_spins}",
            f"alpha_ns_inv: {_fmt(bath.alpha)}",
            f"beta_ns: {_fmt(bath.beta)}",
            f"temperature_K: {_fmt(bath.temperature_k)}",
            f"beta_alpha: {_fmt(bath.beta_alpha)}",
            f"gamma_grid_ns_inv: {_fmt(grid.start)}:{_fmt(grid.stop)}:{_fmt(grid.step)}",
            f"n_states: {N_INPUT_STATES}",
        ]
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


_CELL = "{:.12g}"  # every number the CSVs and labels print
_fmt = _CELL.format


def format_curves_csv(gammas, curves, labels, metadata_lines) -> str:
    """Metadata comments, a header and one row per gamma: gamma, then one F_av per label.

    Each column becomes a list of Python floats once, so every row formats
    with one template call and without touching numpy.
    """
    lines = [f"# {line}" for line in metadata_lines]
    lines.append("gamma_ns_inv," + ",".join(f"f_av_{label}" for label in labels))
    columns = [np.asarray(gammas).tolist()]
    columns += [np.asarray(curves[i]).tolist() for i in range(len(labels))]
    row = ",".join([_CELL] * len(columns))
    lines += [row.format(*values) for values in zip(*columns)]
    return "\n".join(lines) + "\n"


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!s}: {exc}") from exc


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate F_av on the grid for every error setting.

    Builds exactly one channel per error setting, spanning the whole grid;
    ``build_channel`` rejects a setting that the kernel cannot compute with
    ValueError.  The result is deterministic.
    """
    return _sweep(cfg)[0]


def _sweep(cfg: SweepConfig) -> tuple[SweepResult, list[Callable]]:
    """:func:`run_sweep`, plus each curve's objective gamma -> F_av for its refinement.

    Both come from one ``_curve`` call per setting, so a curve's grid arrays
    are dropped before the next curve's are built.
    """
    gammas = cfg.grid.values()
    labels = cfg.labels()
    curves, objectives = [], []
    for errors in cfg.error_settings:
        values, f = _curve(build_channel(cfg.params, errors, cfg.bath, gammas))
        curves.append(values)
        objectives.append(f)
    result = SweepResult(
        config=cfg,
        gammas=gammas,
        curves=np.array(curves),
        labels=tuple(labels),
        grid_optima=tuple(_grid_optimum(gammas, v, label) for label, v in zip(labels, curves)),
    )
    return result, objectives


def _grid_optimum(gammas: np.ndarray, values: np.ndarray, label: str) -> CurveOptimum:
    """The grid argmax, flagged when it sits on the first or last grid point."""
    best = int(np.argmax(values))
    on_boundary = best in (0, gammas.size - 1)
    return CurveOptimum(label, float(gammas[best]), float(values[best]), on_boundary)


def golden_section_maximize(f, lo: float, hi: float):
    """Golden-section search for the maximum of a unimodal f on [lo, hi].

    Returns (x, f(x)) once the bracket width drops below REFINE_TOL.
    """
    width = hi - lo
    if width <= REFINE_TOL:
        mid = 0.5 * (lo + hi)
        return mid, f(mid)
    a = lo + INV_PHI2 * width
    b = lo + INV_PHI * width
    fa, fb = f(a), f(b)
    steps = int(math.ceil(math.log(REFINE_TOL / width) / math.log(INV_PHI)))
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


def refine_interior_optimum(f, gammas: np.ndarray, values: np.ndarray,
                            label: str) -> CurveOptimum | None:
    """Best interior local maximum, refined; None when the curve has none.

    This is the bath-assisted operating point: the strongest peak away from
    the grid edges, even when the gamma = 0 boundary value is globally higher.
    """
    v = np.asarray(values).tolist()  # Python floats: the scan reads each value three times
    candidates = [i for i in range(1, gammas.size - 1) if v[i] >= v[i - 1] and v[i] >= v[i + 1]]
    if not candidates:
        return None
    best = max(candidates, key=v.__getitem__)
    x, fx = golden_section_maximize(f, float(gammas[best - 1]), float(gammas[best + 1]))
    if v[best] > fx:  # keep the grid point when the search lands lower
        x, fx = float(gammas[best]), v[best]
    return CurveOptimum(label, x, fx, on_boundary=False)


def optimize_gamma(cfg: SweepConfig) -> list[CurveOptimum]:
    """Refined global optimum of F_av(gamma) for every error setting.

    A grid argmax on the first or last grid point cannot be bracketed and is
    returned as-is, flagged (the true optimum may lie outside the scanned
    range); any other is the best interior maximum, refined to REFINE_TOL.
    """
    result, objectives = _sweep(cfg)
    return [
        grid if grid.on_boundary else refine_interior_optimum(f, result.gammas, values, grid.label)
        for f, values, grid in zip(objectives, result.curves, result.grid_optima)
    ]


# --- figure reproduction -----------------------------------------------------

FIGURE_GRID = GammaGrid(0.0, 8.0, 0.05)
FIGURE_PARAMS = LambdaParams(omega=1.0, delta=2.0)
FIGURE_ALPHA_NS_INV = 15.0e3  # 15 ps^-1
FIGURE_ERRORS = tuple(ErrorParams.symmetric(v) for v in (0.1, 0.15, 0.2))


@dataclass(frozen=True)
class FigureCurve:
    """One reproduced curve: F_av on the figure grid and its refined optima."""

    label: str
    values: np.ndarray
    best: CurveOptimum  # global maximum
    bath: CurveOptimum | None  # best interior maximum, the bath-assisted operating point


@dataclass(frozen=True)
class FigureSpec:
    """One figure: a sweep per bath size, its summary lines and its checks.

    The title is a format template; the bath sizes fix the curves (see
    :func:`reproduce`).  ``checks`` maps the figure's curves to its
    ``(passed, text)`` verdicts against the paper's quoted numbers.
    """

    title: str  # {beta_alpha}
    n_spins: tuple[int, ...]
    temperature_k: float
    errors: tuple[ErrorParams, ...]
    checks: Callable[[list[FigureCurve]], Iterable[tuple[bool, str]]] = lambda curves: ()

    def __post_init__(self):
        if len(self.n_spins) > 1 and len(self.errors) > 1:
            raise ValueError("a figure over several bath sizes takes one error setting")


# The quoted numbers of the paper, each with the tolerance the reproduction allows.
# A curve without an interior optimum already fails in `reproduce`: a per-curve
# check skips it, and fig2 measures its gamma* as NaN.
def _fig1_left_checks(curves: list[FigureCurve]) -> Iterator[tuple[bool, str]]:
    for c in curves:
        if c.bath:
            g, f = c.bath.gamma_star, c.bath.f_av_star
            yield (abs(g - 2.8) <= 0.2,
                   f"{c.label}: gamma* within 2.8 +/- 0.2 ns^-1 (measured {g:.4f})")
            yield (0.973 - 0.005 <= f <= 0.974 + 0.005,
                   f"{c.label}: F_av* within [97.3, 97.4]% +/- 0.5 pp (measured {f:.3%}, "
                   f"{100 * max(f - 0.974, 0.973 - f, 0.0):.3f} pp outside the band)")
    b = [float(c.values[0]) for c in curves]
    yield (abs(min(b) - 0.955) <= 0.005 and abs(max(b) - 0.986) <= 0.005
           and all(x > y for x, y in zip(b, b[1:])),
           "gamma=0 baseline spans [95.5, 98.6]% +/- 0.5 pp, decreasing in "
           f"the error size (measured {[f'{x:.2%}' for x in b]})")


def _fig1_right_checks(curves: list[FigureCurve]) -> Iterator[tuple[bool, str]]:
    # No quoted optimum at 300 K: the operating point has to move away from
    # the 50 K value by more than the grid step.
    for c in curves:
        if c.bath:
            g = c.bath.gamma_star
            yield (abs(g - 2.8) > FIGURE_GRID.step, f"{c.label}: gamma*(300 K) differs from the "
                   f"50 K optimum 2.8 ns^-1 by more than the grid step (measured {g:.4f})")


def _fig2_checks(curves: list[FigureCurve]) -> Iterator[tuple[bool, str]]:
    stars = [c.bath.gamma_star if c.bath else math.nan for c in curves]
    yield (all(2.74 - 0.05 <= s <= 2.80 + 0.05 for s in stars),
           f"all gamma* within [2.74, 2.8] ns^-1 +/- 0.05 (measured {[f'{s:.4f}' for s in stars]})")
    spread = (max(stars) - min(stars)) / (sum(stars) / len(stars))
    yield spread < 0.03, f"gamma* spread below 3% (measured {spread:.2%})"


FIGURE_SPECS = {
    "fig1_left": FigureSpec(
        title="fig1_left: N=20, alpha=15 ps^-1, T=50 K, beta*alpha={beta_alpha:.6f}",
        n_spins=(20,), temperature_k=50.0, errors=FIGURE_ERRORS, checks=_fig1_left_checks),
    "fig1_right": FigureSpec(
        title="fig1_right: N=20, alpha=15 ps^-1, T=300 K, beta*alpha={beta_alpha:.6f}",
        n_spins=(20,), temperature_k=300.0, errors=FIGURE_ERRORS, checks=_fig1_right_checks),
    "fig2": FigureSpec(
        title="fig2: eps=kappa=0.2, T=50 K, N in {{16, 22, 28}}",
        n_spins=(16, 22, 28), temperature_k=50.0, errors=(ErrorParams.symmetric(0.2),),
        checks=_fig2_checks),
}


@dataclass(frozen=True)
class ReproduceReport:
    """Outcome of one figure reproduction."""

    lines: tuple[str, ...]
    passed: bool


def _optima_csv(curves: list[FigureCurve]) -> str:
    lines = ["curve,gamma_star_ns_inv,f_av_star,on_boundary,bath_gamma_star_ns_inv,bath_f_av_star"]
    for c in curves:
        bath = [_fmt(c.bath.gamma_star), _fmt(c.bath.f_av_star)] if c.bath else ["", ""]
        best = [_fmt(c.best.gamma_star), _fmt(c.best.f_av_star), str(int(c.best.on_boundary))]
        lines.append(",".join([c.label] + best + bath))
    return "\n".join(lines) + "\n"


def reproduce(figure: str, out_dir: str) -> ReproduceReport:
    """Run one baked-in figure configuration end to end.

    Writes the sweep CSV plus a summary CSV of optima into ``out_dir`` and
    returns a report comparing the measured optima against the quoted
    reference numbers: a fail line for each curve without an interior
    optimum, then one pass/fail line per verdict of the figure's ``checks``.
    Over one bath size the curves are the error settings, each line ending in
    its gamma = 0 baseline; over several they are ``N<n>``, listed in one CSV
    ``n_spins`` line, with no baseline: at gamma = 0 the bath decouples, so
    every N has it.
    """
    if figure not in FIGURE_SPECS:
        raise ValueError(f"unknown figure {figure!r}; choose one of {tuple(FIGURE_SPECS)}")
    spec = FIGURE_SPECS[figure]
    by_size = len(spec.n_spins) > 1  # one curve per bath size, all in one CSV
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, figure)

    curves = []
    for n_spins in spec.n_spins:
        bath = SpinBath.from_temperature(n_spins, FIGURE_ALPHA_NS_INV, spec.temperature_k)
        cfg = SweepConfig(FIGURE_PARAMS, spec.errors, bath, FIGURE_GRID)
        result, objectives = _sweep(cfg)
        for f, values, grid in zip(objectives, result.curves, result.grid_optima):
            label = f"N{n_spins}" if by_size else grid.label
            interior = refine_interior_optimum(f, result.gammas, values, label)
            # An interior grid maximum is the best interior one, so `interior` refines
            # it; a curve without an interior optimum keeps its grid maximum.
            best = grid if grid.on_boundary or interior is None else interior
            curves.append(FigureCurve(label, values, best, interior))

    meta = result.metadata_lines()  # the last sweep; a figure's sweeps differ only in N
    if by_size:  # the CSV lists its bath sizes in one line
        meta = [line for line in meta if not line.startswith("n_spins")]
        meta.insert(1, f"n_spins: {','.join(str(n) for n in spec.n_spins)}")
    columns, labels = [c.values for c in curves], [c.label for c in curves]
    _write_text(f"{stem}.csv", format_curves_csv(result.gammas, columns, labels, meta))
    _write_text(f"{stem}_optima.csv", _optima_csv(curves))

    lines = [spec.title.format(beta_alpha=cfg.bath.beta_alpha)]
    verdicts = []
    for c in curves:
        if c.bath is None:
            lines.append(f"  {c.label}: no interior optimum; global gamma*={c.best.gamma_star:.4f}")
            verdicts.append((False, f"{c.label}: interior optimum exists"))
            continue
        baseline = "" if by_size else f"  (gamma=0: {float(c.values[0]):.3%})"
        lines.append(f"  {c.label}: bath optimum gamma*={c.bath.gamma_star:.4f} ns^-1, "
                     f"F_av*={c.bath.f_av_star:.3%}{baseline}")
    verdicts += spec.checks(curves)
    lines += [f"[{'PASS' if ok else 'FAIL'}] {text}" for ok, text in verdicts]
    lines += [f"wrote {stem}.csv", f"wrote {stem}_optima.csv"]
    return ReproduceReport(lines=tuple(lines), passed=all(ok for ok, _ in verdicts))
