"""Command-line interface: sweeps, optimization, figure reproduction, validation.

Every physical quantity carries its unit in the flag name (``--omega-ns-inv``,
``--alpha-ps-inv``, ``--temperature-k``) to keep the mixed ns/ps scales
honest.  Flags may also be supplied through a flat ``key = value`` config file
(same names with underscores, ``#`` comments); explicit flags win over the
file, which wins over the built-in defaults.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .channel import _sin_weighted_average, build_channel, fidelity_curve
from .error_model import ErrorParams
from .lambda_system import LambdaParams
from .reference import find_cyclic_time, run_validation_suite
from .spin_bath import SpinBath
from .sweep import (
    FIGURE_SPECS,
    GammaGrid,
    SweepConfig,
    optimize_gamma,
    reproduce,
    run_sweep,
)

DEFAULTS = {
    "omega_ns_inv": 1.0,
    "delta_ns_inv": 2.0,
    "theta_rad": math.pi / 2,
    "phi_rad": 0.0,
    "n_spins": 20,
    "alpha_ps_inv": 15.0,
    "temperature_k": 50.0,
    "beta_ns": None,
    "gamma_start_ns_inv": 0.0,
    "gamma_stop_ns_inv": 8.0,
    "gamma_step_ns_inv": 0.05,
    "gamma_ns_inv": 0.0,
    "n_states": 30,
    "eps_kappa": None,
    "epsilon0": None,
    "epsilon1": None,
    "zeta0_rad": None,
    "zeta1_rad": None,
    "kappa": None,
    "output": None,
}

_INT_KEYS = {"n_spins", "n_states"}
_LIST_KEYS = {"eps_kappa"}
_STR_KEYS = {"output"}


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file into typed option values."""
    out = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw, where=f"{path}:{lineno}")
    return out


def _coerce(key: str, raw: str, where: str):
    try:
        if key in _STR_KEYS:
            return raw
        if key in _LIST_KEYS:
            return [float(part) for part in raw.split(",") if part.strip()]
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{where}: cannot parse {key} value {raw!r}: {exc}") from exc


def gather_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and explicit flags (in that precedence)."""
    merged = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        merged.update(load_config_file(config_path))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def build_params(opts: dict) -> LambdaParams:
    return LambdaParams(
        omega=opts["omega_ns_inv"],
        delta=opts["delta_ns_inv"],
        theta=opts["theta_rad"],
        phi=opts["phi_rad"],
    )


def build_bath(opts: dict) -> SpinBath:
    alpha = opts["alpha_ps_inv"] * 1000.0  # ps^-1 -> ns^-1
    if opts["beta_ns"] is not None:
        return SpinBath(n_spins=opts["n_spins"], alpha=alpha, beta=opts["beta_ns"])
    return SpinBath.from_temperature(opts["n_spins"], alpha, opts["temperature_k"])


def build_error_settings(opts: dict) -> tuple[ErrorParams, ...]:
    individual = [opts[key] for key in ("epsilon0", "epsilon1", "zeta0_rad", "zeta1_rad", "kappa")]
    if opts["eps_kappa"] is not None:
        if any(value is not None for value in individual):
            raise ValueError("--eps-kappa cannot be combined with individual error flags")
        return tuple(ErrorParams.symmetric(value) for value in opts["eps_kappa"])
    if any(value is not None for value in individual):
        return (
            ErrorParams(
                epsilon0=opts["epsilon0"] or 0.0,
                epsilon1=opts["epsilon1"] or 0.0,
                zeta0=opts["zeta0_rad"] or 0.0,
                zeta1=opts["zeta1_rad"] or 0.0,
                kappa=opts["kappa"] or 0.0,
            ),
        )
    return (ErrorParams(),)


def build_sweep_config(opts: dict) -> SweepConfig:
    return SweepConfig(
        params=build_params(opts),
        error_settings=build_error_settings(opts),
        bath=build_bath(opts),
        grid=GammaGrid(
            opts["gamma_start_ns_inv"], opts["gamma_stop_ns_inv"], opts["gamma_step_ns_inv"]
        ),
        n_states=opts["n_states"],
    )


def _add_physics_flags(parser: argparse.ArgumentParser, grid: bool = True) -> None:
    group = parser.add_argument_group("physics")
    group.add_argument("--config", help="flat key = value config file")
    group.add_argument("--omega-ns-inv", type=float, dest="omega_ns_inv",
                       help="Rabi amplitude (ns^-1, default 1)")
    group.add_argument("--delta-ns-inv", type=float, dest="delta_ns_inv",
                       help="detuning (ns^-1, default 2)")
    group.add_argument("--theta-rad", type=float, dest="theta_rad",
                       help="mixing angle (rad, default pi/2)")
    group.add_argument("--phi-rad", type=float, dest="phi_rad",
                       help="relative pulse phase (rad, default 0)")
    group.add_argument("--n-spins", type=int, dest="n_spins",
                       help="bath size N (default 20)")
    group.add_argument("--alpha-ps-inv", type=float, dest="alpha_ps_inv",
                       help="bath level splitting (ps^-1, default 15)")
    group.add_argument("--temperature-k", type=float, dest="temperature_k",
                       help="bath temperature (K, default 50)")
    group.add_argument("--beta-ns", type=float, dest="beta_ns",
                       help="inverse temperature (ns); overrides --temperature-k")
    group.add_argument("--n-states", type=int, dest="n_states",
                       help="input states in the fidelity average (default 30)")
    errors = parser.add_argument_group("error settings")
    errors.add_argument("--eps-kappa", type=float, action="append", dest="eps_kappa",
                        metavar="VALUE",
                        help="symmetric setting epsilon0=epsilon1=kappa=VALUE; repeatable "
                             "for multi-curve runs")
    errors.add_argument("--epsilon0", type=float, dest="epsilon0",
                        help="relative amplitude error on the |0>-|e> drive")
    errors.add_argument("--epsilon1", type=float, dest="epsilon1",
                        help="relative amplitude error on the |1>-|e> drive")
    errors.add_argument("--zeta0-rad", type=float, dest="zeta0_rad",
                        help="phase error on the |0>-|e> drive (rad)")
    errors.add_argument("--zeta1-rad", type=float, dest="zeta1_rad",
                        help="phase error on the |1>-|e> drive (rad)")
    errors.add_argument("--kappa", type=float, dest="kappa",
                        help="relative detuning error")
    if grid:
        grp = parser.add_argument_group("gamma grid")
        grp.add_argument("--gamma-start-ns-inv", type=float, dest="gamma_start_ns_inv",
                         help="grid start (ns^-1, default 0)")
        grp.add_argument("--gamma-stop-ns-inv", type=float, dest="gamma_stop_ns_inv",
                         help="grid stop, inclusive (ns^-1, default 8)")
        grp.add_argument("--gamma-step-ns-inv", type=float, dest="gamma_step_ns_inv",
                         help="grid step (ns^-1, default 0.05)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holobath",
        description="Bath-assisted holonomic maps: fidelity sweeps over the "
                    "system-bath coupling strength.",
    )
    parser.add_argument("--version", action="version", version=f"holobath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate F_av on a gamma grid and write CSV")
    _add_physics_flags(p_sweep)
    p_sweep.add_argument("--output", dest="output", help="CSV output path (default sweep.csv)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("optimize", help="locate the optimal coupling strength")
    _add_physics_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_fid = sub.add_parser("fidelity", help="single-point F(vartheta) table and F_av")
    _add_physics_flags(p_fid, grid=False)
    p_fid.add_argument("--gamma-ns-inv", type=float, dest="gamma_ns_inv",
                       help="coupling strength (ns^-1, default 0)")
    p_fid.set_defaults(func=cmd_fidelity)

    p_rep = sub.add_parser("reproduce", help="run a baked-in figure configuration")
    p_rep.add_argument("figure", choices=FIGURE_SPECS)
    p_rep.add_argument("--out-dir", default=".", help="directory for the CSV output")
    p_rep.set_defaults(func=cmd_reproduce)

    p_val = sub.add_parser("validate", help="brute-force cross-checks of the fast paths")
    p_val.add_argument("--cases", type=int, default=40, help="random cases (default 40)")
    p_val.add_argument("--seed", type=int, default=2024)
    p_val.add_argument("--max-spins", type=int, default=8, dest="max_spins")
    p_val.set_defaults(func=cmd_validate)

    return parser


def cmd_sweep(args) -> int:
    opts = gather_options(args)
    result = run_sweep(build_sweep_config(opts))
    path = opts["output"] or "sweep.csv"
    result.write_csv(path)
    print(f"wrote {path} ({result.gammas.size} grid points x {len(result.labels)} curves)")
    for opt in result.grid_optima:
        note = "  [on grid boundary]" if opt.on_boundary else ""
        print(
            f"  {opt.label}: grid optimum gamma*={opt.gamma_star:.4f} ns^-1, "
            f"F_av*={100 * opt.f_av_star:.4f}%{note}"
        )
    return 0


def cmd_optimize(args) -> int:
    opts = gather_options(args)
    cfg = build_sweep_config(opts)
    for opt in optimize_gamma(cfg):
        note = ("  [warning: optimum on grid boundary; the true optimum may lie outside "
                "the scanned range]") if opt.on_boundary else ""
        print(f"{opt.label}: gamma*={opt.gamma_star:.6f} ns^-1, "
              f"F_av*={100 * opt.f_av_star:.4f}%{note}")
    return 0


def cmd_fidelity(args) -> int:
    opts = gather_options(args)
    params = build_params(opts)
    bath = build_bath(opts)
    settings = build_error_settings(opts)
    if len(settings) != 1:
        raise ValueError("fidelity evaluates a single error setting; pass --eps-kappa once")
    gamma = opts["gamma_ns_inv"]
    ch = build_channel(params, settings[0], bath, gamma)
    # Evaluate before printing, so a rejected input leaves stdout empty.
    varthetas, values = fidelity_curve(ch, opts["n_states"])
    f_av = _sin_weighted_average(varthetas, values)
    eff = ch.effective
    print(f"tau0_ns = {params.tau0:.9f}   chi_rad = {params.chi:.9f}")
    print(
        f"effective drive: omega'={eff.omega:.6f} ns^-1, delta'={eff.delta:.6f} ns^-1, "
        f"theta'={eff.theta:.6f} rad, phi'={eff.phi:.6f} rad"
    )
    print(f"errored cyclic time tau0'_ns = {find_cyclic_time(eff):.9f} (diagnostic)")
    print(f"bath: N={bath.n_spins}, beta*alpha={bath.beta_alpha:.6f}, gamma={gamma:g} ns^-1")
    print("vartheta_rad,fidelity")
    for vartheta, value in zip(varthetas, values):
        print(f"{vartheta:.6f},{value:.12f}")
    print(f"F_av (n={opts['n_states']}) = {f_av:.12f}")
    return 0


def cmd_reproduce(args) -> int:
    report = reproduce(args.figure, out_dir=args.out_dir)
    for line in report.lines:
        print(line)
    return 0 if report.passed else 1


def cmd_validate(args) -> int:
    checks = run_validation_suite(cases=args.cases, seed=args.seed, max_spins=args.max_spins)
    width = max(len(check.name) for check in checks)
    failed = False
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name:<{width}}  worst={check.worst:.3e}  "
              f"threshold={check.threshold:.0e}")
        failed |= not check.passed
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
