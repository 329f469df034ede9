"""Command-line interface: sweeps, optimization, figure reproduction, validation.

Every physical quantity carries its unit in the flag name (``--omega-ns-inv``,
``--alpha-ps-inv``, ``--temperature-k``) to keep the mixed ns/ps scales
honest.  The defaults are the fig1_left configuration of
:mod:`holobath.sweep`, with zero errors.  ``holobath sweep @run.args`` reads
arguments from ``run.args``, one per line, in the place of ``@run.args``; the
last value of a flag wins.

One parser per process, built on the first command line, parses every later
one and holds data only: :func:`main` looks ``cmd_<command>`` up by name at
call time.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import re
import sys

from . import __version__
from .channel import N_INPUT_STATES, build_channel, curve_average, fidelity_curve
from .error_model import ErrorParams
from .lambda_system import LambdaParams
from .reference import BRUTE_FORCE_MAX_COLLAPSED, run_validation_suite
from .spin_bath import SpinBath
from .sweep import (
    FIGURE_ALPHA_NS_INV,
    FIGURE_GRID,
    FIGURE_PARAMS,
    FIGURE_SPECS,
    GammaGrid,
    SweepConfig,
    optimize_gamma,
    reproduce,
    run_sweep,
)


# The error flags other than --eps-kappa, by argparse dest; without "_rad"
# they are the ErrorParams fields.
_INDIVIDUAL_ERROR_KEYS = ("epsilon0", "epsilon1", "zeta0_rad", "zeta1_rad", "kappa")


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line with the process's one parser.

    An ``@file`` argument stands for the file's lines, one argument per
    line, so a flag given after it overrides the file's value.
    """
    return _shared_parser().parse_args(argv)


def build_params(args: argparse.Namespace) -> LambdaParams:
    return LambdaParams(
        omega=args.omega_ns_inv,
        delta=args.delta_ns_inv,
        theta=args.theta_rad,
        phi=args.phi_rad,
    )


def build_bath(args: argparse.Namespace) -> SpinBath:
    # alpha: ps^-1 -> ns^-1
    return SpinBath.from_temperature(args.n_spins, args.alpha_ps_inv * 1000.0, args.temperature_k)


def build_error_settings(args: argparse.Namespace) -> tuple[ErrorParams, ...]:
    given = {key.removesuffix("_rad"): getattr(args, key) for key in _INDIVIDUAL_ERROR_KEYS
             if getattr(args, key) is not None}
    if args.eps_kappa is not None:
        if given:
            raise ValueError("--eps-kappa cannot be combined with individual error flags")
        return tuple(ErrorParams.symmetric(value) for value in args.eps_kappa)
    return (ErrorParams(**given),)


def build_sweep_config(args: argparse.Namespace) -> SweepConfig:
    return SweepConfig(
        params=build_params(args),
        error_settings=build_error_settings(args),
        bath=build_bath(args),
        grid=GammaGrid(args.gamma_start_ns_inv, args.gamma_stop_ns_inv, args.gamma_step_ns_inv),
    )


def _add_physics_flags(parser: argparse.ArgumentParser, grid: bool = True) -> None:
    figure = FIGURE_SPECS["fig1_left"]
    group = parser.add_argument_group("physics")
    group.add_argument("--omega-ns-inv", type=float, default=FIGURE_PARAMS.omega,
                       help="Rabi amplitude (ns^-1, default %(default)g)")
    group.add_argument("--delta-ns-inv", type=float, default=FIGURE_PARAMS.delta,
                       help="detuning (ns^-1, default %(default)g)")
    group.add_argument("--theta-rad", type=float, default=FIGURE_PARAMS.theta,
                       help=f"mixing angle (rad, default {FIGURE_PARAMS.theta / math.pi:g}*pi)")
    group.add_argument("--phi-rad", type=float, default=FIGURE_PARAMS.phi,
                       help="relative pulse phase (rad, default %(default)g)")
    group.add_argument("--n-spins", type=int, default=figure.n_spins[0],
                       help="bath size N (default %(default)d)")
    group.add_argument("--alpha-ps-inv", type=float, default=FIGURE_ALPHA_NS_INV / 1000.0,
                       help="bath level splitting (ps^-1, default %(default)g)")
    group.add_argument("--temperature-k", type=float, default=figure.temperature_k,
                       help="bath temperature (K, default %(default)g); 0 is the ground "
                            "state and inf the beta = 0 limit")
    errors = parser.add_argument_group("error settings")
    errors.add_argument("--eps-kappa", type=float, action="append", metavar="VALUE",
                        help="symmetric setting epsilon0=epsilon1=kappa=VALUE; repeatable "
                             "for multi-curve runs")
    errors.add_argument("--epsilon0", type=float,
                        help="relative amplitude error on the |0>-|e> drive")
    errors.add_argument("--epsilon1", type=float,
                        help="relative amplitude error on the |1>-|e> drive")
    errors.add_argument("--zeta0-rad", type=float,
                        help="phase error on the |0>-|e> drive (rad)")
    errors.add_argument("--zeta1-rad", type=float,
                        help="phase error on the |1>-|e> drive (rad)")
    errors.add_argument("--kappa", type=float, help="relative detuning error")
    if grid:
        grp = parser.add_argument_group("gamma grid")
        grp.add_argument("--gamma-start-ns-inv", type=float, default=FIGURE_GRID.start,
                         help="grid start (ns^-1, default %(default)g)")
        grp.add_argument("--gamma-stop-ns-inv", type=float, default=FIGURE_GRID.stop,
                         help="grid stop, inclusive (ns^-1, default %(default)g)")
        grp.add_argument("--gamma-step-ns-inv", type=float, default=FIGURE_GRID.step,
                         help="grid step (ns^-1, default %(default)g)")


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads ``-2e3`` and ``-inf`` as negative numbers, not as flags.

    Python 3.11's argparse takes only ``-12`` and ``-1.5`` for negative
    numbers and would read ``--delta-ns-inv -2e3`` as two flags.  The matcher
    also takes ``-inf``, ``-infinity`` and ``-nan`` in any case, as ``float``
    does.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?i:inf(?:inity)?|nan))$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holobath",
        description="Bath-assisted holonomic maps: fidelity sweeps over the "
                    "system-bath coupling strength.  @FILE reads arguments from "
                    "FILE, one per line.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=f"holobath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate F_av on a gamma grid and write CSV")
    _add_physics_flags(p_sweep)
    p_sweep.add_argument("--output", default="sweep.csv",
                         help="CSV output path (default %(default)s)")

    _add_physics_flags(sub.add_parser("optimize", help="locate the optimal coupling strength"))

    p_fid = sub.add_parser("fidelity", help="single-point F(vartheta) table and F_av")
    _add_physics_flags(p_fid, grid=False)
    p_fid.add_argument("--gamma-ns-inv", type=float, default=0.0,
                       help="coupling strength (ns^-1, default %(default)g)")

    p_rep = sub.add_parser("reproduce", help="run a baked-in figure configuration")
    p_rep.add_argument("figure", choices=FIGURE_SPECS)
    p_rep.add_argument("--out-dir", default=".", help="directory for the CSV output")

    p_val = sub.add_parser("validate", help="brute-force cross-checks of the fast paths")
    p_val.add_argument("--cases", type=int, help="random cases (default %(default)d)")
    p_val.add_argument("--seed", type=int, help="random seed (default %(default)d)")
    p_val.add_argument("--max-spins", type=int,
                       help="largest bath size N drawn, at most BRUTE_FORCE_MAX_COLLAPSED = "
                            f"{BRUTE_FORCE_MAX_COLLAPSED} (default %(default)d)")
    suite = inspect.signature(run_validation_suite).parameters
    p_val.set_defaults(**{name: p.default for name, p in suite.items()})

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use and never mutated."""
    return build_parser()


def cmd_sweep(args) -> int:
    result = run_sweep(build_sweep_config(args))
    result.write_csv(args.output)
    print(f"wrote {args.output} ({result.gammas.size} grid points x {len(result.labels)} curves)")
    for opt in result.grid_optima:
        note = "  [on grid boundary]" if opt.on_boundary else ""
        print(
            f"  {opt.label}: grid optimum gamma*={opt.gamma_star:.4f} ns^-1, "
            f"F_av*={100 * opt.f_av_star:.4f}%{note}"
        )
    return 0


def cmd_optimize(args) -> int:
    for opt in optimize_gamma(build_sweep_config(args)):
        note = ("  [warning: optimum on grid boundary; the true optimum may lie outside "
                "the scanned range]") if opt.on_boundary else ""
        print(f"{opt.label}: gamma*={opt.gamma_star:.6f} ns^-1, "
              f"F_av*={100 * opt.f_av_star:.4f}%{note}")
    return 0


def cmd_fidelity(args) -> int:
    params = build_params(args)
    bath = build_bath(args)
    settings = build_error_settings(args)
    if len(settings) != 1:
        raise ValueError("fidelity evaluates a single error setting; pass --eps-kappa once")
    ch = build_channel(params, settings[0], bath, args.gamma_ns_inv)
    # Evaluate before printing, so a rejected input leaves stdout empty.
    varthetas, values = fidelity_curve(ch)
    eff = ch.effective
    print(f"tau0_ns = {params.tau0:.9f}   chi_rad = {params.chi:.9f}")
    print(
        f"effective drive: omega'={eff.omega:.6f} ns^-1, delta'={eff.delta:.6f} ns^-1, "
        f"theta'={eff.theta:.6f} rad, phi'={eff.phi:.6f} rad"
    )
    print(f"errored cyclic time tau0'_ns = {eff.tau0:.9f} (diagnostic)")
    print(f"bath: N={bath.n_spins}, beta*alpha={bath.beta_alpha:.6f}, "
          f"gamma={args.gamma_ns_inv:g} ns^-1")
    print("vartheta_rad,fidelity")
    for vartheta, value in zip(varthetas, values):
        print(f"{vartheta:.6f},{value:.12f}")
    print(f"F_av (n={N_INPUT_STATES}) = {curve_average(values):.12f}")
    return 0


def cmd_reproduce(args) -> int:
    report = reproduce(args.figure, args.out_dir)
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
    try:
        args = parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
