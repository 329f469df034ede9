import inspect
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import holobath
import holobath.channel as channel_mod
from holobath import cli, reference
from holobath.error_model import ErrorParams, apply_errors
from holobath.lambda_system import LambdaParams
from holobath.reference import (
    BRUTE_FORCE_MAX_COLLAPSED,
    MAX_VALIDATION_CASES,
    run_validation_suite,
)
from holobath.spin_bath import SpinBath
from holobath.sweep import FIGURE_ALPHA_NS_INV, FIGURE_GRID, FIGURE_PARAMS, SweepConfig


def run_cli(args):
    return cli.main(args)


def args_file(tmp_path, *lines):
    """The ``@file`` argument of a file that holds ``lines``, one argument per line."""
    path = tmp_path / "run.args"
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


class TestErrorSettings:
    def test_default_is_zero_errors(self):
        settings = cli.build_error_settings(cli.build_parser().parse_args(["sweep"]))
        assert settings == (ErrorParams(),)

    def test_eps_kappa_list(self):
        args = cli.build_parser().parse_args(["sweep", "--eps-kappa", "0.1",
                                              "--eps-kappa", "0.15"])
        settings = cli.build_error_settings(args)
        assert [e.epsilon0 for e in settings] == [0.1, 0.15]
        assert all(e.kappa == e.epsilon0 for e in settings)

    def test_individual_flags(self):
        args = cli.build_parser().parse_args(["sweep", "--epsilon0", "0.2", "--kappa", "0.1"])
        (setting,) = cli.build_error_settings(args)
        assert setting.epsilon0 == 0.2 and setting.epsilon1 == 0.0 and setting.kappa == 0.1

    def test_conflicting_flags_rejected(self):
        args = cli.build_parser().parse_args(["sweep", "--eps-kappa", "0.1", "--kappa", "0.3"])
        with pytest.raises(ValueError, match="eps-kappa"):
            cli.build_error_settings(args)


# Every flag of sweep, optimize and fidelity by dest, a value that is not its
# default, and the commands with that flag.
CONFIG_VALUES = [
    ("omega_ns_inv", "1.5", ("sweep", "optimize", "fidelity")),
    ("delta_ns_inv", "2.5", ("sweep", "optimize", "fidelity")),
    ("theta_rad", "1.2", ("sweep", "optimize", "fidelity")),
    ("phi_rad", "0.3", ("sweep", "optimize", "fidelity")),
    ("n_spins", "7", ("sweep", "optimize", "fidelity")),
    ("alpha_ps_inv", "12", ("sweep", "optimize", "fidelity")),
    ("temperature_k", "80", ("sweep", "optimize", "fidelity")),
    ("eps_kappa", "0.125", ("sweep", "optimize", "fidelity")),
    ("epsilon0", "0.1", ("sweep", "optimize", "fidelity")),
    ("epsilon1", "0.2", ("sweep", "optimize", "fidelity")),
    ("zeta0_rad", "0.3", ("sweep", "optimize", "fidelity")),
    ("zeta1_rad", "-0.1", ("sweep", "optimize", "fidelity")),
    ("kappa", "0.05", ("sweep", "optimize", "fidelity")),
    ("gamma_start_ns_inv", "1", ("sweep", "optimize")),
    ("gamma_stop_ns_inv", "3", ("sweep", "optimize")),
    ("gamma_step_ns_inv", "0.25", ("sweep", "optimize")),
    ("output", "other.csv", ("sweep",)),
    ("gamma_ns_inv", "2.8", ("fidelity",)),
]


class TestConfigPrecedence:
    """A run's flags from an ``@file`` and the command line form one argument list."""

    def test_keys_are_the_flags_of_the_config_commands(self):
        commands = {"sweep": set(), "optimize": set(), "fidelity": set()}
        for key, _, names in CONFIG_VALUES:
            for name in names:
                commands[name].add(key)
        for name, keys in commands.items():
            namespace = vars(cli.build_parser().parse_args([name]))
            assert set(namespace) - {"command"} == keys

    @pytest.mark.parametrize("key, value, commands", CONFIG_VALUES,
                             ids=[key for key, _, _ in CONFIG_VALUES])
    def test_file_value_equals_flag_value(self, tmp_path, key, value, commands):
        flag = f"--{key.replace('_', '-')}"
        from_file = args_file(tmp_path, flag, value)
        for command in commands:
            args = vars(cli.parse_args([command, from_file]))
            assert args == vars(cli.parse_args([command, flag, value]))
            assert args[key] != vars(cli.parse_args([command]))[key]

    def test_last_value_wins(self, tmp_path):
        from_file = args_file(tmp_path, "--n-spins", "16")
        assert cli.parse_args(["sweep", from_file, "--n-spins", "28"]).n_spins == 28
        assert cli.parse_args(["sweep", "--n-spins", "28", from_file]).n_spins == 16

    def test_eps_kappa_accumulates_across_the_file_and_the_command_line(self, tmp_path):
        from_file = args_file(tmp_path, "--eps-kappa=0.1", "--eps-kappa=0.2")
        args = cli.parse_args(["optimize", from_file, "--eps-kappa", "0.3"])
        assert cli.build_error_settings(args) == tuple(
            ErrorParams.symmetric(value) for value in (0.1, 0.2, 0.3))

    def test_negative_value_in_exponent_form_is_a_number(self, tmp_path):
        from_file = args_file(tmp_path, "--delta-ns-inv", "-2e3", "--zeta0-rad=-1e-3")
        args = cli.parse_args(["fidelity", from_file])
        assert (args.delta_ns_inv, args.zeta0_rad) == (-2000.0, -1e-3)

    def test_individual_error_flags_merge_across_the_file_and_the_command_line(self, tmp_path):
        args = cli.parse_args(["optimize", args_file(tmp_path, "--kappa=0.2"), "--epsilon0", "0.1"])
        assert cli.build_error_settings(args) == (ErrorParams(epsilon0=0.1, kappa=0.2),)

    def test_both_error_forms_in_one_file_are_an_error(self, tmp_path, capsys):
        from_file = args_file(tmp_path, "--kappa=0.2", "--eps-kappa=0.1", "--zeta0-rad=0.3")
        assert run_cli(["optimize", from_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --eps-kappa cannot be combined with individual error flags\n")

    def test_both_error_forms_on_one_command_line_are_an_error(self, tmp_path, capsys):
        for argv in (["--n-spins", "4", "--eps-kappa", "0.1", "--kappa", "0.2"],
                     [args_file(tmp_path, "--kappa=0.2"), "--eps-kappa", "0.1"]):
            assert run_cli(["optimize", *argv]) == 1
            assert capsys.readouterr().err == (
                "error: --eps-kappa cannot be combined with individual error flags\n")

    def test_readme_example(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        ((block, command),) = re.findall(
            r"`run\.args`:\n\n```\n(.*?)```\n\n```bash\n(holobath .*?)\n```", readme, re.DOTALL)
        (tmp_path / "run.args").write_text(block)
        monkeypatch.chdir(tmp_path)
        assert run_cli(shlex.split(command)[1:]) == 0
        rows = [line for line in Path("o.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0] == "gamma_ns_inv,f_av_eps_0.1,f_av_eps_0.15,f_av_eps_0.2"
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "2", "4", "6", "8"]


class TestFidelityCommand:
    def test_prints_table_and_average(self, capsys):
        code = run_cli(["fidelity", "--eps-kappa", "0.1", "--gamma-ns-inv", "2.8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau0_ns = 2.221441469" in out
        table = out.split("vartheta_rad,fidelity\n")[1].splitlines()
        assert len(table) == 31 and table[-1] == "F_av (n=30) = 0.974333639507"
        assert "beta*alpha=2.291470" in out

    @pytest.mark.parametrize("temperature", ["-1", "nan"])
    def test_negative_or_nan_temperature_is_an_error(self, capsys, temperature):
        assert run_cli(["fidelity", "--temperature-k", temperature]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: temperature must be non-negative, got {float(temperature)} K\n")

    def test_runs_the_fidelity_kernel_once(self, capsys, monkeypatch):
        # The average is taken from the printed table, not from a second run.
        calls = []
        for half in ("_input_terms", "_bath_fidelity"):
            kernel = getattr(channel_mod, half)
            monkeypatch.setattr(channel_mod, half, lambda *args, _half=half, _kernel=kernel:
                                calls.append(_half) or _kernel(*args))
        code = run_cli(["fidelity", "--eps-kappa", "0.1", "--gamma-ns-inv", "2.8"])
        assert code == 0
        assert calls == ["_input_terms", "_bath_fidelity"]

    def test_cyclic_time_runs_no_oracle(self, capsys, monkeypatch):
        # The line prints the errored drive's closed-form tau0, which validate
        # checks against the bisection search; the search itself never runs.
        errored = apply_errors(LambdaParams(omega=1.0, delta=2.0),
                               ErrorParams(epsilon0=0.2, epsilon1=0.15, zeta0=0.3, kappa=0.18))
        expected = (f"errored cyclic time tau0'_ns = "
                    f"{reference.cyclic_times([errored])[0]:.9f} (diagnostic)")

        def refuse(drives):
            raise AssertionError("holobath fidelity ran the cyclic-time search")

        monkeypatch.setattr(reference, "cyclic_times", refuse)
        code = run_cli(["fidelity", "--epsilon0", "0.2", "--epsilon1", "0.15",
                        "--zeta0-rad", "0.3", "--kappa", "0.18", "--gamma-ns-inv", "2.8"])
        assert code == 0
        assert expected in capsys.readouterr().out.splitlines()

    def test_zero_coupling_zero_errors_is_unity(self, capsys):
        code = run_cli(["fidelity"])
        out = capsys.readouterr().out
        assert code == 0
        assert "F_av (n=30) = 1.000000000000" in out

    def test_invalid_physics_fails_cleanly(self, capsys):
        code = run_cli(["fidelity", "--omega-ns-inv", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_non_finite_average_is_an_error(self, capsys):
        code = run_cli(["fidelity", "--delta-ns-inv", "1e308"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: the kernel phases are not finite") and "delta=1e+308" in line

    @pytest.mark.parametrize("args, named", [
        (["--gamma-ns-inv", "1e307"], "gamma=1e+307, N=20"),
        (["--omega-ns-inv", "1e-310", "--delta-ns-inv", "0"], "omega=1e-310, delta=0.0"),
    ])
    def test_phase_overflow_is_rejected_before_the_kernel(self, capsys, args, named):
        # A huge gamma*N, or tau0 = inf, makes a survival phase non-finite.
        code = run_cli(["fidelity", *args])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: the kernel phases are not finite") and named in line

    def test_errored_drive_with_infinite_cyclic_time_is_accepted(self, capsys):
        # Only the ideal tau0 enters the kernel; the errored one is a diagnostic.
        code = run_cli(["fidelity", "--omega-ns-inv", "1e-307", "--delta-ns-inv", "0",
                        "--eps-kappa", "-0.99"])
        out = capsys.readouterr().out
        assert code == 0
        assert "errored cyclic time tau0'_ns = inf (diagnostic)" in out
        assert out.endswith("F_av (n=30) = 0.499876640091\n")

    @pytest.mark.parametrize("flag, value", [("--delta-ns-inv", "-2e3"),
                                             ("--zeta0-rad", "-1e-3"),
                                             ("--gamma-ns-inv", "-1.5E+2")])
    def test_negative_value_in_exponent_form(self, capsys, flag, value):
        # Python 3.11's argparse reads "-2e3" as a flag unless told otherwise.
        assert run_cli(["fidelity", flag, value]) == 0
        spaced = capsys.readouterr().out
        assert run_cli(["fidelity", f"{flag}={value}"]) == 0
        assert capsys.readouterr().out == spaced

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-NAN"])
    def test_negative_infinity_and_nan_are_values_not_flags(self, capsys, value):
        assert run_cli(["fidelity", "--gamma-ns-inv", value]) == 1
        spaced = capsys.readouterr()
        assert run_cli(["fidelity", f"--gamma-ns-inv={value}"]) == 1
        assert capsys.readouterr() == spaced
        assert spaced.out == "" and spaced.err.count("\n") == 1
        assert spaced.err.startswith("error: the kernel phases are not finite at gamma=")

    def test_overflowing_drive_is_rejected_before_the_kernel(self, capsys):
        # No RuntimeWarning filter: the drive's gap is checked in LambdaParams.
        code = run_cli(["fidelity", "--omega-ns-inv", "1e308"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "omega=1e+308" in captured.err

    @pytest.mark.parametrize("args, named", [
        (["--omega-ns-inv", "8.9e307", "--eps-kappa", "0.2"], "8.9e+307"),
        (["--delta-ns-inv", "1.7e308", "--kappa", "0.1"], "1.7e+308"),
    ])
    def test_overflowing_errored_drive_names_the_flags(self, capsys, args, named):
        # No RuntimeWarning filter: the errored drive is checked in apply_errors.
        code = run_cli(["fidelity", *args])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and named in captured.err
        assert "1.068e+308" not in captured.err and "inf" not in captured.err

    def test_rejects_multiple_settings(self, capsys):
        code = run_cli(["fidelity", "--eps-kappa", "0.1", "--eps-kappa", "0.2"])
        assert code == 1
        assert "single error setting" in capsys.readouterr().err

    def test_state_count_flag_is_gone(self, capsys):
        # F_av always averages over the one 30-node rule.
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["fidelity", "--n-states", "5"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --n-states 5" in captured.err


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            [
                "sweep",
                "--eps-kappa", "0.2",
                "--gamma-start-ns-inv", "0",
                "--gamma-stop-ns-inv", "1",
                "--gamma-step-ns-inv", "0.5",
                "--n-spins", "6",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "grid optimum" in stdout

    @pytest.mark.parametrize("temperature, beta, beta_alpha", [
        ("0", "inf", "inf"),
        ("inf", "0", "0"),
    ])
    def test_temperature_limits_in_the_csv(self, tmp_path, capsys, temperature, beta,
                                           beta_alpha):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--temperature-k", temperature, "--n-spins", "4",
                        "--gamma-step-ns-inv", "1", "--output", str(out)]) == 0
        meta = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert meta[7:10] == [f"# beta_ns: {beta}", f"# temperature_K: {temperature}",
                              f"# beta_alpha: {beta_alpha}"]

    def test_close_settings_get_distinct_columns(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--eps-kappa", "0.1234567", "--eps-kappa", "0.1234568",
                        "--n-spins", "4", "--gamma-step-ns-inv", "1", "--output", str(out)])
        assert code == 0
        header = [line for line in out.read_text().splitlines() if line.startswith("gamma")]
        assert header == ["gamma_ns_inv,f_av_eps_0.1234567,f_av_eps_0.1234568"]

    def test_repeated_setting_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--eps-kappa", "0.1", "--eps-kappa", "0.1",
                        "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "eps_0.1" in captured.err
        assert not out.exists()

    def test_config_file_with_override(self, tmp_path, capsys):
        # A flag after the @file overrides the file's value.
        flags = ["--gamma-start-ns-inv=0", "--gamma-stop-ns-inv=2", "--gamma-step-ns-inv=1",
                 "--n-spins=4", "--eps-kappa=0.1"]
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        code = run_cli(["sweep", args_file(tmp_path, *flags), "--gamma-stop-ns-inv", "1",
                        "--output", str(from_file)])
        assert code == 0
        rows = [
            line for line in from_file.read_text().splitlines() if not line.startswith("#")
        ]
        assert len(rows) == 1 + 2  # header + gamma in {0, 1}
        assert run_cli(["sweep", *flags, "--gamma-stop-ns-inv=1", "--output", str(from_flags)]) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_non_finite_curve_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--delta-ns-inv", "1e308", "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: the kernel phases are not finite") and "delta=1e+308" in line
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["sweep", "@/no/such/file.args"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "/no/such/file.args" in captured.err

    def test_unwritable_output(self, tmp_path, capsys):
        code = run_cli(
            [
                "sweep",
                "--gamma-stop-ns-inv", "0",
                "--n-spins", "2",
                "--output", str(tmp_path / "missing" / "out.csv"),
            ]
        )
        assert code == 1
        assert "out.csv" in capsys.readouterr().err

    def test_empty_output_path_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["sweep", "--n-spins", "2", "--gamma-stop-ns-inv", "0", "--output", ""])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestKernelSizeCap:
    @pytest.mark.parametrize("flag", ["--n-spins"])
    def test_huge_counts_are_errors(self, tmp_path, capsys, flag):
        code = run_cli(["sweep", flag, "100000000", "--output", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "MAX_KERNEL_ELEMENTS" in captured.err
        assert not (tmp_path / "out.csv").exists()

    def test_oversized_state_table_is_rejected_before_the_kernel(self, tmp_path, capsys,
                                                                  monkeypatch):
        # 114,286 points x 21 bath levels fit, but the 30-state table does not.
        def unreachable(*args, **kwargs):
            raise AssertionError("survival amplitudes computed before the size check")

        monkeypatch.setattr(channel_mod, "bright_survival_amplitude", unreachable)
        output = tmp_path / "out.csv"
        code = run_cli(["sweep", "--gamma-step-ns-inv", "7e-5", "--n-spins", "20",
                        "--output", str(output)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == ("error: 114286 gamma values x 30 input states is 3428580 kernel "
                        "elements, more than MAX_KERNEL_ELEMENTS = 3000000")
        assert not output.exists()


class TestOptimizeCommand:
    def test_boundary_warning_for_zero_errors(self, capsys):
        code = run_cli(
            [
                "optimize",
                "--gamma-stop-ns-inv", "1",
                "--gamma-step-ns-inv", "0.5",
                "--n-spins", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma*=0.000000" in out
        assert "boundary" in out

    def test_interior_optimum(self, capsys):
        code = run_cli(
            [
                "optimize",
                "--eps-kappa", "0.2",
                "--gamma-start-ns-inv", "2",
                "--gamma-stop-ns-inv", "4",
                "--gamma-step-ns-inv", "0.2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "eps_0.2: gamma*=2.7" in out
        assert "boundary" not in out
        # On the default grid eps = 0.1 peaks at gamma = 0 and is reported as that
        # grid point; eps = 0.2 peaks inside the grid and is refined by one search.
        code = run_cli(["optimize", "--eps-kappa", "0.1", "--eps-kappa", "0.2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0].startswith("eps_0.1: gamma*=0.000000") and "boundary" in lines[0]
        assert lines[1].startswith("eps_0.2: gamma*=2.7") and "boundary" not in lines[1]

    def test_non_finite_curve_is_an_error(self, capsys):
        code = run_cli(["optimize", "--delta-ns-inv", "1e308", "--eps-kappa", "0.1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: the kernel phases are not finite") and "delta=1e+308" in line
        assert "epsilon0=0.1" in line


class TestValidateCommand:
    def test_passes(self, capsys):
        # 100 cases at the default seed span several blocks of stacked cases.
        max_spins = str(BRUTE_FORCE_MAX_COLLAPSED)
        for args in (["--cases", "6", "--seed", "3", "--max-spins", max_spins],
                     ["--cases", "100", "--max-spins", max_spins]):
            code = run_cli(["validate", *args])
            out = capsys.readouterr().out
            assert code == 0
            assert out.count("[PASS]") == 7
            assert "[FAIL]" not in out


    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_rejects_empty_suite(self, capsys, cases):
        # zero cases would print [PASS] for checks that checked nothing
        code = run_cli(["validate", "--cases", cases])
        captured = capsys.readouterr()
        assert code == 1
        assert "[PASS]" not in captured.out
        assert "error:" in captured.err and "cases" in captured.err

    def test_rejects_cases_over_the_cap(self, capsys):
        code = run_cli(["validate", "--cases", str(MAX_VALIDATION_CASES + 1)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: cases must be at most MAX_VALIDATION_CASES")

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-spins", "0", "max_spins must be an integer of at least 1, got 0"),
        ("--max-spins", "-2", "max_spins must be an integer of at least 1, got -2"),
        # Clamping these would run a smaller suite than asked and still print [PASS].
        ("--max-spins", "13", "max_spins must be at most BRUTE_FORCE_MAX_COLLAPSED = "
                              f"{BRUTE_FORCE_MAX_COLLAPSED}, got 13"),
        ("--max-spins", "50", "max_spins must be at most BRUTE_FORCE_MAX_COLLAPSED = "
                              f"{BRUTE_FORCE_MAX_COLLAPSED}, got 50"),
        ("--seed", "-1", "seed must be an integer of at least 0, got -1"),
    ], ids=["max_spins=0", "max_spins=-2", "max_spins=13", "max_spins=50", "seed=-1"])
    def test_rejects_out_of_range_input(self, capsys, flag, value, message):
        code = run_cli(["validate", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def run_python(*args):
    """Run a fresh interpreter with ``args``, importing this checkout's holobath."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(holobath.__file__)))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )


def test_python_m_holobath_runs_the_cli():
    proc = run_python("-m", "holobath", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"holobath {holobath.__version__}\n"


def test_import_leaves_scipy_unloaded():
    # The runtime needs only numpy: scipy, pytest and hypothesis are test
    # dependencies (importing scipy cost ~0.3 s of start-up).
    code = ("import sys, holobath.cli; "
            "loaded = [m for m in ('scipy', 'pytest', 'hypothesis') if m in sys.modules]; "
            "sys.exit(' '.join(loaded) or None)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, f"importing holobath.cli loaded or raised: {proc.stderr}"


def test_import_builds_no_parser():
    # Every fresh interpreter imports holobath.cli; the parser waits for a command line.
    code = ("import argparse; built = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
            "import holobath.cli; at_import = len(built); "
            "holobath.cli.parse_args(['validate']); print(at_import, len(built) > 0)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True\n"


class TestReproduceCommand:
    def test_fig1_left(self, tmp_path, capsys):
        code = run_cli(["reproduce", "fig1_left", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "fig1_left.csv").exists()
        assert "[FAIL]" not in out

    def test_rejects_unknown_figure(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["reproduce", "fig7"])

    def test_missing_interior_optimum_exits_one(self, tmp_path, capsys, monkeypatch):
        original = holobath.sweep.refine_interior_optimum
        monkeypatch.setattr(holobath.sweep, "refine_interior_optimum",
                            lambda f, gammas, values, label: None if label == "eps_0.1"
                            else original(f, gammas, values, label))
        code = run_cli(["reproduce", "fig1_left", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "[FAIL] eps_0.1: interior optimum exists" in capsys.readouterr().out


class TestDefaults:
    def test_sweep_defaults_are_the_fig1_left_configuration(self):
        bath = SpinBath.from_temperature(20, FIGURE_ALPHA_NS_INV, 50.0)
        expected = SweepConfig(FIGURE_PARAMS, (ErrorParams(),), bath, FIGURE_GRID)
        assert cli.build_sweep_config(cli.parse_args(["sweep"])) == expected

    def test_validate_defaults_are_the_suite_defaults(self):
        args = cli.parse_args(["validate"])
        for name, parameter in inspect.signature(run_validation_suite).parameters.items():
            assert getattr(args, name) == parameter.default, name

    def test_validate_help_shows_the_suite_defaults(self, capsys):
        suite = inspect.signature(run_validation_suite).parameters
        with pytest.raises(SystemExit):
            run_cli(["validate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for flag in ("cases", "seed", "max-spins"):
            default = suite[flag.replace("-", "_")].default
            assert re.search(rf"--{flag} \S+ .*?\(default {default}\)", help_text), flag
        assert f"BRUTE_FORCE_MAX_COLLAPSED = {BRUTE_FORCE_MAX_COLLAPSED}" in help_text

    def test_theta_help_names_the_default(self, capsys):
        # The help spells the default as a multiple of pi, taken from FIGURE_PARAMS.
        for command in ("sweep", "optimize", "fidelity"):
            assert cli.parse_args([command]).theta_rad == FIGURE_PARAMS.theta
            with pytest.raises(SystemExit):
                run_cli([command, "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            (multiple,) = re.findall(
                r"--theta-rad THETA_RAD mixing angle \(rad, default (\S+)\*pi\)", help_text)
            assert float(multiple) * math.pi == pytest.approx(FIGURE_PARAMS.theta)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            run_cli([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--version"])
        assert excinfo.value.code == 0
        assert "holobath" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep", "optimize", "fidelity"])
    def test_temperature_has_one_flag(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([command, "--beta-ns", "1"])
        assert excinfo.value.code == 2


def readme_commands() -> list[list[str]]:
    """Every ``holobath`` command of the README's "Command line" block, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"\n## Command line\n\n```bash\n(.*?)```", readme, re.DOTALL)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("holobath ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv[1:]) == 0


class TestSharedParser:
    """One parser per process serves every command line and is never changed."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # Start without a parser and count every one built from here on.
        cli._shared_parser.cache_clear()
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        yield calls
        cli._shared_parser.cache_clear()

    def test_main_builds_the_parser_at_most_once(self, builds, tmp_path, capsys):
        for argv in (
            ["sweep", "--n-spins", "2", "--gamma-stop-ns-inv", "0",
             "--output", str(tmp_path / "s.csv")],
            ["optimize", "--n-spins", "2", "--gamma-stop-ns-inv", "1",
             "--gamma-step-ns-inv", "0.5"],
            ["fidelity"],
            ["reproduce", "fig1_left", "--out-dir", str(tmp_path)],
            ["validate", "--cases", "2"],
            ["fidelity", args_file(tmp_path, "--eps-kappa=0.1", "--gamma-ns-inv=2.8")],
        ):
            assert run_cli(argv) == 0, argv
        for argv, code in ((["sweep", "--no-such-flag"], 2), (["validate", "--help"], 0),
                           (["--version"], 0), (["sweep", f"@{tmp_path / 'missing'}"], 2)):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(argv)
            assert excinfo.value.code == code, argv
        assert len(builds) == 1

    def test_file_values_do_not_reach_a_later_command_line(self, builds, tmp_path, capsys):
        plain = ["fidelity", "--gamma-ns-inv", "2.8"]
        assert run_cli(plain) == 0
        fresh = capsys.readouterr().out
        from_file = args_file(tmp_path, "--n-spins=7", "--eps-kappa=0.1", "--temperature-k=80")
        assert run_cli(["fidelity", from_file, "--gamma-ns-inv", "2.8"]) == 0
        assert capsys.readouterr().out != fresh
        assert run_cli(plain) == 0
        assert capsys.readouterr().out == fresh

    def test_help_is_the_same_on_every_call(self, builds, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit):
                run_cli(["validate", "--help"])
            texts.append(capsys.readouterr().out)
        assert "--max-spins" in texts[0]
        assert texts[1] == texts[0]

    def test_commands_are_looked_up_at_call_time(self, capsys, monkeypatch):
        argv = ["optimize", "--n-spins", "2", "--gamma-stop-ns-inv", "1",
                "--gamma-step-ns-inv", "0.5"]
        assert run_cli(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_optimize", lambda args: seen.append(args.command) or 7)
        assert run_cli(argv) == 7
        assert seen == ["optimize"]


def printed_f_avs(tmp_path, capsys) -> dict[str, list[float]]:
    """Every F_av that `fidelity`, `optimize`, `sweep` and `reproduce fig1_left` print or write."""
    run_cli(["fidelity", "--eps-kappa", "0.1", "--gamma-ns-inv", "2.8"])
    (average,) = re.findall(r"^F_av \(n=30\) = (\S+)$", capsys.readouterr().out, re.MULTILINE)
    # eps = 0.2 peaks inside the grid, so its F_av* comes from the refinement.
    run_cli(["optimize", "--eps-kappa", "0.2"])
    (optimum,) = re.findall(r"F_av\*=(\S+)%", capsys.readouterr().out)
    run_cli(["sweep", "--eps-kappa", "0.1", "--eps-kappa", "0.2", "--gamma-stop-ns-inv", "1",
             "--gamma-step-ns-inv", "0.5", "--output", str(tmp_path / "s.csv")])
    rows = [line.split(",") for line in (tmp_path / "s.csv").read_text().splitlines()
            if not line.startswith("#")]
    run_cli(["reproduce", "fig1_left", "--out-dir", str(tmp_path)])
    optima = [line.split(",") for line in
              (tmp_path / "fig1_left_optima.csv").read_text().splitlines()[1:]]
    capsys.readouterr()
    return {
        "fidelity": [float(average)],
        "optimize": [float(optimum) / 100.0],
        "sweep": [float(cell) for row in rows[1:] for cell in row[1:]],
        "reproduce": [float(row[i]) for row in optima for i in (2, 5)],
    }


def test_every_printed_f_av_goes_through_the_one_reduction(tmp_path, monkeypatch, capsys):
    # Offsetting channel.average_fidelity wherever holobath bound it moves every
    # F_av the commands print by the same amount: no command averages elsewhere.
    before = printed_f_avs(tmp_path, capsys)
    original = channel_mod.average_fidelity
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "holobath" or name.startswith("holobath.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, lambda values: original(values) - 0.05)
    after = printed_f_avs(tmp_path, capsys)
    assert after.keys() == before.keys()
    for command, values in before.items():
        assert len(after[command]) == len(values) > 0, command
        # optimize prints F_av* in percent to 4 decimals
        tolerance = 2e-6 if command == "optimize" else 1e-11
        assert after[command] == pytest.approx([v - 0.05 for v in values], abs=tolerance), command


def test_readme_python_example_prints_its_claimed_value(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"\n## Python API\n.*?```python\n(.*?)```", readme, re.DOTALL)
    (claimed,) = re.findall(r"^print\(.*\)  # (\d+\.\d+)\.\.\.$", block, re.MULTILINE)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith(claimed)
