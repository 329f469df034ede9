import inspect
import math
import os
import re
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


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# figure-one-style run\n"
            "omega_ns_inv = 1.0\n"
            "delta_ns_inv = 2.0\n"
            "n_spins = 20\n"
            "alpha_ps_inv = 15\n"
            "temperature_k = 50\n"
            "eps_kappa = 0.1, 0.2\n"
        )
        opts = cli.load_config_file(str(path))
        assert opts["n_spins"] == 20
        assert opts["eps_kappa"] == [0.1, 0.2]
        assert opts["temperature_k"] == 50.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("omega_mhz = 3\n")
        with pytest.raises(ValueError, match="omega_mhz"):
            cli.load_config_file(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("omega_ns_inv\n")
        with pytest.raises(ValueError, match="key = value"):
            cli.load_config_file(str(path))

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_spins = twenty\n")
        with pytest.raises(ValueError, match="n_spins"):
            cli.load_config_file(str(path))


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


# Every config key, a value that is not its default, and the commands with that flag.
CONFIG_VALUES = [
    ("omega_ns_inv", "1.5", ("sweep", "optimize", "fidelity")),
    ("delta_ns_inv", "2.5", ("sweep", "optimize", "fidelity")),
    ("theta_rad", "1.2", ("sweep", "optimize", "fidelity")),
    ("phi_rad", "0.3", ("sweep", "optimize", "fidelity")),
    ("n_spins", "7", ("sweep", "optimize", "fidelity")),
    ("alpha_ps_inv", "12", ("sweep", "optimize", "fidelity")),
    ("temperature_k", "80", ("sweep", "optimize", "fidelity")),
    ("beta_ns", "0.004", ("sweep", "optimize", "fidelity")),
    ("n_states", "12", ("sweep", "optimize", "fidelity")),
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
    def test_keys_are_the_flags_of_the_config_commands(self):
        commands = {"sweep": set(), "optimize": set(), "fidelity": set()}
        for key, _, names in CONFIG_VALUES:
            for name in names:
                commands[name].add(key)
        for name, keys in commands.items():
            namespace = vars(cli.build_parser().parse_args([name]))
            assert set(namespace) - {"command", "func", "config"} == keys

    @pytest.mark.parametrize("key, value, commands", CONFIG_VALUES,
                             ids=[key for key, _, _ in CONFIG_VALUES])
    def test_file_value_equals_flag_value(self, tmp_path, key, value, commands):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        for command in commands:
            from_file = vars(cli.parse_args([command, "--config", str(cfg)]))
            from_flag = vars(cli.parse_args([command, f"--{key.replace('_', '-')}", value]))
            del from_file["config"], from_flag["config"]
            assert from_file == from_flag
            assert from_file[key] != vars(cli.parse_args([command]))[key]

    def test_flag_eps_kappa_replaces_the_file_list(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps_kappa = 0.1, 0.2\nn_spins = 4\ngamma_step_ns_inv = 4\n")
        out = tmp_path / "o.csv"
        code = run_cli(["sweep", "--config", str(cfg), "--eps-kappa", "0.3",
                        "--output", str(out)])
        assert code == 0
        header = [line for line in out.read_text().splitlines() if line.startswith("gamma")]
        assert header == ["gamma_ns_inv,f_av_eps_0.3"]

    def test_fidelity_accepts_grid_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma_start_ns_inv = 0\ngamma_stop_ns_inv = 8\n"
                       "gamma_step_ns_inv = 0.05\nn_states = 4\n")
        assert run_cli(["fidelity", "--config", str(cfg)]) == 0
        assert "F_av (n=4) = 1.000000000000" in capsys.readouterr().out

    def test_optimize_accepts_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output = {tmp_path / 'unused.csv'}\nn_spins = 4\n"
                       "gamma_stop_ns_inv = 1\ngamma_step_ns_inv = 0.5\n")
        assert run_cli(["optimize", "--config", str(cfg)]) == 0
        assert "gamma*=0.000000" in capsys.readouterr().out
        assert not (tmp_path / "unused.csv").exists()

    def test_readme_example(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```\n(# run\.cfg\n.*?)```", readme, re.DOTALL)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(block)
        out = tmp_path / "o.csv"
        code = run_cli(["sweep", "--config", str(cfg), "--gamma-step-ns-inv", "2",
                        "--output", str(out)])
        assert code == 0
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert rows[0] == "gamma_ns_inv,f_av_eps_0.1,f_av_eps_0.15,f_av_eps_0.2"
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "2", "4", "6", "8"]


class TestFidelityCommand:
    def test_prints_table_and_average(self, capsys):
        code = run_cli(
            ["fidelity", "--eps-kappa", "0.1", "--gamma-ns-inv", "2.8", "--n-states", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tau0_ns = 2.221441469" in out
        assert "vartheta_rad,fidelity" in out
        assert "F_av (n=5)" in out
        assert "beta*alpha=2.291470" in out

    def test_runs_the_fidelity_kernel_once(self, capsys, monkeypatch):
        # The average is taken from the printed table, not from a second run.
        calls = []
        kernel = channel_mod._fidelity
        monkeypatch.setattr(channel_mod, "_fidelity",
                            lambda *args: calls.append(args) or kernel(*args))
        code = run_cli(["fidelity", "--eps-kappa", "0.1", "--gamma-ns-inv", "2.8"])
        assert code == 0
        assert len(calls) == 1

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
        code = run_cli(["fidelity", "--n-states", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "F_av (n=4) = 1.000000000000" in out

    def test_invalid_physics_fails_cleanly(self, capsys):
        code = run_cli(["fidelity", "--omega-ns-inv", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    # pi * delta overflows in the survival amplitude, which warns before the guard.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_average_is_an_error(self, capsys):
        code = run_cli(["fidelity", "--delta-ns-inv", "1e308"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error:" in captured.err and "not finite" in captured.err

    def test_overflowing_drive_is_rejected_before_the_kernel(self, capsys):
        # No RuntimeWarning filter: the drive's gap is checked in LambdaParams.
        code = run_cli(["fidelity", "--omega-ns-inv", "1e308"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "omega=1e+308" in captured.err

    def test_rejects_multiple_settings(self, capsys):
        code = run_cli(["fidelity", "--eps-kappa", "0.1", "--eps-kappa", "0.2"])
        assert code == 1
        assert "single error setting" in capsys.readouterr().err

    @pytest.mark.parametrize("n_states, reason", [("2", "n_states"),
                                                  ("100000000", "MAX_KERNEL_ELEMENTS")])
    def test_rejected_state_count_prints_nothing(self, capsys, n_states, reason):
        code = run_cli(["fidelity", "--eps-kappa", "0.1", "--n-states", n_states])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error:" in captured.err and reason in captured.err


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
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "gamma_start_ns_inv = 0\n"
            "gamma_stop_ns_inv = 2\n"
            "gamma_step_ns_inv = 1\n"
            "n_spins = 4\n"
            "eps_kappa = 0.1\n"
        )
        out = tmp_path / "o.csv"
        code = run_cli(
            ["sweep", "--config", str(cfg), "--gamma-stop-ns-inv", "1", "--output", str(out)]
        )
        assert code == 0
        rows = [
            line for line in out.read_text().splitlines() if not line.startswith("#")
        ]
        assert len(rows) == 1 + 2  # header + gamma in {0, 1}

    def test_config_comment_needs_leading_whitespace(self, tmp_path, capsys):
        # A '#' inside a value is part of it; one after whitespace starts a comment.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a full-line comment\n"
            f"output = {tmp_path}/run#1.csv\n"
            "n_spins = 4  # bath\n"
            "gamma_stop_ns_inv = 1\n"
            "gamma_step_ns_inv = 0.5\n"
        )
        assert run_cli(["sweep", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1.csv", "run.cfg"]
        assert "# n_spins: 4\n" in (tmp_path / "run#1.csv").read_text()

    # pi * delta overflows in the survival amplitude, which warns before the guard.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_curve_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--delta-ns-inv", "1e308", "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error:" in captured.err and "eps_0 is not finite" in captured.err
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        code = run_cli(["sweep", "--config", "/no/such/file.cfg"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
    @pytest.mark.parametrize("flag", ["--n-states", "--n-spins"])
    def test_huge_counts_are_errors(self, tmp_path, capsys, flag):
        code = run_cli(["sweep", flag, "100000000", "--output", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "MAX_KERNEL_ELEMENTS" in captured.err
        assert not (tmp_path / "out.csv").exists()


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

    # pi * delta overflows in the survival amplitude, which warns before the guard.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_curve_is_an_error(self, capsys):
        code = run_cli(["optimize", "--delta-ns-inv", "1e308", "--eps-kappa", "0.1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error:" in captured.err and "eps_0.1 is not finite" in captured.err


class TestValidateCommand:
    def test_passes(self, capsys):
        code = run_cli(["validate", "--cases", "6", "--seed", "3",
                        "--max-spins", str(BRUTE_FORCE_MAX_COLLAPSED)])
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
        ("--max-spins", "0", "max_spins must be at least 1, got 0"),
        ("--max-spins", "-2", "max_spins must be at least 1, got -2"),
        # Clamping these would run a smaller suite than asked and still print [PASS].
        ("--max-spins", "13", "max_spins must be at most BRUTE_FORCE_MAX_COLLAPSED = "
                              f"{BRUTE_FORCE_MAX_COLLAPSED}, got 13"),
        ("--max-spins", "50", "max_spins must be at most BRUTE_FORCE_MAX_COLLAPSED = "
                              f"{BRUTE_FORCE_MAX_COLLAPSED}, got 50"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
    ], ids=["max_spins=0", "max_spins=-2", "max_spins=13", "max_spins=50", "seed=-1"])
    def test_rejects_out_of_range_input(self, capsys, flag, value, message):
        code = run_cli(["validate", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; importing it cost ~0.3 s of start-up.
    src = os.path.dirname(os.path.dirname(os.path.abspath(holobath.__file__)))
    code = "import sys, holobath.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr or "importing holobath.cli loaded scipy"


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

    def test_theta_help_names_the_default(self):
        # The help spells the default as "pi/2" rather than %(default)g, so a
        # moved default must take its help text along.
        actions = [
            action
            for parser in cli._command_parsers(cli.build_parser()).values()
            for action in parser._actions
            if "--theta-rad" in action.option_strings
        ]
        assert len(actions) == 3
        for action in actions:
            assert action.default == FIGURE_PARAMS.theta
            if "pi/2" in action.help:
                assert FIGURE_PARAMS.theta == math.pi / 2


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            run_cli([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--version"])
        assert excinfo.value.code == 0
        assert "holobath" in capsys.readouterr().out
