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
from holobath.spin_bath import KB_OVER_HBAR_NS_INV_PER_K, SpinBath
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

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_eps_kappa_rejected(self, tmp_path, capsys, value):
        # An empty list would fail later without naming the file.
        path = tmp_path / "bad.cfg"
        path.write_text(f"n_spins = 4\neps_kappa ={value}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: .*eps_kappa"):
            cli.load_config_file(str(path))
        for command in ("sweep", "optimize", "fidelity"):
            assert run_cli([command, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {path}:2: ") and "eps_kappa" in captured.err

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        # Editors on some platforms save UTF-8 with a leading byte-order mark.
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        text = "omega_ns_inv = 1.5\nn_spins = 4\n"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert cli.load_config_file(str(marked)) == cli.load_config_file(str(plain))
        assert cli.load_config_file(str(marked))["omega_ns_inv"] == 1.5
        assert run_cli(["optimize", "--config", str(marked), "--n-states", "5"]) == 0
        from_marked = capsys.readouterr().out
        assert run_cli(["optimize", "--config", str(plain), "--n-states", "5"]) == 0
        assert capsys.readouterr().out == from_marked

    def test_undecodable_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"n_spins = 4\n# temp\xe9rature\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*decode byte 0xe9"):
            cli.load_config_file(str(path))
        assert run_cli(["sweep", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")


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
            assert set(namespace) - {"command", "config"} == keys

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
        code = run_cli(["fidelity", "--n-states", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "F_av (n=4) = 1.000000000000" in out

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

    @pytest.mark.parametrize("beta, temperature", [
        ("0.004", f"{1.0 / (KB_OVER_HBAR_NS_INV_PER_K * 0.004):.12g}"),
        ("0", "inf"),
        ("inf", "0"),
    ])
    def test_beta_csv_prints_the_temperature_it_implies(self, tmp_path, capsys, beta, temperature):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--beta-ns", beta, "--n-spins", "4", "--gamma-step-ns-inv", "1",
                        "--output", str(out)]) == 0
        meta = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert meta[7:9] == [f"# beta_ns: {beta}", f"# temperature_K: {temperature}"]

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


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's holobath."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(holobath.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )


def test_import_leaves_scipy_unloaded():
    # The runtime needs only numpy: scipy, pytest and hypothesis are test
    # dependencies (importing scipy cost ~0.3 s of start-up).
    code = ("import sys, holobath.cli; "
            "loaded = [m for m in ('scipy', 'pytest', 'hypothesis') if m in sys.modules]; "
            "sys.exit(' '.join(loaded) or None)")
    proc = run_python(code)
    assert proc.returncode == 0, f"importing holobath.cli loaded or raised: {proc.stderr}"


def test_import_builds_no_parser():
    # Every fresh interpreter imports holobath.cli; the parser waits for a command line.
    code = ("import argparse; built = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
            "import holobath.cli; at_import = len(built); "
            "holobath.cli.parse_args(['validate']); print(at_import, len(built) > 0)")
    proc = run_python(code)
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

    def test_theta_help_names_the_default(self):
        # The help spells the default as a multiple of pi, taken from FIGURE_PARAMS.
        actions = [
            action
            for parser in cli._command_parsers(cli.build_parser()).values()
            for action in parser._actions
            if "--theta-rad" in action.option_strings
        ]
        assert len(actions) == 3
        for action in actions:
            assert action.default == FIGURE_PARAMS.theta
            (multiple,) = re.findall(r"^mixing angle \(rad, default (\S+)\*pi\)$", action.help)
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
            ["fidelity", "--n-states", "4"],
            ["reproduce", "fig1_left", "--out-dir", str(tmp_path)],
            ["validate", "--cases", "2"],
        ):
            assert run_cli(argv) == 0, argv
        for argv, code in ((["sweep", "--no-such-flag"], 2), (["validate", "--help"], 0),
                           (["--version"], 0)):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(argv)
            assert excinfo.value.code == code, argv
        assert len(builds) == 1

    def test_config_values_do_not_reach_a_later_command_line(self, builds, tmp_path, capsys):
        plain = ["fidelity", "--n-states", "4", "--gamma-ns-inv", "2.8"]
        assert run_cli(plain) == 0
        fresh = capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_spins = 7\neps_kappa = 0.1\ntemperature_k = 80\nn_states = 5\n")
        assert run_cli(["fidelity", "--config", str(cfg), "--gamma-ns-inv", "2.8"]) == 0
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
