import pytest

from holobath import cli


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
        settings = cli.build_error_settings(dict(cli.DEFAULTS))
        assert len(settings) == 1 and settings[0].is_zero

    def test_eps_kappa_list(self):
        opts = dict(cli.DEFAULTS)
        opts["eps_kappa"] = [0.1, 0.15]
        settings = cli.build_error_settings(opts)
        assert [e.epsilon0 for e in settings] == [0.1, 0.15]
        assert all(e.kappa == e.epsilon0 for e in settings)

    def test_individual_flags(self):
        opts = dict(cli.DEFAULTS)
        opts["epsilon0"] = 0.2
        opts["kappa"] = 0.1
        (setting,) = cli.build_error_settings(opts)
        assert setting.epsilon0 == 0.2 and setting.epsilon1 == 0.0 and setting.kappa == 0.1

    def test_conflicting_flags_rejected(self):
        opts = dict(cli.DEFAULTS)
        opts["eps_kappa"] = [0.1]
        opts["kappa"] = 0.3
        with pytest.raises(ValueError, match="eps-kappa"):
            cli.build_error_settings(opts)


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

    def test_rejects_multiple_settings(self, capsys):
        code = run_cli(["fidelity", "--eps-kappa", "0.1", "--eps-kappa", "0.2"])
        assert code == 1
        assert "single error setting" in capsys.readouterr().err


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


class TestValidateCommand:
    def test_passes(self, capsys):
        code = run_cli(["validate", "--cases", "6", "--seed", "3", "--max-spins", "5"])
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


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            run_cli([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--version"])
        assert excinfo.value.code == 0
        assert "holobath" in capsys.readouterr().out
