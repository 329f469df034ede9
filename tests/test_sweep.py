import csv
import io
import math

import numpy as np
import pytest

import holobath.sweep as sweep_mod
from holobath.error_model import ErrorParams
from holobath.lambda_system import LambdaParams
from holobath.spin_bath import SpinBath
from holobath.sweep import (
    GammaGrid,
    SweepConfig,
    golden_section_maximize,
    optimize_gamma,
    refine_global_optimum,
    refine_interior_optimum,
    reproduce,
    run_sweep,
)


def small_config(**overrides):
    defaults = dict(
        params=LambdaParams(omega=1.0, delta=2.0),
        error_settings=(ErrorParams.symmetric(0.2),),
        bath=SpinBath.from_temperature(20, 15.0e3, 50.0),
        grid=GammaGrid(0.0, 8.0, 0.4),
        n_states=30,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


class TestGammaGrid:
    def test_inclusive_endpoints(self):
        values = GammaGrid(0.0, 8.0, 0.05).values()
        assert values.size == 161
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(8.0, abs=1e-12)

    def test_single_point(self):
        values = GammaGrid(0.0, 0.0, 0.1).values()
        np.testing.assert_array_equal(values, [0.0])

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="step"):
            GammaGrid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="step"):
            GammaGrid(0.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="empty"):
            GammaGrid(2.0, 1.0, 0.1)

    @pytest.mark.parametrize("field", ["start", "stop", "step"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        values = dict(start=0.0, stop=1.0, step=0.5)
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            GammaGrid(**values)


class TestSweepConfig:
    def test_rejects_empty_settings(self):
        with pytest.raises(ValueError, match="error setting"):
            small_config(error_settings=())

    def test_accepts_single_setting(self):
        cfg = small_config(error_settings=ErrorParams.symmetric(0.1))
        assert len(cfg.error_settings) == 1

    def test_rejects_small_state_grid(self):
        with pytest.raises(ValueError, match="n_states"):
            small_config(n_states=2)

    def test_labels(self):
        cfg = small_config(
            error_settings=(
                ErrorParams.symmetric(0.1),
                ErrorParams.symmetric(0.1, kappa=0.3),
                ErrorParams(epsilon0=0.1, zeta0=0.4),
            )
        )
        assert cfg.labels() == ["eps_0.1", "eps_0.1_kap_0.3", "set3"]


class TestRunSweep:
    def test_single_point_identity(self):
        cfg = small_config(
            error_settings=(ErrorParams(),), grid=GammaGrid(0.0, 0.0, 0.1)
        )
        result = run_sweep(cfg)
        assert result.curves.shape == (1, 1)
        assert result.curves[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert result.grid_optima[0].gamma_star == 0.0
        assert result.grid_optima[0].on_boundary

    def test_grid_optimum_row_exists(self):
        result = run_sweep(small_config())
        opt = result.grid_optima[0]
        index = int(np.argmin(np.abs(result.gammas - opt.gamma_star)))
        assert result.gammas[index] == opt.gamma_star
        assert result.curves[0, index] == opt.f_av_star
        assert opt.f_av_star == result.curves[0].max()

    def test_one_channel_build_per_grid_point_and_setting(self, monkeypatch):
        calls = {"n": 0}
        original = sweep_mod.build_channel

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "build_channel", counting)
        cfg = small_config(
            grid=GammaGrid(0.0, 2.0, 0.5),
            error_settings=(ErrorParams.symmetric(0.1), ErrorParams.symmetric(0.2)),
        )
        run_sweep(cfg)
        assert calls["n"] == 2  # one channel per setting spans the 5 grid points

    def test_deterministic_csv(self):
        cfg = small_config(grid=GammaGrid(0.0, 2.0, 0.5))
        first = run_sweep(cfg).to_csv_text()
        second = run_sweep(cfg).to_csv_text()
        assert first == second

    def test_csv_schema(self, tmp_path):
        cfg = small_config(
            grid=GammaGrid(0.0, 1.0, 0.5),
            error_settings=(ErrorParams.symmetric(0.1), ErrorParams.symmetric(0.2)),
        )
        result = run_sweep(cfg)
        path = tmp_path / "out.csv"
        result.write_csv(path)
        text = path.read_text()
        meta = [line for line in text.splitlines() if line.startswith("#")]
        assert any("tool: holobath" in line for line in meta)
        assert any("temperature_K: 50" in line for line in meta)
        assert any("beta_alpha:" in line for line in meta)
        rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
        assert len(rows) == 3
        assert set(rows[0]) == {"gamma_ns_inv", "f_av_eps_0.1", "f_av_eps_0.2"}
        assert float(rows[1]["gamma_ns_inv"]) == 0.5

    def test_twelve_significant_digits(self):
        result = run_sweep(small_config(grid=GammaGrid(0.0, 0.0, 1.0)))
        data_line = result.to_csv_text().splitlines()[-1]
        value = data_line.split(",")[1]
        assert value == f"{result.curves[0, 0]:.12g}"

    def test_write_failure_reports_path(self, tmp_path):
        result = run_sweep(small_config(grid=GammaGrid(0.0, 0.0, 1.0)))
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            result.write_csv(missing)


class TestGoldenSection:
    def test_quadratic_peak(self):
        x, fx = golden_section_maximize(lambda x: -((x - 1.3) ** 2), 0.0, 3.0, tol=1e-6)
        assert x == pytest.approx(1.3, abs=1e-5)
        assert fx == pytest.approx(0.0, abs=1e-9)

    def test_narrow_bracket_short_circuits(self):
        x, fx = golden_section_maximize(lambda x: x, 1.0, 1.0 + 1e-9, tol=1e-4)
        assert x == pytest.approx(1.0, abs=1e-8)


class TestOptimumLocation:
    def test_monotone_curve_raises_boundary_flag(self):
        gammas = np.linspace(0.0, 5.0, 11)
        rising = gammas.copy()
        opt = refine_global_optimum(lambda g: g, gammas, rising, "rising")
        assert opt.on_boundary and opt.gamma_star == 5.0
        falling = -gammas
        opt = refine_global_optimum(lambda g: -g, gammas, falling, "falling")
        assert opt.on_boundary and opt.gamma_star == 0.0

    def test_monotone_curve_has_no_interior_optimum(self):
        gammas = np.linspace(0.0, 5.0, 11)
        assert refine_interior_optimum(lambda g: g, gammas, gammas.copy(), "x") is None

    def test_interior_peak_is_refined(self):
        f = lambda g: -((g - 2.13) ** 2)
        gammas = np.linspace(0.0, 5.0, 26)
        values = f(gammas)
        opt = refine_global_optimum(f, gammas, values, "peak")
        assert not opt.on_boundary
        assert opt.gamma_star == pytest.approx(2.13, abs=1e-4)

    def test_zero_errors_optimum_is_the_boundary(self):
        cfg = small_config(error_settings=(ErrorParams(),), grid=GammaGrid(0.0, 2.0, 0.5))
        (opt,) = optimize_gamma(cfg)
        assert opt.on_boundary
        assert opt.gamma_star == 0.0
        assert opt.f_av_star == pytest.approx(1.0, abs=1e-12)

    def test_figure_operating_point(self):
        # eps = kappa = 0.2, T = 50 K, N = 20: global optimum ~ 2.8 ns^-1
        cfg = small_config(grid=GammaGrid(0.0, 8.0, 0.1))
        (opt,) = optimize_gamma(cfg)
        assert not opt.on_boundary
        assert opt.gamma_star == pytest.approx(2.8, abs=0.2)

    def test_golden_section_against_dense_grid(self):
        # unimodality cross-check: dense-grid argmax as the oracle
        cfg = small_config(grid=GammaGrid(0.0, 8.0, 0.1))
        (opt,) = optimize_gamma(cfg)
        f = lambda g: sweep_mod._f_av(cfg, cfg.error_settings[0], g)
        dense = np.arange(opt.gamma_star - 0.25, opt.gamma_star + 0.25, 1e-3)
        values = [f(g) for g in dense]
        assert opt.gamma_star == pytest.approx(dense[int(np.argmax(values))], abs=1e-3)

    def test_small_error_bath_optimum_is_interior(self):
        # at eps = 0.1 the gamma = 0 baseline beats the bath peak, so the
        # global optimum sits on the boundary while the bath-assisted
        # operating point stays near 2.8.
        cfg = small_config(
            error_settings=(ErrorParams.symmetric(0.1),), grid=GammaGrid(0.0, 8.0, 0.1)
        )
        result = run_sweep(cfg)
        f = lambda g: sweep_mod._f_av(cfg, cfg.error_settings[0], g)
        global_opt = refine_global_optimum(f, result.gammas, result.curves[0], "eps_0.1")
        assert global_opt.on_boundary and global_opt.gamma_star == 0.0
        interior = refine_interior_optimum(f, result.gammas, result.curves[0], "eps_0.1")
        assert interior is not None
        assert interior.gamma_star == pytest.approx(2.89, abs=0.05)


class TestReproduce:
    def test_rejects_unknown_figure(self, tmp_path):
        with pytest.raises(ValueError, match="figure"):
            reproduce("fig9", out_dir=str(tmp_path))

    def test_fig1_left(self, tmp_path):
        report = reproduce("fig1_left", out_dir=str(tmp_path))
        assert report.passed
        assert (tmp_path / "fig1_left.csv").exists()
        assert (tmp_path / "fig1_left_optima.csv").exists()
        assert any("PASS" in line for line in report.lines)
        assert not any("FAIL" in line for line in report.lines)
        header = next(
            line
            for line in (tmp_path / "fig1_left.csv").read_text().splitlines()
            if not line.startswith("#")
        )
        assert header == "gamma_ns_inv,f_av_eps_0.1,f_av_eps_0.15,f_av_eps_0.2"

    def test_fig2(self, tmp_path):
        report = reproduce("fig2", out_dir=str(tmp_path))
        assert report.passed
        text = (tmp_path / "fig2.csv").read_text()
        header = next(line for line in text.splitlines() if not line.startswith("#"))
        assert header == "gamma_ns_inv,f_av_N16,f_av_N22,f_av_N28"
        optima = (tmp_path / "fig2_optima.csv").read_text()
        reader = csv.DictReader(io.StringIO(optima))
        stars = [float(row["bath_gamma_star_ns_inv"]) for row in reader]
        assert len(stars) == 3
        assert all(2.69 <= s <= 2.85 for s in stars)
