import collections
import csv
import gc
import io
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holobath.channel as channel_mod
import holobath.sweep as sweep_mod
from holobath.channel import average_fidelity, build_channel, fidelity_curve
from holobath.error_model import ErrorParams
from holobath.lambda_system import LambdaParams
from holobath.spin_bath import KB_OVER_HBAR_NS_INV_PER_K, SpinBath
from holobath.sweep import (
    REFINE_TOL,
    CurveOptimum,
    GammaGrid,
    SweepConfig,
    golden_section_maximize,
    optimize_gamma,
    refine_interior_optimum,
    reproduce,
    run_sweep,
)


# The report lines of each figure, without the two trailing "wrote" lines.
REPORT_LINES = {
    "fig1_left": [
        "fig1_left: N=20, alpha=15 ps^-1, T=50 K, beta*alpha=2.291470",
        "  eps_0.1: bath optimum gamma*=2.8917 ns^-1, F_av*=97.488%  (gamma=0: 98.792%)",
        "  eps_0.15: bath optimum gamma*=2.8314 ns^-1, F_av*=97.501%  (gamma=0: 97.352%)",
        "  eps_0.2: bath optimum gamma*=2.7711 ns^-1, F_av*=97.427%  (gamma=0: 95.469%)",
        "[PASS] eps_0.1: gamma* within 2.8 +/- 0.2 ns^-1 (measured 2.8917)",
        "[PASS] eps_0.1: F_av* within [97.3, 97.4]% +/- 0.5 pp (measured 97.488%)",
        "[PASS] eps_0.15: gamma* within 2.8 +/- 0.2 ns^-1 (measured 2.8314)",
        "[PASS] eps_0.15: F_av* within [97.3, 97.4]% +/- 0.5 pp (measured 97.501%)",
        "[PASS] eps_0.2: gamma* within 2.8 +/- 0.2 ns^-1 (measured 2.7711)",
        "[PASS] eps_0.2: F_av* within [97.3, 97.4]% +/- 0.5 pp (measured 97.427%)",
        "[PASS] gamma=0 baseline spans [95.5, 98.6]% +/- 0.5 pp, decreasing in the error size "
        "(measured ['98.79%', '97.35%', '95.47%'])",
    ],
    "fig1_right": [
        "fig1_right: N=20, alpha=15 ps^-1, T=300 K, beta*alpha=0.381912",
        "  eps_0.1: bath optimum gamma*=0.3598 ns^-1, F_av*=96.950%  (gamma=0: 98.792%)",
        "  eps_0.15: bath optimum gamma*=0.3430 ns^-1, F_av*=97.207%  (gamma=0: 97.352%)",
        "  eps_0.2: bath optimum gamma*=0.3258 ns^-1, F_av*=97.459%  (gamma=0: 95.469%)",
        "[PASS] eps_0.1: gamma*(300 K) differs from the 50 K optimum 2.8 ns^-1 by more than "
        "the grid step (measured 0.3598)",
        "[PASS] eps_0.15: gamma*(300 K) differs from the 50 K optimum 2.8 ns^-1 by more than "
        "the grid step (measured 0.3430)",
        "[PASS] eps_0.2: gamma*(300 K) differs from the 50 K optimum 2.8 ns^-1 by more than "
        "the grid step (measured 0.3258)",
    ],
    "fig2": [
        "fig2: eps=kappa=0.2, T=50 K, N in {16, 22, 28}",
        "  N16: bath optimum gamma*=2.7524 ns^-1, F_av*=97.493%",
        "  N22: bath optimum gamma*=2.7787 ns^-1, F_av*=97.365%",
        "  N28: bath optimum gamma*=2.7966 ns^-1, F_av*=97.116%",
        "[PASS] all gamma* within [2.74, 2.8] ns^-1 +/- 0.05 "
        "(measured ['2.7524', '2.7787', '2.7966'])",
        "[PASS] gamma* spread below 3% (measured 1.59%)",
    ],
}


def public_f_av(cfg, gamma):
    """F_av of the first setting through the public API, independent of the per-curve objective."""
    errors = cfg.error_settings[0]
    return average_fidelity(fidelity_curve(build_channel(cfg.params, errors, cfg.bath, gamma))[1])


def small_config(**overrides):
    defaults = dict(
        params=LambdaParams(omega=1.0, delta=2.0),
        error_settings=(ErrorParams.symmetric(0.2),),
        bath=SpinBath.from_temperature(20, 15.0e3, 50.0),
        grid=GammaGrid(0.0, 8.0, 0.4),
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

    def test_rejects_oversized_grid_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="8000000000 points"):
                GammaGrid(0.0, 8.0, 1e-9)
            with pytest.raises(ValueError, match="inf points"):
                GammaGrid(-1e308, 1e308, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_size_cap_boundary(self):
        cap = channel_mod.MAX_KERNEL_ELEMENTS
        assert GammaGrid(0.0, cap - 1.0, 1.0).values().size == cap
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{cap + 1} points, more than MAX_KERNEL_ELEMENTS"):
                GammaGrid(0.0, float(cap), 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_figure_grid_unaffected(self):
        np.testing.assert_array_equal(
            sweep_mod.FIGURE_GRID.values(), 0.0 + 0.05 * np.arange(161)
        )


class TestSweepConfig:
    def test_rejects_empty_settings(self):
        with pytest.raises(ValueError, match="error setting"):
            small_config(error_settings=())

    def test_labels(self):
        cfg = small_config(
            error_settings=(
                ErrorParams.symmetric(0.1),
                ErrorParams(epsilon0=0.1, epsilon1=0.1, kappa=0.3),
                ErrorParams(epsilon0=0.1, zeta0=0.4),
                ErrorParams.symmetric(0.1234567),
            )
        )
        assert cfg.labels() == ["eps_0.1", "eps_0.1_kap_0.3", "set3", "eps_0.1234567"]

    @pytest.mark.parametrize("second", [0.1, 0.1 + 1e-15])
    def test_rejects_colliding_labels(self, second):
        with pytest.raises(ValueError, match="'eps_0.1'"):
            small_config(
                error_settings=(ErrorParams.symmetric(0.1), ErrorParams.symmetric(second))
            )


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
        assert "# n_states: 30" in meta  # the one vartheta rule's node count
        rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
        assert len(rows) == 3
        assert set(rows[0]) == {"gamma_ns_inv", "f_av_eps_0.1", "f_av_eps_0.2"}
        assert float(rows[1]["gamma_ns_inv"]) == 0.5

    def test_metadata_prints_the_temperature_beta_implies(self):
        cfg = small_config(bath=SpinBath(4, 15.0e3, 0.004), grid=GammaGrid(0.0, 0.0, 1.0))
        temperature = 1.0 / (KB_OVER_HBAR_NS_INV_PER_K * 0.004)
        assert run_sweep(cfg).metadata_lines()[7:9] == [
            "beta_ns: 0.004", f"temperature_K: {temperature:.12g}"]

    def test_twelve_significant_digits(self):
        result = run_sweep(small_config(grid=GammaGrid(0.0, 0.0, 1.0)))
        data_line = result.to_csv_text().splitlines()[-1]
        value = data_line.split(",")[1]
        assert value == f"{result.curves[0, 0]:.12g}"

    @pytest.mark.parametrize("values", [
        "random",
        [-0.0, 5e-324, 1e300, -1e300, 0.0],
        # 13-digit values whose 12-digit rounding is an exact tie
        [1234567890125.0, 1234567890135.0, -1234567890125.0, 0.5, 2.5e-5],
    ])
    def test_csv_matches_the_per_cell_formatter(self, values):
        if values == "random":
            rng = np.random.default_rng(7)
            values = rng.standard_normal(60) * 10.0 ** rng.integers(-300, 300, 60)
        gammas = np.asarray(values, dtype=float)
        curves = np.array([gammas[::-1], np.sqrt(np.abs(gammas))])
        labels, meta = ("a", "b"), ["tool: test"]

        def per_cell(gammas, curves, labels, metadata_lines):
            lines = [f"# {line}" for line in metadata_lines]
            lines.append("gamma_ns_inv," + ",".join(f"f_av_{label}" for label in labels))
            for j, gamma in enumerate(gammas):
                row = [f"{gamma:.12g}"] + [f"{curves[i][j]:.12g}" for i in range(len(labels))]
                lines.append(",".join(row))
            return "\n".join(lines) + "\n"

        expected = per_cell(gammas, curves, labels, meta)
        assert sweep_mod.format_curves_csv(gammas, curves, labels, meta) == expected
        assert sweep_mod.format_curves_csv(gammas, list(curves), labels, meta) == expected

    def test_write_failure_reports_path(self, tmp_path):
        result = run_sweep(small_config(grid=GammaGrid(0.0, 0.0, 1.0)))
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            result.write_csv(missing)


class TestGoldenSection:
    def test_quadratic_peak(self):
        x, fx = golden_section_maximize(lambda x: -((x - 1.3) ** 2), 0.0, 3.0)
        assert x == pytest.approx(1.3, abs=REFINE_TOL)
        assert fx == pytest.approx(0.0, abs=REFINE_TOL**2)

    def test_narrow_bracket_short_circuits(self):
        calls = []

        def f(x):
            calls.append(x)
            return x

        x, fx = golden_section_maximize(f, 1.0, 1.0 + 0.5 * REFINE_TOL)
        assert calls == [x] and fx == x
        assert x == pytest.approx(1.0 + 0.25 * REFINE_TOL, abs=1e-15)


class TestCurveObjective:
    SETTINGS = {
        "symmetric": (ErrorParams.symmetric(0.2), SpinBath.from_temperature(20, 15.0e3, 50.0)),
        "asymmetric": (ErrorParams(0.2, 0.15, 0.3, 0.0, 0.18),
                       SpinBath.from_temperature(20, 15.0e3, 50.0)),
        "zero_temperature": (ErrorParams(0.1, -0.05, -0.4, 0.2, 0.15),
                             SpinBath(n_spins=9, alpha=2.0, beta=math.inf)),
    }

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_equals_the_public_composition(self, name):
        errors, bath = self.SETTINGS[name]
        cfg = small_config(error_settings=(errors,), bath=bath, grid=GammaGrid(0.0, 8.0, 0.05))
        result, (f,) = sweep_mod._sweep(cfg)
        gammas = result.gammas
        grid = public_f_av(cfg, gammas)
        assert np.array_equal(result.curves[0], grid)
        assert np.array_equal(f(gammas), grid)
        points = [gammas[0], gammas[-1], gammas[57], 0.5 * (gammas[3] + gammas[4]), 2.8, 1.234567]
        for gamma in points:
            value = f(float(gamma))
            assert type(value) is float and value == public_f_av(cfg, float(gamma))

    def test_objective_keeps_no_grid_survival(self):
        # A sweep holds one curve's (grid, N+1) survival array at a time.
        errors, bath = self.SETTINGS["asymmetric"]
        p, gammas = LambdaParams(omega=1.0, delta=2.0), np.linspace(0, 8, 9)
        ch = build_channel(p, errors, bath, gammas)
        survival = weakref.ref(ch.survival)
        values, f = channel_mod._curve(ch)
        del ch
        gc.collect()
        assert survival() is None
        assert np.array_equal(f(gammas), values)
        assert f(2.8) == average_fidelity(fidelity_curve(build_channel(p, errors, bath, 2.8))[1])

    @pytest.mark.parametrize("run", ["optimize_gamma", "reproduce"])
    def test_gamma_independent_work_runs_once_per_curve(self, run, monkeypatch, tmp_path):
        calls = collections.Counter()
        for name in ("thermal_weights", "apply_errors", "ideal_gate"):
            def counting(*args, _name=name, _original=getattr(channel_mod, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(channel_mod, name, counting)
        evaluations = []
        search = sweep_mod.golden_section_maximize
        monkeypatch.setattr(sweep_mod, "golden_section_maximize", lambda f, lo, hi: search(
            lambda g: evaluations.append(g) or f(g), lo, hi))
        if run == "optimize_gamma":
            settings = (ErrorParams.symmetric(0.2), ErrorParams(0.2, 0.15, 0.3, 0.0, 0.18))
            curves = len(optimize_gamma(small_config(error_settings=settings,
                                                     grid=GammaGrid(0.0, 8.0, 0.1))))
        else:
            reproduce("fig1_left", out_dir=str(tmp_path))
            curves = 3
        assert len(evaluations) >= 10 * curves
        assert calls == dict.fromkeys(("thermal_weights", "apply_errors", "ideal_gate"), curves)

    def test_oversized_grid_still_raises(self, monkeypatch):
        cfg = small_config(grid=GammaGrid(0.0, 8.0, 0.05))  # 161 points, N + 1 = 21, 30 states
        monkeypatch.setattr(channel_mod, "MAX_KERNEL_ELEMENTS", 161 * 30)
        assert run_sweep(cfg).curves.shape == (1, 161)

        def unreachable(*args, **kwargs):
            raise AssertionError("survival amplitudes computed before the size check")

        # build_channel rejects the (gamma, input states) table before any kernel array.
        monkeypatch.setattr(channel_mod, "MAX_KERNEL_ELEMENTS", 161 * 30 - 1)
        monkeypatch.setattr(channel_mod, "bright_survival_amplitude", unreachable)
        for call in (run_sweep, optimize_gamma):
            with pytest.raises(ValueError, match="161 gamma values x 30 input states"):
                call(cfg)

    GAMMA_FORMS = {
        "float": float,
        "float64": np.float64,
        "0-d": np.array,
        "1-D": lambda x: np.array([0.5, x]),
    }

    @pytest.mark.parametrize("form", sorted(GAMMA_FORMS))
    def test_objective_checks_every_gamma_form(self, form):
        # Scalars and arrays share one path.  The objective checks no gamma:
        # its callers search inside a grid that build_channel has checked.
        as_form = self.GAMMA_FORMS[form]
        cfg = small_config()
        _, (f,) = sweep_mod._sweep(cfg)
        expected = public_f_av(cfg, as_form(2.8))
        assert np.array_equal(f(as_form(2.8)), expected)


def oracle_refine_global_optimum(f, gammas, values, label):
    """The grid argmax refined on its bracket, or the flagged grid point on an edge.

    An independent statement of the global optimum, searching from np.argmax
    rather than from the interior peaks.
    """
    grid = sweep_mod._grid_optimum(gammas, values, label)
    if grid.on_boundary:
        return grid
    best = int(np.argmax(values))
    x, fx = sweep_mod.golden_section_maximize(f, float(gammas[best - 1]), float(gammas[best + 1]))
    if values[best] > fx:
        x, fx = float(gammas[best]), float(values[best])
    return CurveOptimum(label, x, fx, on_boundary=False)


# A few shared levels make ties and plateaus common; arbitrary floats fill the rest.
curve_values = st.lists(
    st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=3, max_size=60,
)


class TestOptimumLocation:
    @given(values=curve_values, step=st.floats(1e-3, 1.0), peak=st.floats(-2.0, 2.0),
           center=st.floats(0.0, 60.0))
    @settings(max_examples=300, deadline=None)
    def test_global_optimum_is_the_edge_point_or_the_interior_peak(
        self, values, step, peak, center
    ):
        gammas = step * np.arange(len(values))
        values = np.array(values)
        brackets, evals = [], []
        search = sweep_mod.golden_section_maximize

        def f(g):
            evals.append(g)
            return peak - (g - center * step) ** 2

        def recording(f, lo, hi):
            brackets.append((lo, hi))
            return search(f, lo, hi)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep_mod, "golden_section_maximize", recording)
            expected = oracle_refine_global_optimum(f, gammas, values, "c")
            oracle_calls = (brackets[:], evals[:])
            brackets.clear()
            evals.clear()
            grid = sweep_mod._grid_optimum(gammas, values, "c")
            got = grid if grid.on_boundary else refine_interior_optimum(f, gammas, values, "c")
        assert got == expected
        assert (brackets, evals) == oracle_calls

    @pytest.mark.parametrize("eps, searches", [(0.1, 0), (0.2, 1)])
    def test_optimize_searches_only_interior_optima(self, monkeypatch, eps, searches):
        # eps = 0.1 peaks at gamma = 0 on this grid, eps = 0.2 inside it.
        brackets = []
        search = sweep_mod.golden_section_maximize
        monkeypatch.setattr(sweep_mod, "golden_section_maximize",
                            lambda f, lo, hi: brackets.append((lo, hi)) or search(f, lo, hi))
        cfg = small_config(
            error_settings=(ErrorParams.symmetric(eps),), grid=GammaGrid(0.0, 8.0, 0.1)
        )
        (opt,) = optimize_gamma(cfg)
        assert opt.on_boundary == (searches == 0)
        assert len(brackets) == searches

    def test_monotone_curve_raises_boundary_flag(self):
        gammas = np.linspace(0.0, 5.0, 11)
        rising = gammas.copy()
        opt = sweep_mod._grid_optimum(gammas, rising, "rising")
        assert opt.on_boundary and opt.gamma_star == 5.0
        falling = -gammas
        opt = sweep_mod._grid_optimum(gammas, falling, "falling")
        assert opt.on_boundary and opt.gamma_star == 0.0

    def test_monotone_curve_has_no_interior_optimum(self):
        gammas = np.linspace(0.0, 5.0, 11)
        assert refine_interior_optimum(lambda g: g, gammas, gammas.copy(), "x") is None

    def test_interior_peak_is_refined(self):
        f = lambda g: -((g - 2.13) ** 2)
        gammas = np.linspace(0.0, 5.0, 26)
        values = f(gammas)
        opt = refine_interior_optimum(f, gammas, values, "peak")
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
        f = lambda g: public_f_av(cfg, g)
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
        f = lambda g: public_f_av(cfg, g)
        global_opt = result.grid_optima[0]
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

    @pytest.mark.parametrize("figure", sorted(REPORT_LINES))
    def test_report_lines(self, tmp_path, figure):
        out_dir = str(tmp_path / "out")
        report = reproduce(figure, out_dir=out_dir)
        assert report.passed
        stem = os.path.join(out_dir, figure)
        assert list(report.lines) == REPORT_LINES[figure] + [
            f"wrote {stem}.csv",
            f"wrote {stem}_optima.csv",
        ]

    def test_layout_follows_from_the_bath_sizes(self, tmp_path, monkeypatch):
        # Beyond the three paper figures: one setting over two bath sizes, and
        # two settings at one bath size.
        specs = {
            "by_size": sweep_mod.FigureSpec(title="by size", n_spins=(4, 6), temperature_k=50.0,
                                            errors=(ErrorParams.symmetric(0.2),)),
            "by_setting": sweep_mod.FigureSpec(
                title="by setting", n_spins=(4,), temperature_k=50.0,
                errors=(ErrorParams.symmetric(0.1), ErrorParams.symmetric(0.2))),
        }
        monkeypatch.setattr(sweep_mod, "FIGURE_SPECS", specs)
        expected = {"by_size": (["N4", "N6"], "# n_spins: 4,6"),
                    "by_setting": (["eps_0.1", "eps_0.2"], "# n_spins: 4")}
        for figure, (labels, n_spins_line) in expected.items():
            report = reproduce(figure, out_dir=str(tmp_path))
            assert report.passed
            text = (tmp_path / f"{figure}.csv").read_text()
            metadata = [line for line in text.splitlines() if line.startswith("#")]
            rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
            assert rows[0] == ["gamma_ns_inv"] + [f"f_av_{label}" for label in labels]
            assert [line for line in metadata if line.startswith("# n_spins")] == [n_spins_line]
            optima = (tmp_path / f"{figure}_optima.csv").read_text()
            assert [row["curve"] for row in csv.DictReader(io.StringIO(optima))] == labels
            curve_lines = report.lines[1:1 + len(labels)]
            for label, baseline, line in zip(labels, rows[1][1:], curve_lines):
                assert line.startswith(f"  {label}: bath optimum gamma*=")
                suffix = f"  (gamma=0: {float(baseline):.3%})"
                assert line.endswith(suffix) == (figure == "by_setting"), line
        # At gamma = 0 the bath decouples, so every bath size shares the baseline
        # the by-size lines leave out.
        by_size = (tmp_path / "by_size.csv").read_text().splitlines()
        first_row = next(line for line in by_size if line.startswith("0,")).split(",")
        assert first_row[1] == first_row[2]

    def test_several_bath_sizes_take_one_setting(self):
        # The curves of such a figure are labelled by bath size alone.
        with pytest.raises(ValueError, match="one error setting"):
            sweep_mod.FigureSpec(title="t", n_spins=(4, 6), temperature_k=50.0,
                                 errors=(ErrorParams.symmetric(0.1), ErrorParams.symmetric(0.2)))

    @pytest.mark.parametrize("figure", sorted(sweep_mod.FIGURE_SPECS))
    def test_one_golden_section_search_per_curve(self, tmp_path, monkeypatch, figure):
        calls = []
        original = sweep_mod.golden_section_maximize

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "golden_section_maximize", counting)
        reproduce(figure, out_dir=str(tmp_path))
        assert len(calls) == 3, calls  # every figure has three curves

    @pytest.mark.parametrize("figure", ["fig1_left", "fig1_right"])
    def test_missing_interior_optimum_fails(self, tmp_path, monkeypatch, figure):
        # eps = 0.1 has its global optimum at gamma = 0, so only the interior
        # search can supply its bath optimum.
        original = sweep_mod.refine_interior_optimum
        monkeypatch.setattr(sweep_mod, "refine_interior_optimum",
                            lambda f, gammas, values, label: None if label == "eps_0.1"
                            else original(f, gammas, values, label))
        report = reproduce(figure, out_dir=str(tmp_path))
        assert not report.passed
        assert "  eps_0.1: no interior optimum; global gamma*=0.0000" in report.lines
        assert "[FAIL] eps_0.1: interior optimum exists" in report.lines
