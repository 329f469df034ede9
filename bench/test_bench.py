"""Tests of the benchmark itself: its gates fire on planted faults and its trace is exact.

Run from the repository root with

    python3 -m pytest -q bench/test_bench.py

Faults are planted by patching holobath functions in-process for one
iteration; the sources are never edited.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from holobath import channel, cli, reference, sweep  # noqa: E402


def one_iteration(name: str, seed: int = 0, recorder=None) -> run.Tally:
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    tally = run.Tally()
    run.run_iteration(workloads.WORKLOADS[name](seed), tally, recorder)
    return tally


def failed_frac(tally: run.Tally) -> float:
    return tally.failed / tally.attempted


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Replace a function at every holobath binding, as ``from x import y`` copies it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "holobath" or name.startswith("holobath.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("name", ["figures", "asymmetric", "validate"])
def test_unmodified_program_passes_every_gate(name):
    tally = one_iteration(name)
    assert tally.failures == []
    assert tally.attempted > 0 and failed_frac(tally) == 0.0


def test_flipped_csv_byte_fails_figures(monkeypatch):
    original = sweep.format_curves_csv

    def flipped(*args, **kwargs):
        text = original(*args, **kwargs)
        k = len(text) - 2  # last digit of the last row
        return text[:k] + chr(ord(text[k]) ^ 1) + text[k + 1:]

    monkeypatch.setattr(sweep, "format_curves_csv", flipped)
    tally = one_iteration("figures")
    assert failed_frac(tally) > 0.0
    assert all("digest" in label for label in tally.failures)


def test_nudged_fidelity_fails_asymmetric(monkeypatch):
    original = channel.average_fidelity
    patch_everywhere(monkeypatch, original, lambda *a, **k: original(*a, **k) - 0.05)
    tally = one_iteration("asymmetric")
    assert failed_frac(tally) > 0.0
    assert any("xi-slice range" in label for label in tally.failures)


def test_failing_validate_check_fails_validate(monkeypatch):
    original = cli.run_validation_suite

    def broken(**kwargs):
        first, *rest = original(**kwargs)
        return [reference.CheckResult(first.name, 2.0 * first.threshold, first.threshold)] + rest

    monkeypatch.setattr(cli, "run_validation_suite", broken)
    tally = one_iteration("validate")
    assert failed_frac(tally) > 0.0


def test_asymmetric_draw_is_seeded():
    a, b, c = (workloads.Asymmetric(seed) for seed in (7, 7, 8))
    assert a.argvs == b.argvs and a.extra_gammas == b.extra_gammas
    assert a.argvs != c.argvs


@pytest.mark.parametrize("name", ["figures", "asymmetric", "validate"])
def test_traced_counts_repeat_and_self_times_fit_in_wall(name):
    signatures = []
    for _ in range(2):
        recorder = spans.SpanRecorder()
        os.makedirs(run.OUT_ROOT, exist_ok=True)
        tally = run.Tally()
        wall, _ = run.run_iteration(workloads.WORKLOADS[name](0), tally, recorder)
        assert tally.failed == 0
        signatures.append(run.count_signature(recorder.spans, recorder.counts,
                                              recorder.weight_keys))
        metrics = run.layer_metrics(recorder.spans, recorder.counts,
                                    recorder.weight_keys, wall)
        layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
        assert 0.0 < layer_self <= wall
    assert signatures[0] == signatures[1]
    if name == "figures":
        assert metrics["sweep.refine.evals"][0] > 0
        assert metrics["sweep.csv_bytes"][0] > 0


def test_recorder_wraps_every_binding_and_restores_them():
    before = {name: dict(vars(module)) for name, module in sys.modules.items()
              if module is not None and name.startswith("holobath")}
    originals = {id(vars(owner)[attr])
                 for layer in spans.LAYERS
                 for _, owner, attr in spans.public_callables(
                     sys.modules[f"holobath.{layer}"])}
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        for name in before:
            for attr, value in vars(sys.modules[name]).items():
                assert id(value) not in originals, f"{name}.{attr} is not wrapped"
        assert sweep.build_channel is channel.build_channel
    finally:
        recorder.uninstall()
    for name, attrs in before.items():
        assert {k: v for k, v in vars(sys.modules[name]).items() if k in attrs} == attrs


def test_self_time_subtracts_direct_children_only():
    tree = [["a", 0.0, 10.0, -1], ["b", 1.0, 6.0, 0], ["c", 2.0, 3.0, 1], ["d", 7.0, 9.0, 0]]
    assert spans.self_times(tree) == [3.0, 4.0, 1.0, 2.0]
    rows = spans.aggregate(tree + [["a", 9.5, 9.75, 3]])
    assert rows["a"]["calls"] == 2 and rows["a"]["total_s"] == 10.0


def test_tail_keeps_ten_samples_above_it():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, key):
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[key]}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "validate", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
