"""holobath benchmark: end-to-end timings of three workloads, or their per-layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload figures|asymmetric|validate \\
        --seed N --seconds S --trace 0|1

One single-threaded process drives ``holobath.cli.main`` in-process, so
interpreter start-up and imports land in ``setup_s`` and not in the
per-iteration times.  With ``--trace 0`` the run reports the end-to-end
metrics with no instrumentation installed.  With ``--trace 1`` it alternates
plain and traced iterations and reports per-layer metrics from the traced
ones (see ``spans.py``).  Every iteration's outputs pass through the
workload's correctness gates, outside the timed region.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
provenance of the run.  The exit code is 0 only when every CLI call and gate
passed.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from spans import LAYERS, SpanRecorder, aggregate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
# One BLAS thread: validate's matrices are at most 39x39, where a second
# thread bought about 3% of wall time for twice the CPU, and every extra
# thread exposes the run to the noise of one more shared vCPU.
BLAS_THREADS = 1
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

HOT_FUNCTIONS = {
    "lambda_system.propagator": ("calls", "self_s"),
    "lambda_system.bright_survival_amplitude": ("self_s",),
    "spin_bath.thermal_weights": ("calls", "self_s"),
    "channel.build_channel": ("calls", "self_s"),
    "channel.average_fidelity": ("calls", "self_s"),
    "channel.fidelity_curve": ("self_s",),
    "sweep.golden_section_maximize": ("calls", "total_s"),
    "sweep.format_curves_csv": ("self_s",),
    "reference.expm_hermitian": ("calls", "self_s"),
    "reference.full_evolution": ("self_s",),
    "reference.find_cyclic_time": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

# The setup child: a fresh interpreter imports holobath and builds the inputs.
SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import holobath.cli, workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])).prepare('.')"
)


def cpu_seconds() -> float:
    """Process CPU time, own plus waited-for children (microsecond resolution)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With TAIL_BEYOND samples or fewer there is no such percentile; the
    maximum is returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


class Tally:
    """Attempted and failed operations: CLI calls and correctness gates."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(label)

    def add_calls(self, calls) -> None:
        for call in calls:
            detail = f" ({call.error})" if call.error else ""
            self.add(f"holobath {' '.join(call.argv)} -> exit {call.code}{detail}", call.ok)


def measure_setup(workload: str, seed: int, tally: Tally) -> list[float]:
    """Wall time of SETUP_REPEATS fresh interpreters that import and build inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, BENCH_DIR, workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(perf_counter() - start)
        tally.add(f"setup child exit {proc.returncode}: {proc.stderr.strip()[-200:]}",
                  proc.returncode == 0)
    return times


def run_iteration(workload, tally: Tally, recorder=None) -> tuple[float, float]:
    """One timed iteration, then its gates; returns (wall_s, cpu_s)."""
    from workloads import call_cli  # loads numpy, so only after main() set BLAS up

    out_dir = tempfile.mkdtemp(dir=OUT_ROOT)
    try:
        argvs = workload.prepare(out_dir)
        if recorder is not None:
            recorder.reset()
            recorder.install()
        try:
            cpu0 = cpu_seconds()
            start = perf_counter()
            calls = [call_cli(argv) for argv in argvs]
            wall = perf_counter() - start
            cpu = cpu_seconds() - cpu0
        finally:
            if recorder is not None:
                recorder.uninstall()
        tally.add_calls(calls)
        for label, ok in workload.check(calls, out_dir):
            tally.add(label, ok)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return wall, cpu


def layer_metrics(spans, counts, weight_keys, wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration."""
    rows = aggregate(spans)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [row for name, row in rows.items() if name.startswith(layer + ".")]
        out[f"{layer}.calls"] = (sum(r["calls"] for r in mine), "count")
        out[f"{layer}.self_s"] = (sum((r["self_s"] for r in mine), 0.0), "s")
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    for name, fields in HOT_FUNCTIONS.items():
        for field in fields:
            out[f"{name}.{field}"] = (rows.get(name, empty)[field], UNITS[field])
    repeat = 1.0 - len(set(weight_keys)) / len(weight_keys) if weight_keys else 0.0
    out["spin_bath.thermal_weights.repeat_frac"] = (repeat, "ratio")
    out["sweep.refine.evals"] = (counts["sweep.refine.evals"], "count")
    out["sweep.csv_bytes"] = (counts["sweep.csv_bytes"], "bytes")
    out["trace.wall_s"] = (wall, "s")
    return out


def count_signature(spans, counts, weight_keys) -> tuple:
    """Everything a traced iteration counts; it must repeat exactly."""
    calls: dict[str, int] = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    return tuple(sorted(calls.items())) + tuple(sorted(counts.items())) + (len(weight_keys),)


def write_spans(path: str, spans) -> None:
    """Write one iteration's spans as [name index, start, end, parent] rows."""
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    rows = [[index[name], round(start - origin, 9), round(end - origin, 9), parent]
            for name, start, end, parent in spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": names, "spans": rows}, handle, separators=(",", ":"))


def provenance(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    package = os.path.join(SRC, "holobath")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "blas_env": list(BLAS_ENV),
        "workers": 1,  # no --workers flag is passed; the CLI default is 1
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "asymmetric", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "holobath", "__init__.py")):
        print(f"error: no holobath sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads: set it first.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    for path in (SRC, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    import holobath

    if not os.path.abspath(holobath.__file__).startswith(SRC + os.sep):
        print(f"error: imported holobath from {holobath.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    os.makedirs(OUT_ROOT, exist_ok=True)
    tally = Tally()
    setup = measure_setup(args.workload, args.seed, tally)
    workload = WORKLOADS[args.workload](args.seed)
    run_iteration(workload, tally)  # warm-up: lazy imports and first-call costs

    recorder = SpanRecorder() if args.trace else None
    plain: list[tuple[float, float]] = []
    traced: list[tuple] = []
    cpus = sorted(os.sched_getaffinity(0))
    deadline = perf_counter() + args.seconds
    while True:
        # Rotate the process over the usable CPUs.  On a shared host each vCPU
        # has slow stretches of its own; rotating samples them evenly in
        # every run instead of leaving a run on whichever one it started.
        os.sched_setaffinity(0, {cpus[len(plain) % len(cpus)]})
        plain.append(run_iteration(workload, tally))
        if recorder is not None:
            wall, _ = run_iteration(workload, tally, recorder)
            traced.append((wall, recorder.spans, dict(recorder.counts),
                           recorder.weight_keys))
        if perf_counter() >= deadline:
            break
    os.sched_setaffinity(0, cpus)

    walls = [wall for wall, _ in plain]
    info = provenance(args)
    info.update(samples=len(walls), setup_samples=len(setup))
    if recorder is None:
        # Means, not medians: per-iteration times on a shared host are
        # bimodal (a vCPU runs about 1.5x slower for seconds at a time), and a
        # median jumps between the modes while a mean moves with the slow
        # share.  The median stays in the provenance line.
        tail_value, tail_pct = tail(walls)
        info["wall_s_tail_percentile"] = tail_pct
        info["wall_s_median"] = statistics.median(walls)
        info["wall_s_min"] = min(walls)
        info["wall_s_samples"] = [round(wall, 6) for wall in walls]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.fmean(walls), "s"),
            "wall_s_tail": (tail_value, "s"),
            "cpu_s": (statistics.fmean(cpu for _, cpu in plain), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        # Report the traced iteration of median wall time, so its layer times
        # are one consistent breakdown of one iteration.
        order = sorted(range(len(traced)), key=lambda i: traced[i][0])
        wall, spans, counts, keys = traced[order[(len(order) - 1) // 2]]
        metrics = layer_metrics(spans, counts, keys, wall)
        overhead = statistics.median(t[0] for t in traced) / statistics.median(walls) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        info["traced_samples"] = len(traced)
        info["counts_repeat"] = len({count_signature(*t[1:]) for t in traced}) == 1
        spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
        write_spans(spans_path, spans)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)

    info["failed_frac"] = tally.failed / tally.attempted
    for label in tally.failures:
        print(f"FAILED: {label}", file=sys.stderr)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
