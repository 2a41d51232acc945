"""The repository benchmark: serving, bulk queries and the Fig. 4 sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_online --seed 1 --seconds 10 --trace 0

Every run executes the three phases in order (``serve``, ``bulk``,
``sweep``), so every end-to-end metric is measured on every workload.  The
workload names the *primary* phase: it measures for ``--seconds`` seconds
and its set-up is what ``setup_s`` reports; the other two phases run at a
fixed size.  ``--trace 1`` wraps the public entry point of each layer
(see ``spans.py``) and prints the per-layer metrics instead; the spans are
written to ``.perfbench/`` when the run ends.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Provenance and the
comparison with the paper go to the lines before it and to a record file
in ``.perfbench/``.  See ``perfbench/README.md`` for the workloads and the
layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = {"serve_online": "serve", "offline_bulk": "bulk", "design_sweep": "sweep"}
#: Seconds each non-primary phase measures (the sweep always runs one grid).
COMPANION_S = {"serve": 10.0, "bulk": 8.0, "sweep": 0.0}
#: Set-up repetitions of the primary phase; ``setup_s`` is their median
#: in CPU seconds at nominal host speed (see ``common.Timer``), ``wall.setup_s``
#: in wall seconds.
SETUP_REPEATS = 11

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "bulk_linear_rows_per_s": "rows/s",
    "bulk_log_rows_per_s": "rows/s",
    "sweep_s": "s",
    "ptree_ops_per_cycle": "ops/cycle",
    "pvect_ops_per_cycle": "ops/cycle",
    "ptree_speedup_vs_gpu": "x",
}


class Context:
    """What the phases share: inputs, the recorder and the library modules."""

    def __init__(self, seed: int, recorder=None, corrupt: Iterable[str] = ()):
        import repro.api as api
        import repro.serving as serving
        from repro.lifecycle import artifact

        self.rng = np.random.default_rng(seed)
        self.recorder = recorder
        self.corrupt = frozenset(corrupt)
        self.api = api
        self.serving = serving
        self.lifecycle = artifact
        self.load_artifact = artifact.load_artifact
        self.messages = []

    def artifact_path(self, model: str) -> Path:
        """Build ``model``'s artifact into the output directory (untimed)."""
        from repro.suite.registry import benchmark_artifact

        path = OUT / "artifacts" / f"{model}.json"
        self.lifecycle.save_artifact(benchmark_artifact(model), path)
        return path

    def set_phase(self, phase: str) -> None:
        if self.recorder is not None:
            self.recorder.phase = phase

    def expect(self, phase: str, expected):
        """The expected answer, deliberately corrupted when testing the checks."""
        if phase not in self.corrupt:
            return expected
        if isinstance(expected, dict):  # sweep grid: shift one cell
            name = next(iter(expected))
            row = dict(expected[name])
            platform_name = next(iter(row))
            row[platform_name] = (row[platform_name][0] + 1.0, row[platform_name][1])
            return {**expected, name: row}
        expected = np.array(expected, dtype=float, copy=True)
        expected[0] += 1.0
        return expected

    def log(self, message: str) -> None:
        self.messages.append(message)
        print(message, flush=True)


def release_memory() -> None:
    """Collect garbage and hand freed heap back to the OS between phases.

    Without the trim, whether the next phase reuses freed pages or maps new
    ones varies from run to run, and so does the process's peak RSS.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: peak RSS is just noisier
        pass


def steal_s() -> float:
    """Seconds the hypervisor ran other tenants on this VM's CPUs (all CPUs).

    Recorded with each result to explain noisy runs; NaN where the kernel
    does not report it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src" / "repro").rglob("*.py")
    )
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "host": platform.node(), "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "src_repro_lines": lines,
    }


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    corrupt: Iterable[str] = (),
) -> dict:
    """Run all phases; return the result record (metrics, counts, provenance)."""
    from bulk import BulkPhase
    from common import REFERENCE_S, Timer, median
    from serve import ServePhase
    from sweep import SweepPhase

    # The generator thread and the server's worker each keep a CPU busy.
    if len(os.sched_getaffinity(0)) < 2:
        raise SystemExit("the serving phase needs 2 usable CPUs (generator + worker)")
    OUT.mkdir(exist_ok=True)
    steal_at_start = steal_s()
    recorder = None
    if trace:
        import layers

        recorder = layers.install()
    ctx = Context(seed, recorder, corrupt)
    primary = WORKLOADS[workload]
    sizes = {**COMPANION_S, primary: seconds}
    setup, phase_s, failed_by_phase, timers = {}, {}, {}, {}
    attempted = failed = 0
    metrics: Dict[str, float] = {}
    phases = []
    # One phase at a time: each drops its model and inputs before the next
    # one sets up, so no phase measures on another's heap.
    try:
        for make in (ServePhase, BulkPhase, SweepPhase):
            phase = make(ctx)
            ctx.set_phase("setup." + phase.name)
            repeats = SETUP_REPEATS if phase.name == primary else 1
            setup[phase.name], timer = [], Timer()
            for _ in range(repeats):
                gc.collect()  # every set-up starts from the same collector state
                setup[phase.name].append(phase.setup(timer))
            timers["setup." + phase.name] = timer
            gc.collect()
            start = perf_counter()
            phase.measure(sizes[phase.name])
            phase_s[phase.name] = perf_counter() - start
            ctx.set_phase("check")
            a, f = phase.check()
            failed_by_phase[phase.name] = min(f, a)
            attempted, failed = attempted + a, failed + min(f, a)
            metrics.update(phase.metrics())
            if hasattr(phase, "timer"):  # the phases with end-to-end timings
                timers[phase.name] = phase.timer
            phase.release()
            release_memory()
            phases.append(phase)
    finally:
        if recorder is not None:
            recorder.close()
    cpu, wall = zip(*setup[primary])
    metrics["setup_s"] = median(cpu)
    metrics["wall.setup_s"] = median(wall)
    metrics["host.slowdown"] = median(
        [t for timer in timers.values() for t in timer.samples]
    ) / REFERENCE_S
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["success_rate"] = (attempted - failed) / attempted
    ctx.log(phases[2].paper_note())
    record = {
        "provenance": provenance(workload, seed, seconds, trace),
        "attempted": attempted, "failed": failed, "failed_by_phase": failed_by_phase,
        "end_to_end": metrics, "phase_s": phase_s, "setup_s": setup,
        "messages": ctx.messages, "host_steal_s": steal_s() - steal_at_start,
        "host_slowdown": {name: timer.slowdown() for name, timer in timers.items()},
    }
    if recorder is not None:
        record["per_layer"] = layers.collect(recorder, phases, metrics, phase_s)
        recorder.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return record


def result_line(record: dict) -> str:
    """The final JSON line: end-to-end metrics, or per-layer ones when traced."""
    if "per_layer" in record:
        from layers import UNITS as units

        values = record["per_layer"]
    else:
        values, units = record["end_to_end"], UNITS
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print("provenance:", json.dumps(record["provenance"]), flush=True)
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
