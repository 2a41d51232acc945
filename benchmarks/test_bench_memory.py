"""Benchmark: memory-planned tape execution vs the legacy slot matrix.

The source paper's thesis is that SPN inference is *memory-bound*: what
buys throughput is keeping the live operand set small and close, not
adding arithmetic.  :mod:`repro.spn.memplan` applies that lesson to the
software tape — liveness-based physical-slot reuse, lazy input encoding
and broadcast-constant operands shrink the per-block working set from
``n_slots`` rows to ``plan.n_physical`` rows — and
:func:`repro.experiments.sweeps.measure_tape_memory` measures the effect
on the largest suite profile:

* **peak slot-buffer memory** — gated at **>= 4x** reduction vs the legacy
  dense ``(n_slots, n_rows)`` matrix;
* **throughput** — the planned executor gated at **>= 1.3x** legacy on a
  large batch (median of three full measurements, each interleaving the
  executors so machine drift cancels);
* **shard scaling** — sharded execution across the CPU platform engine's
  recommended thread pool, gated at **> 1.5x** *only on hosts with >= 4
  CPUs* (thread scaling cannot exist on the 1–2 core boxes CI sometimes
  hands out; the measurement is recorded everywhere);
* **bit identity** — all executors' outputs compared with ``array_equal``
  inside the measurement; any divergence raises before a number is
  reported.

Results land in the ``tape_memory`` section of ``BENCH_sweeps.json``
(merged via :func:`repro.experiments.sweeps.update_bench_json`, uploaded
by CI).
"""

from repro.experiments.sweeps import measure_tape_memory, update_bench_json

#: Acceptance floors (see module docstring).
MIN_MEMORY_REDUCTION = 4.0
MIN_PLANNED_SPEEDUP = 1.3
MIN_SHARDED_SCALING = 1.5
#: The shard-scaling gate only applies where threads have cores to run on.
SHARDED_GATE_MIN_CPUS = 4

#: Median of three independent measurements (an unbiased statistic: one
#: descheduling blip cannot sink the gate, one lucky sample cannot rescue a
#: real regression), with all three speedup samples recorded alongside.
_STASH = {}
_SAMPLES = 3


def _load_results():
    if "tape_memory" not in _STASH:
        runs = [measure_tape_memory() for _ in range(_SAMPLES)]
        runs.sort(key=lambda r: r["speedup_planned_vs_legacy"])
        median = dict(runs[len(runs) // 2])
        median["speedup_samples"] = [
            round(r["speedup_planned_vs_legacy"], 2) for r in runs
        ]
        _STASH["tape_memory"] = median
    return _STASH["tape_memory"]


def test_tape_memory_plan(benchmark, run_once):
    result = run_once(benchmark, _load_results)
    benchmark.extra_info.update(
        {
            "benchmark": result["benchmark"],
            "n_slots": result["n_slots"],
            "n_physical": result["n_physical"],
            "memory_reduction": round(result["memory_reduction"], 2),
            "speedup_planned_vs_legacy": round(
                result["speedup_planned_vs_legacy"], 2
            ),
            "sharded_scaling_log": round(result["sharded_scaling_log"], 2),
            "cpu_count": result["cpu_count"],
        }
    )
    # Gate 1: the working set shrinks >= 4x vs the dense slot matrix.
    assert result["memory_reduction"] >= MIN_MEMORY_REDUCTION
    assert result["peak_bytes_per_row_planned"] * MIN_MEMORY_REDUCTION <= (
        result["peak_bytes_per_row_legacy"]
    )
    # Gate 2: the planned executor beats legacy throughput at large batches.
    assert result["speedup_planned_vs_legacy"] >= MIN_PLANNED_SPEEDUP
    # Gate 3: outputs are bit-identical across all executors.
    assert result["bit_identical"]
    # Gate 4: shard scaling, where the host has cores to scale onto.
    if result["cpu_count"] >= SHARDED_GATE_MIN_CPUS:
        assert result["sharded_threads"] >= SHARDED_GATE_MIN_CPUS
        assert result["sharded_scaling_log"] > MIN_SHARDED_SCALING


def test_bench_memory_artifact(benchmark, run_once, bench_json):
    payload = run_once(
        benchmark,
        lambda: update_bench_json(
            bench_json, tape_memory=_load_results()
        ),
    )
    assert bench_json.exists()
    section = payload["tape_memory"]
    assert section["memory_reduction"] >= MIN_MEMORY_REDUCTION
    assert section["speedup_planned_vs_legacy"] >= MIN_PLANNED_SPEEDUP
    assert section["bit_identical"]
    if section["cpu_count"] >= SHARDED_GATE_MIN_CPUS:
        assert section["sharded_scaling_log"] > MIN_SHARDED_SCALING
