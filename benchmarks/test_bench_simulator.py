"""Benchmark target for the strict-vs-fast simulator speedup.

Measures the vectorized fast mode of the cycle-accurate simulator
(:mod:`repro.processor.fastsim`) against the strict interpreter on a
1k+-instruction compiled ``Ptree`` program, and merges the measurement into
the ``BENCH_sweeps.json`` artifact (uploaded by CI) under the
``simulator_speedup`` key — the sweep-grid writers preserve it and vice
versa, so the artifact stays whole regardless of which benchmark file runs
last.

Acceptance: fast mode must be at least 5x faster than strict mode while
reproducing its cycle counts and outputs exactly (the measurement itself
cross-checks the two modes before reporting).
"""

from repro.experiments import sweeps

#: Computed once per session and shared between the two targets.
_STASH = {}


def _simulator_speedup():
    if "speedup" not in _STASH:
        _STASH["speedup"] = sweeps.measure_simulator_speedup()
    return _STASH["speedup"]


def test_fast_simulator_speedup(benchmark, run_once):
    result = run_once(benchmark, _simulator_speedup)
    benchmark.extra_info.update(
        {
            "n_instructions": result["n_instructions"],
            "n_operations": result["n_operations"],
            "speedup_fast_vs_strict": round(result["speedup_fast_vs_strict"], 1),
            "speedup_fast_cold_vs_strict": round(
                result["speedup_fast_cold_vs_strict"], 2
            ),
        }
    )
    assert result["n_instructions"] >= 1000
    # Acceptance criterion: the precompiled tapes beat the strict interpreter
    # by at least 5x on a 1k-instruction program.
    assert result["speedup_fast_vs_strict"] >= 5.0


def test_bench_simulator_artifact(benchmark, run_once, bench_json):
    payload = run_once(
        benchmark,
        lambda: sweeps.update_bench_json(
            bench_json, simulator_speedup=_simulator_speedup()
        ),
    )
    assert bench_json.exists()
    assert payload["simulator_speedup"]["speedup_fast_vs_strict"] >= 5.0
