"""Benchmark targets for the parallel sweep runner and the vectorized engine.

Two quantities are measured and consolidated into the ``BENCH_sweeps.json``
artifact (``.benchmarks/BENCH_sweeps.json``, git-ignored, uploaded by CI):

* the full design-space sweep grid, executed through the parallel, cached
  runner of :mod:`repro.experiments.sweeps`;
* the speedup of the compiled NumPy tape (:mod:`repro.spn.compiled`) over
  the row-by-row reference interpretation of the operation list, on a
  1k+-node SPN with a 1000-row evidence batch — the acceptance target is
  a >= 10x speedup over that reference executor.
"""

import pytest

from repro.experiments import sweeps

#: Results shared between the benchmark targets and the artifact writer, so
#: the grid and the speedup measurement each run exactly once per session.
_STASH = {}


def _engine_speedup():
    if "speedup" not in _STASH:
        _STASH["speedup"] = sweeps.measure_engine_speedup()
    return _STASH["speedup"]


@pytest.fixture()
def sweep_results(tmp_path_factory):
    # Lazy thunk so the grid computes (and is timed) inside the benchmark
    # that first needs it.  A fresh cache directory per session: the point
    # of this target is to time the parallel runner itself, and a warm
    # persistent cache would silently turn it into a benchmark of 12 JSON
    # file reads (and fill the artifact with elapsed_s=0.0 placeholders).
    def compute():
        if "sweeps" not in _STASH:
            cold_cache = tmp_path_factory.mktemp("bench-sweeps") / "sweeps"
            _STASH["sweeps"] = sweeps.run_sweep(
                sweeps.all_sweep_points(sweeps.DEFAULT_BENCHMARK),
                parallel=True,
                cache_dir=cold_cache,
            )
        return _STASH["sweeps"]

    return compute


def test_vectorized_engine_speedup(benchmark, run_once):
    result = run_once(benchmark, _engine_speedup)
    benchmark.extra_info.update(
        {
            "n_nodes": result["n_nodes"],
            "n_operations": result["n_operations"],
            "n_samples": result["n_samples"],
            "speedup_vs_reference": round(result["speedup_vs_reference"], 1),
            "speedup_vs_node_batch": round(result["speedup_vs_node_batch"], 2),
        }
    )
    assert result["n_nodes"] >= 1000
    assert result["n_samples"] >= 1000
    # Acceptance criterion: the compiled tape beats the reference executor
    # by at least an order of magnitude on this workload.
    assert result["speedup_vs_reference"] >= 10.0


def test_parallel_sweep_grid(benchmark, run_once, sweep_results):
    results = run_once(benchmark, sweep_results)
    benchmark.extra_info.update(
        {r.point.label: round(r.ops_per_cycle, 3) for r in results}
    )
    assert len(results) == len(sweeps.all_sweep_points(sweeps.DEFAULT_BENCHMARK))
    assert all(r.ops_per_cycle > 0 for r in results)


def test_bench_sweeps_artifact(run_once, benchmark, sweep_results, bench_json):
    payload = run_once(
        benchmark,
        lambda: sweeps.write_bench_json(
            sweep_results(),
            bench_json,
            sweeps.DEFAULT_BENCHMARK,
            engine_speedup=_engine_speedup(),
        ),
    )
    assert bench_json.exists()
    assert payload["engine_speedup"]["speedup_vs_reference"] >= 10.0
    assert len(payload["sweeps"]) > 0
