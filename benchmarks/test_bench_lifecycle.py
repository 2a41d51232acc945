"""Benchmark: AOT model lifecycle — cold start, hot swap, lost requests.

The lifecycle subsystem (:mod:`repro.lifecycle`) ships a learned model as
a content-hashed AOT artifact carrying its compiled tape and memory plan,
so a serving box never recompiles.
:func:`repro.experiments.sweeps.measure_lifecycle` measures what that
buys on a learned 24-variable model:

* **cold start** — loading the artifact and adopting its tape/plan,
  gated at **>= 5x** faster than the recompile path (dataset → LearnSPN
  → linearize → compile → memory-plan), best-of-three each, median of
  three full measurements;
* **bit identity** — the cold-started session's golden replay is asserted
  identical (deviation ``0.0``) to the fresh compile inside the
  measurement; any divergence raises before a number is reported;
* **hot swap under load** — a 200-request blocking stream while a
  background thread publishes a retrained candidate through the full
  shadow-validated :meth:`~repro.serving.InferenceServer.publish` path,
  gated at **zero lost requests** (errored *or* answered with anything
  but the offline-expected vector) with the candidate live afterwards.

Results land in the ``model_lifecycle`` section of ``BENCH_sweeps.json``
(merged via :func:`repro.experiments.sweeps.update_bench_json`, uploaded
by CI).
"""

from repro.experiments.sweeps import measure_lifecycle, update_bench_json

#: Acceptance floors (see module docstring).
MIN_COLD_START_SPEEDUP = 5.0
MAX_REQUESTS_LOST = 0

#: Median of three independent measurements (an unbiased statistic: one
#: descheduling blip cannot sink the gate, one lucky sample cannot rescue a
#: real regression), with all three speedup samples recorded alongside.
_STASH = {}
_SAMPLES = 3


def _load_results():
    if "model_lifecycle" not in _STASH:
        runs = [measure_lifecycle() for _ in range(_SAMPLES)]
        runs.sort(key=lambda r: r["cold_start_speedup"])
        median = dict(runs[len(runs) // 2])
        median["speedup_samples"] = [
            round(r["cold_start_speedup"], 2) for r in runs
        ]
        # The loss gate must see every stream, not just the median one.
        median["requests_lost"] = max(r["requests_lost"] for r in runs)
        _STASH["model_lifecycle"] = median
    return _STASH["model_lifecycle"]


def test_model_lifecycle(benchmark, run_once):
    result = run_once(benchmark, _load_results)
    benchmark.extra_info.update(
        {
            "cold_start_speedup": round(result["cold_start_speedup"], 2),
            "t_cold_start_ms": round(result["t_cold_start_s"] * 1e3, 2),
            "t_recompile_ms": round(result["t_recompile_s"] * 1e3, 2),
            "requests_lost": result["requests_lost"],
            "latency_p99_ms": round(result["latency_p99_ms"], 2),
            "t_publish_ms": round(result["t_publish_s"] * 1e3, 2),
            "cpu_count": result["cpu_count"],
        }
    )
    # Gate 1: the AOT cold start beats recompile-from-source >= 5x.
    assert result["cold_start_speedup"] >= MIN_COLD_START_SPEEDUP
    # Gate 2: the cold-started session replays bit-identically.
    assert result["bit_identical"]
    assert result["golden_deviation"] == 0.0
    # Gate 3: the shadow-validated hot swap loses nothing and lands.
    assert result["requests_lost"] <= MAX_REQUESTS_LOST
    assert result["live_version_after_swap"] == "2"


def test_bench_lifecycle_artifact(benchmark, run_once, bench_json):
    payload = run_once(
        benchmark,
        lambda: update_bench_json(
            bench_json, model_lifecycle=_load_results()
        ),
    )
    assert bench_json.exists()
    section = payload["model_lifecycle"]
    assert section["cold_start_speedup"] >= MIN_COLD_START_SPEEDUP
    assert section["bit_identical"]
    assert section["requests_lost"] <= MAX_REQUESTS_LOST
