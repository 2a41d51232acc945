"""Benchmark: batched typed queries vs the per-row scalar path.

The typed query API (:mod:`repro.api`) made conditionals a *batched*
workload for the first time: one :class:`repro.api.Conditional` batch plans
into exactly **two** log-domain tape passes (joint and evidence,
subtracted), where the scalar path answers one row at a time with two
network evaluations each.  :func:`repro.experiments.sweeps.measure_query_speedup`
times both on a suite benchmark:

* **per-row scalar (reference)** — single-row queries through the
  ``engine="python"`` reference walk: what a scalar caller paid before the
  typed API existed (conditionals could not reach the batched engines at
  all);
* **per-row scalar (session)** — the deprecated wrapper
  (:func:`repro.spn.queries.conditional`), now a single-row vectorized
  session per call;
* **batched** — one ``InferenceSession.run(Conditional(...))`` over the
  whole batch.

The batched result is asserted bit-identical to the per-row vectorized
path and the acceptance criterion is a **>= 50x** throughput gain over the
per-row reference path, with exactly two tape passes per batch.  The
measurements land in the ``query_api`` section of ``BENCH_sweeps.json``
(merged via :func:`repro.experiments.sweeps.update_bench_json`, uploaded
by CI).

The analysis kinds ride the same plan machinery:
:func:`repro.experiments.sweeps.measure_classify_speedup` times a batched
``Classify`` (predict_proba: two tape passes for any batch size and state
count) against assembling the same posteriors from per-state single-row
conditionals (``2 * n_rows * n_states`` passes), asserts bit-identity
between the two, and lands in the ``analysis_queries`` section of the same
artifact.
"""

import pytest

from repro.experiments.sweeps import (
    measure_classify_speedup,
    measure_query_speedup,
    update_bench_json,
)

#: Acceptance floor for batched-vs-scalar conditional throughput.
MIN_SPEEDUP = 50.0

#: Acceptance floor for batched Classify vs the per-state Conditional loop.
#: Deliberately conservative: the loop pays two tape passes per (row,
#: state) pair against the batch's flat two, so the true ratio on the
#: 100-variable measurement benchmark is far higher; the gate only has to
#: catch "batching stopped working", not defend the headline number.
MIN_CLASSIFY_SPEEDUP = 10.0

#: Shared measurement, computed once per session (mirrors the other
#: benchmark modules).  The recorded sample is the **median of three**
#: independent measurements — an unbiased statistic (no retry-until-pass,
#: no max-pick: a regression below the gate still fails, since the median
#: cannot be rescued by one lucky sample) that a single descheduling blip
#: on a shared CI box cannot sink either.  All three speedup samples are
#: recorded alongside it for transparency.
_STASH = {}
_SAMPLES = 3


def _load_results():
    if "query_api" not in _STASH:
        runs = [measure_query_speedup() for _ in range(_SAMPLES)]
        runs.sort(key=lambda r: r["speedup_batched_vs_scalar"])
        median = dict(runs[len(runs) // 2])
        median["speedup_samples"] = [
            round(r["speedup_batched_vs_scalar"], 1) for r in runs
        ]
        _STASH["query_api"] = median
    return _STASH["query_api"]


def _load_classify_results():
    if "analysis_queries" not in _STASH:
        runs = [measure_classify_speedup() for _ in range(_SAMPLES)]
        runs.sort(key=lambda r: r["speedup_batched_vs_loop"])
        median = dict(runs[len(runs) // 2])
        median["speedup_samples"] = [
            round(r["speedup_batched_vs_loop"], 1) for r in runs
        ]
        _STASH["analysis_queries"] = median
    return _STASH["analysis_queries"]


def test_batched_conditional_throughput(benchmark, run_once):
    result = run_once(benchmark, _load_results)
    benchmark.extra_info.update(
        {
            "benchmark": result["benchmark"],
            "n_rows": result["n_rows"],
            "tape_passes_per_batch": result["tape_passes_per_batch"],
            "speedup_vs_scalar_reference": round(result["speedup_batched_vs_scalar"], 1),
            "speedup_vs_scalar_session": round(
                result["speedup_batched_vs_scalar_session"], 1
            ),
            "throughput_rps": round(result["throughput_batched_rps"], 1),
        }
    )
    # Acceptance criteria: a Conditional batch is exactly two tape passes,
    # results are bit-identical to per-row execution, and batching beats
    # the per-row scalar path by >= 50x.
    assert result["tape_passes_per_batch"] == 2
    assert result["planned_passes"] == 2
    assert result["bit_identical"]
    assert result["speedup_batched_vs_scalar"] >= MIN_SPEEDUP


def test_batched_classify_throughput(benchmark, run_once):
    result = run_once(benchmark, _load_classify_results)
    benchmark.extra_info.update(
        {
            "benchmark": result["benchmark"],
            "n_rows": result["n_rows"],
            "n_states": result["n_states"],
            "tape_passes_per_batch": result["tape_passes_per_batch"],
            "speedup_vs_per_state_loop": round(result["speedup_batched_vs_loop"], 1),
            "throughput_rps": round(result["throughput_batched_rps"], 1),
        }
    )
    # Acceptance criteria: a Classify batch is exactly two tape passes no
    # matter the state count, posteriors are bit-identical to the
    # per-state Conditional loop, and batching beats the loop by >= 10x.
    assert result["tape_passes_per_batch"] == 2
    assert result["planned_passes"] == 2
    assert result["bit_identical"]
    assert result["speedup_batched_vs_loop"] >= MIN_CLASSIFY_SPEEDUP


def test_analysis_plan_shapes_recorded(benchmark, run_once):
    # The fixed pass counts the docs promise for every analysis kind, as
    # recorded into the artifact: 2 for the conditional-shaped kinds, 3
    # for the pairwise mutual-information sweep.
    result = run_once(benchmark, _load_classify_results)
    passes = result["analysis_passes"]
    assert passes["classify"] == 2
    assert passes["expectation"] == 2
    assert passes["entropy"] == 2
    assert passes["mutual_information"] == 3
    assert passes["sample_free_vars"] >= 1


def test_bench_queries_artifact(benchmark, run_once, bench_json):
    payload = run_once(
        benchmark,
        lambda: update_bench_json(
            bench_json,
            query_api=_load_results(),
            analysis_queries=_load_classify_results(),
        ),
    )
    assert bench_json.exists()
    query_api = payload["query_api"]
    assert query_api["tape_passes_per_batch"] == 2
    assert query_api["bit_identical"]
    assert query_api["speedup_batched_vs_scalar"] >= MIN_SPEEDUP
    analysis = payload["analysis_queries"]
    assert analysis["tape_passes_per_batch"] == 2
    assert analysis["bit_identical"]
    assert analysis["speedup_batched_vs_loop"] >= MIN_CLASSIFY_SPEEDUP
