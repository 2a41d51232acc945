"""Tests for the observability subsystem: metrics, tracing, profiling.

Covers the three pillars in isolation (registry semantics, span trees,
per-kernel profiles), their integration into the session and the tape
executors (bit-identical results with the profiler on), the serving-layer
trace propagation contract — one trace id from admission to response even
when a request's rows scatter across micro-batches and worker threads —
and the ``python -m repro.observability`` CLI.
"""

import json
import threading

import numpy as np
import pytest

from repro import observability
from repro.api import InferenceSession, LogLikelihood
from repro.observability import (
    LATENCY_BUCKETS,
    REGISTRY,
    TRACER,
    MetricsRegistry,
    TapeProfiler,
    TraceContext,
    Tracer,
    active_profiler,
    current_trace_id,
    observability_scope,
)
from repro.observability.__main__ import main as obs_main
from repro.serving import BatchingPolicy, InferenceClient, InferenceServer
from repro.spn.generate import random_evidence
from repro.spn.memplan import ExecutionOptions
from repro.suite.registry import benchmark_n_vars, benchmark_tape

BENCHMARK = "Banknote"


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts from the default switchboard and empty stores."""
    TRACER.clear()
    REGISTRY.clear()
    observability.configure(metrics=True, tracing=False)
    yield
    TRACER.clear()
    REGISTRY.clear()
    observability.configure(metrics=True, tracing=False)


@pytest.fixture(scope="module")
def tape():
    return benchmark_tape(BENCHMARK)


@pytest.fixture(scope="module")
def evidence():
    return random_evidence(
        benchmark_n_vars(BENCHMARK), observed_fraction=0.5, seed=7, n_samples=64
    )


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_get_or_create_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", model="A", kind="ll")
        b = registry.counter("requests_total", kind="ll", model="A")
        assert a is b  # label order is canonicalized
        a.inc()
        a.inc(2.5)
        assert registry.counter("requests_total", model="B").value == 0.0
        snap = registry.snapshot()
        assert snap['requests_total{kind="ll",model="A"}'] == 3.5

    def test_counter_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("n")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3.0

    def test_tracked_gauge_reads_its_function(self):
        gauge = MetricsRegistry().gauge("live")
        depth = [7]
        gauge.track(lambda: depth[0])
        assert gauge.value == 7.0
        depth[0] = 2
        gauge.set(100)  # the stored value is not read while tracked
        assert gauge.value == 2.0
        assert MetricsRegistry().gauge("other").value == 0.0

    def test_histogram_buckets_are_inclusive_upper_bounds(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        for value in (0.1, 0.5, 1.0, 1.5, float("inf"), float("-inf"), float("nan")):
            hist.observe(value)
        buckets = hist.snapshot_value()["buckets"]
        # -inf and 0.1 in the first bucket; nan and inf beyond every bound.
        assert buckets == {"0.1": 2, "1.0": 2, "+Inf": 3}

    def test_histogram_observe_many_matches_observe(self):
        values = [0.0005, 0.003, 0.003, 0.2, 7.0, 12.0, float("nan"), 1e-4]
        one, many = MetricsRegistry().histogram("a"), MetricsRegistry().histogram("b")
        for value in values:
            one.observe(value)
        many.observe_many(values)
        a, b = one.snapshot_value(), many.snapshot_value()
        assert a["buckets"] == b["buckets"] and a["count"] == b["count"]
        assert np.isnan(a["sum"]) and np.isnan(b["sum"])
        finite = [v for v in values if v == v]
        one, many = MetricsRegistry().histogram("a"), MetricsRegistry().histogram("b")
        for value in finite:
            one.observe(value)
        many.observe_many(finite)
        assert one.snapshot_value() == many.snapshot_value()  # same sum order
        assert one.quantile(0.5) == many.quantile(0.5)

    def test_clear_bumps_the_generation(self):
        registry = MetricsRegistry()
        before = registry.generation
        counter = registry.counter("a")
        counter.inc()
        registry.clear()
        assert registry.generation == before + 1
        assert registry.snapshot() == {}
        assert registry.counter("a") is not counter

    def test_histogram_quantiles_match_numpy(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", window=100)
        samples = [0.001, 0.004, 0.02, 0.5, 1.7]
        for s in samples:
            hist.observe(s)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert hist.quantile(q) == pytest.approx(np.quantile(samples, q))

    def test_histogram_empty_quantile_is_none(self):
        assert MetricsRegistry().histogram("lat").quantile(0.5) is None

    def test_histogram_window_is_bounded(self):
        hist = MetricsRegistry().histogram("lat", window=4)
        for s in (1.0, 2.0, 3.0, 4.0, 100.0):
            hist.observe(s)
        # The rolling window dropped the 1.0; count keeps all of history.
        assert hist.quantile(0.0) == pytest.approx(2.0)
        assert hist.snapshot_value()["count"] == 5

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("a", x="1").inc()
        registry.gauge("b").set(2.5)
        registry.histogram("c").observe(0.1)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", path="/x").inc(3)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_prometheus()
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{path="/x"} 3' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_latency_buckets_are_sorted_and_subsecond_first(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
        assert LATENCY_BUCKETS[0] < 0.001


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("work", n=1) as span:
            span.set(more=2)  # the null span absorbs attributes
        assert tracer.spans() == []
        assert current_trace_id() is None

    def test_span_tree_shares_one_trace(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("outer"):
            outer_trace = tracer.current().trace_id
            with tracer.span("inner"):
                assert tracer.current().trace_id == outer_trace
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].duration_s >= spans["inner"].duration_s >= 0.0

    def test_error_spans_are_flagged(self):
        tracer = Tracer()
        tracer.enabled = True
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "RuntimeError"

    def test_activate_carries_context_across_threads(self):
        tracer = Tracer()
        tracer.enabled = True
        seen = {}

        with tracer.span("admission"):
            context = tracer.current()

        def worker():
            # A fresh thread has no ambient context...
            seen["before"] = tracer.current()
            with tracer.activate(context):
                with tracer.span("execute"):
                    seen["inside"] = tracer.current().trace_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["before"] is None
        assert seen["inside"] == context.trace_id
        execute = next(s for s in tracer.spans() if s.name == "execute")
        assert execute.parent_id == context.span_id

    def test_event_always_bypasses_the_switch(self):
        tracer = Tracer()
        assert tracer.enabled is False
        tracer.event("lifecycle.swap", always=True, model="M")
        tracer.event("ignored")
        (event,) = tracer.spans()
        assert event.name == "lifecycle.swap"
        assert event.duration_s == 0.0

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(capacity=8)
        tracer.enabled = True
        for i in range(20):
            with tracer.span(f"s{i}"):
                pass
        spans = tracer.spans()
        assert len(spans) == 8
        assert spans[-1].name == "s19"

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("a", k=1):
            pass
        path = tmp_path / "spans.jsonl"
        tracer.export_jsonl(path)
        (record,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert record["name"] == "a"
        assert record["attrs"] == {"k": 1}

    def test_observability_scope_restores_switches(self):
        assert observability.metrics_enabled()
        assert not observability.tracing_enabled()
        with observability_scope(metrics=False, tracing=True):
            assert not observability.metrics_enabled()
            assert observability.tracing_enabled()
        assert observability.metrics_enabled()
        assert not observability.tracing_enabled()


# --------------------------------------------------------------------------- #
# Per-kernel profiler
# --------------------------------------------------------------------------- #
class TestTapeProfiler:
    @pytest.mark.parametrize("execution", ["planned", "sharded", "legacy"])
    def test_profiled_execution_is_bit_identical(self, tape, evidence, execution):
        options = (
            ExecutionOptions(mode="sharded", threads=2, min_shard_rows=1)
            if execution == "sharded"
            else execution
        )
        reference = tape.execute_batch(evidence, execution=options)
        with TapeProfiler() as profiler:
            profiled = tape.execute_batch(evidence, execution=options)
        assert np.array_equal(profiled, reference)
        assert profiler.total_elapsed_s > 0.0
        assert profiler.total_bytes > 0

    def test_profile_accounts_for_most_of_the_pass(self, tape):
        # A batch large enough that kernel time dominates the per-kernel
        # clock reads (the regime profiling is for; the benchmark gate
        # measures the same bound on the sweep workload).
        big = random_evidence(
            benchmark_n_vars(BENCHMARK), observed_fraction=0.5, seed=3, n_samples=4096
        )
        with TapeProfiler() as profiler:
            for _ in range(5):
                tape.execute_batch(big)
        # Acceptance gate: per-kernel elapsed explains >=90% of wall time.
        assert profiler.coverage() >= 0.90

    def test_profiler_only_active_inside_context(self, tape, evidence):
        assert active_profiler() is None
        with TapeProfiler() as profiler:
            assert active_profiler() is profiler
        assert active_profiler() is None

    def test_table_rows_and_rendering(self, tape, evidence):
        with TapeProfiler() as profiler:
            tape.execute_batch(evidence)
        rows = profiler.table()
        assert rows  # at least the encode pseudo-kernel and one kernel
        keys = {row["kernel"] for row in rows}
        assert any(key.endswith(".encode") for key in keys)
        shares = [row["share"] for row in rows]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(1.0)
        rendered = profiler.render(top=5)
        assert "share" in rendered and "GB/s" in rendered
        assert "of pass wall time" in rendered

    def test_rows_and_bytes_accounting(self, tape, evidence):
        with TapeProfiler() as profiler:
            tape.execute_batch(evidence)
        n_rows = evidence.shape[0]
        for row in profiler.table():
            assert row["rows"] % n_rows == 0
            assert row["bytes"] > 0


# --------------------------------------------------------------------------- #
# Session spans
# --------------------------------------------------------------------------- #
class TestSessionSpans:
    def test_plan_run_and_tape_passes_nest(self, evidence):
        session = InferenceSession(BENCHMARK)
        with observability_scope(tracing=True):
            session.run(LogLikelihood(evidence=evidence))
        spans = {span.name: span for span in TRACER.spans()}
        run = spans["session.run"]
        tape_pass = spans["session.tape_pass"]
        assert run.attrs["kind"] == "log_likelihood"
        assert run.attrs["n_rows"] == evidence.shape[0]
        assert run.attrs["passes"] >= 1
        assert tape_pass.parent_id == run.span_id
        assert tape_pass.trace_id == run.trace_id

    def test_disabled_tracing_leaves_no_spans(self, evidence):
        session = InferenceSession(BENCHMARK)
        session.run(LogLikelihood(evidence=evidence))
        assert TRACER.spans() == []


# --------------------------------------------------------------------------- #
# Serving trace propagation (admission -> queue -> execute -> respond)
# --------------------------------------------------------------------------- #
class TestServingTracePropagation:
    def test_one_trace_id_across_worker_threads_and_micro_batches(self):
        # max_batch_size=2 forces a 7-row request to split across at least
        # four micro-batches; every span must still join the admission
        # trace, spanning submitter and worker threads.
        policy = BatchingPolicy(max_batch_size=2, max_wait_s=0.001)
        with observability_scope(tracing=True):
            with InferenceServer(models=[BENCHMARK], policy=policy) as server:
                client = InferenceClient(server, model=BENCHMARK)
                rows = [[1, -1, -1, -1]] * 7
                result = client.submit(rows, kind="log_likelihood").result()
        assert len(result) == 7
        # Model registration leaves its own lifecycle.publish event
        # (a separate always-on trace); the request spans are the story.
        spans = [s for s in TRACER.spans() if not s.name.startswith("lifecycle.")]
        trace_ids = {span.trace_id for span in spans}
        assert len(trace_ids) == 1  # one request, one story
        names = [span.name for span in spans]
        assert names.count("serving.admission") == 1
        assert names.count("serving.respond") == 1
        assert names.count("serving.queue_wait") == 7  # one per row
        assert names.count("serving.batch_execute") >= 4  # ceil(7/2)
        assert names.count("session.run") == names.count("serving.batch_execute")
        # The engine spans nest under the batch-execute spans.
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.name == "session.run":
                assert by_id[span.parent_id].name == "serving.batch_execute"

    def test_concurrent_requests_keep_distinct_traces(self):
        with observability_scope(tracing=True):
            with InferenceServer(models=[BENCHMARK]) as server:
                client = InferenceClient(server, model=BENCHMARK)
                futures = [
                    client.submit({0: value}, kind="log_likelihood")
                    for value in (0, 1)
                ]
                for future in futures:
                    future.result()
        admissions = [s for s in TRACER.spans() if s.name == "serving.admission"]
        assert len(admissions) == 2
        assert len({s.trace_id for s in admissions}) == 2
        responds = [s for s in TRACER.spans() if s.name == "serving.respond"]
        assert {s.trace_id for s in responds} == {s.trace_id for s in admissions}

    def test_untraced_serving_records_no_request_spans(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            server.query(BENCHMARK, {0: 1}, kind="log_likelihood")
        # Only the always-on lifecycle.publish from model registration —
        # no admission/queue/execute/respond spans while tracing is off.
        assert [s.name for s in TRACER.spans()] == ["lifecycle.publish"]


# --------------------------------------------------------------------------- #
# Serving metrics integration
# --------------------------------------------------------------------------- #
class TestServingMetricsIntegration:
    def test_process_wide_counters_by_model_and_kind(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            server.query(BENCHMARK, {0: 1}, kind="log_likelihood")
            server.query(BENCHMARK, {0: 1}, kind="likelihood")
        snap = REGISTRY.snapshot()
        key = f'serving_requests_total{{kind="log_likelihood",model="{BENCHMARK}"}}'
        assert snap[key] == 1.0
        key = f'serving_rows_total{{kind="likelihood",model="{BENCHMARK}"}}'
        assert snap[key] == 1.0

    def test_counters_follow_a_cleared_registry(self):
        # The server holds its per-(model, kind) counter handles; after the
        # process registry is cleared it must count into fresh instruments.
        key = f'serving_requests_total{{kind="likelihood",model="{BENCHMARK}"}}'
        with InferenceServer(models=[BENCHMARK]) as server:
            server.query(BENCHMARK, {0: 1}, kind="likelihood")
            assert REGISTRY.snapshot()[key] == 1.0
            REGISTRY.clear()
            server.query(BENCHMARK, {0: 1}, kind="likelihood")
            assert REGISTRY.snapshot()[key] == 1.0

    def test_metrics_disabled_records_nothing(self):
        with observability_scope(metrics=False):
            with InferenceServer(models=[BENCHMARK]) as server:
                server.query(BENCHMARK, {0: 1}, kind="log_likelihood")
                snap = server.metrics.snapshot()
        assert snap["requests"] == 0
        assert snap["latency_p50_ms"] is None
        assert "serving_requests_total" not in str(REGISTRY.snapshot())

    def test_queue_depth_and_wait_instruments(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            server.query(BENCHMARK, [[1, -1, -1, -1]] * 3, kind="log_likelihood")
            registry = server.metrics.registry.snapshot()
        assert registry["serving_queue_depth"] == 0.0  # drained
        assert registry["serving_queue_wait_seconds"]["count"] >= 3

    def test_slow_query_warning_and_counter(self, caplog):
        with caplog.at_level("WARNING", logger="repro.serving"):
            with InferenceServer(models=[BENCHMARK], slow_query_s=0.0) as server:
                server.query(BENCHMARK, {0: 1}, kind="log_likelihood")
                registry = server.metrics.registry.snapshot()
        assert registry["serving_slow_requests_total"] == 1.0
        assert any("slow query" in record.message for record in caplog.records)

    def test_no_slow_query_log_by_default(self, caplog):
        with caplog.at_level("WARNING", logger="repro.serving"):
            with InferenceServer(models=[BENCHMARK]) as server:
                server.query(BENCHMARK, {0: 1}, kind="log_likelihood")
        assert not any("slow query" in r.message for r in caplog.records)


# --------------------------------------------------------------------------- #
# Lifecycle structured events
# --------------------------------------------------------------------------- #
class TestLifecycleEvents:
    def test_publish_swap_and_rollback_events(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            server.publish(BENCHMARK, "1", BENCHMARK, validate=True)
            server.rollback(BENCHMARK)
        events = {s.name: s for s in TRACER.spans()}
        publish = events["lifecycle.publish"]
        assert publish.attrs["model"] == BENCHMARK
        assert publish.attrs["validated"] is True
        assert publish.attrs["deviation"] == 0.0
        assert publish.attrs["duration_ms"] > 0.0
        rollback = events["lifecycle.rollback"]
        assert rollback.attrs["version"] == "0"
        assert rollback.attrs["previous"] == "1"
        snap = REGISTRY.snapshot()
        assert snap[f'lifecycle_publish_total{{model="{BENCHMARK}"}}'] == 2.0
        assert snap[f'lifecycle_rollback_total{{model="{BENCHMARK}"}}'] == 1.0

    def test_failed_shadow_validation_event(self):
        from repro.serving import ShadowValidationError
        from repro.suite.registry import build_benchmark

        with InferenceServer(models=[BENCHMARK]) as server:
            other = build_benchmark("EEG-eye")
            with pytest.raises(ShadowValidationError):
                server.publish(BENCHMARK, "2", other, validate=True)
        failures = [
            s for s in TRACER.spans() if s.name == "lifecycle.shadow_validation_failed"
        ]
        assert len(failures) == 1
        assert failures[0].attrs["deviation"] > 0.0
        key = f'lifecycle_shadow_validation_failed_total{{model="{BENCHMARK}"}}'
        assert REGISTRY.snapshot()[key] == 1.0

    def test_events_recorded_even_with_tracing_off(self):
        assert not observability.tracing_enabled()
        with InferenceServer(models=[BENCHMARK]):
            pass  # add_model publishes version "0"
        assert any(s.name == "lifecycle.publish" for s in TRACER.spans())


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCli:
    def test_snapshot_demo_json(self, capsys):
        assert obs_main(["snapshot", "--demo"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(key.startswith("serving_requests_total") for key in payload)

    def test_snapshot_prometheus(self, capsys):
        REGISTRY.counter("smoke_total").inc()
        assert obs_main(["snapshot", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE smoke_total counter" in out
        assert "smoke_total 1" in out

    def test_trace_summary(self, tmp_path, capsys, evidence):
        session = InferenceSession(BENCHMARK)
        with observability_scope(tracing=True):
            session.run(LogLikelihood(evidence=evidence))
        path = tmp_path / "spans.jsonl"
        TRACER.export_jsonl(path)
        assert obs_main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "session.run" in out
        assert "slowest traces" in out

    def test_trace_missing_file(self, capsys):
        assert obs_main(["trace", "/nonexistent/spans.jsonl"]) == 2
