"""Per-layer metrics of the traced run.

:func:`install` wraps the public entry point of each layer where its caller
looks it up; :func:`collect` turns the recorded spans (and the counters the
phases read from the library's own public state) into the per-layer metrics
listed in ``UNITS``.  Span names are the layer names of ``README.md``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np

from common import geomean, median, quantile
from spans import Recorder, calibrate_span_cost

UNITS = {
    # serving
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_capacity_rps": "1/s",
    "client.submit_us.p50": "us",
    "client.submit_us.p99": "us",
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.p99": "ms",
    "serving.deliver_ms.p99": "ms",
    "serving.batch_rows.mean": "rows",
    "serving.batches": "count",
    "serving.shed": "count",
    "serving.deadline_exceeded": "count",
    "serving.worker_restarts": "count",
    "serving.threads": "count",
    "gen.late_ms.max": "ms",
    # api
    "api.session_run_us.p50.log_likelihood": "us",
    "api.session_run_us.p50.conditional": "us",
    "api.session_self_us.p50.log_likelihood": "us",
    "api.session_self_us.p50.conditional": "us",
    "api.session_run_ms.likelihood": "ms",
    "api.session_run_ms.log_likelihood": "ms",
    "api.session_run_ms.conditional": "ms",
    "api.session_self_ms.likelihood": "ms",
    "api.session_self_ms.log_likelihood": "ms",
    "api.session_self_ms.conditional": "ms",
    "api.passes_per_query.likelihood": "count",
    "api.passes_per_query.log_likelihood": "count",
    "api.passes_per_query.conditional": "count",
    # spn
    "spn.tape_pass_us.p50": "us",
    "spn.kernel_dispatch_us": "us",
    "spn.tape_pass_ms.linear": "ms",
    "spn.tape_pass_ms.log": "ms",
    "spn.pass_bytes": "bytes",
    "spn.pass_gbps.linear": "GB/s",
    "spn.pass_gbps.log": "GB/s",
    "spn.peak_slots": "count",
    # lifecycle / statics, suite
    "lifecycle.load_artifact_s": "s",
    "serving.start_s": "s",
    "spn.linearize_s": "s",
    # compiler
    "compiler.cones_s": "s",
    "compiler.schedule_s": "s",
    "compiler.instructions.ptree": "count",
    "compiler.instructions.pvect": "count",
    "compiler.copies": "count",
    "compiler.loads": "count",
    "compiler.max_live_registers": "count",
    # processor
    "processor.simulate_s": "s",
    "processor.host_instr_per_s": "1/s",
    "processor.cycles.ptree": "cycles",
    "processor.cycles.pvect": "cycles",
    "processor.pe_utilization": "ratio",
    # baselines / platforms
    "baselines.cpu_s": "s",
    "baselines.gpu_s": "s",
    "baselines.gpu_ops_per_cycle": "ops/cycle",
    # the run itself
    "error_rate": "ratio",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
    "traced.bulk_log_rows_per_s": "rows/s",
    "traced.sweep_s": "s",
    # wall-clock seconds beside the CPU seconds of the end-to-end timings
    "wall.setup_s": "s",
    "wall.bulk_linear_rows_per_s": "rows/s",
    "wall.bulk_log_rows_per_s": "rows/s",
    "wall.sweep_s": "s",
    "host.slowdown": "x",
}


def _query_info(args, kwargs, result):
    query = args[1] if len(args) > 1 else kwargs["query"]
    return (query.kind.value, query.n_rows)


def _pass_info(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    log = args[2] if len(args) > 2 else kwargs.get("log_domain", False)
    return ("log" if log else "linear", int(np.shape(data)[0]))


def _schedule_info(args, kwargs, result):
    stats = result[1]
    return (stats.n_instructions, stats.n_copies, stats.n_loads, stats.max_live_registers)


def _simulate_info(args, kwargs, result):
    return (result.cycles, result.n_instructions, result.pe_utilization)


def install() -> Recorder:
    """Wrap every traced entry point; the caller closes the recorder."""
    from repro.api.session import InferenceSession
    from repro.compiler import driver
    from repro.compiler.scheduler import Scheduler
    from repro.lifecycle import artifact
    from repro.platforms.engines import CpuEngine, GpuEngine, ProcessorEngine
    from repro.processor.simulator import Simulator
    from repro.serving import InferenceClient, InferenceServer
    from repro.spn.compiled import CompiledTape
    from repro.suite import registry

    recorder = Recorder()
    wrap = recorder.wrap
    wrap(InferenceClient, "submit", "client.submit")
    wrap(InferenceSession, "run", "session.run", _query_info)
    wrap(CompiledTape, "execute_batch", "tape.execute_batch", _pass_info)
    wrap(artifact, "load_artifact", "lifecycle.load_artifact")
    wrap(InferenceServer, "start", "serving.start")
    wrap(registry, "linearize", "spn.linearize")
    wrap(driver, "extract_cones", "compiler.extract_cones")
    wrap(Scheduler, "run", "compiler.schedule", _schedule_info)
    wrap(Simulator, "run", "processor.simulate", _simulate_info)
    wrap(ProcessorEngine, "run", "processor.engine",
         lambda args, kwargs, result: args[0].config.name)
    wrap(CpuEngine, "run", "baselines.cpu")
    wrap(GpuEngine, "run", "baselines.gpu",
         lambda args, kwargs, result: result.ops_per_cycle)
    return recorder


def collect(recorder: Recorder, phases, end_to_end: Dict[str, float], phase_s) -> Dict[str, float]:
    serve, bulk, sweep = phases
    spans = recorder.spans
    by_id = {s.sid: s for s in spans}
    self_time = recorder.self_times()
    m: Dict[str, float] = {}

    def durations(name, phase, info=None, own=False) -> List[float]:
        """Durations (self times with ``own``) of matching spans."""
        return [self_time[s.sid] if own else s.duration for s in spans
                if s.name == name and s.phase == phase
                and (info is None or s.info[0] == info)]

    # serving: the fixed-rate run
    fixed = serve.fixed
    m.update(serve.user_metrics())
    submit = durations("client.submit", "serve.fixed")
    m["client.submit_us.p50"] = median(submit) * 1e6
    m["client.submit_us.p99"] = quantile(submit, 0.99) * 1e6
    m["serving.queue_wait_ms.p50"] = fixed.stats["queue_wait_p50"] * 1e3
    m["serving.queue_wait_ms.p99"] = fixed.stats["queue_wait_p99"] * 1e3
    deliver = fixed.deliver[: fixed.sent_n]
    m["serving.deliver_ms.p99"] = quantile(deliver[~np.isnan(deliver)], 0.99) * 1e3
    m["serving.batch_rows.mean"] = fixed.stats["rows"] / fixed.stats["batches"]
    m["serving.batches"] = fixed.stats["batches"]
    m["serving.shed"] = serve.registry.get("serving_shed_total", 0.0)
    m["serving.deadline_exceeded"] = serve.registry.get("serving_deadline_exceeded_total", 0.0)
    m["serving.worker_restarts"] = serve.registry.get("serving_worker_restarts_total", 0.0)
    m["serving.threads"] = serve.threads
    m["gen.late_ms.max"] = float((fixed.sent - fixed.due)[: fixed.sent_n].max() * 1e3)

    # api
    for kind in ("log_likelihood", "conditional"):
        m[f"api.session_run_us.p50.{kind}"] = median(durations("session.run", "serve.fixed", kind)) * 1e6
        m[f"api.session_self_us.p50.{kind}"] = median(durations("session.run", "serve.fixed", kind, own=True)) * 1e6
    for kind in ("likelihood", "log_likelihood", "conditional"):
        m[f"api.session_run_ms.{kind}"] = median(durations("session.run", "bulk", kind)) * 1e3
        m[f"api.session_self_ms.{kind}"] = median(durations("session.run", "bulk", kind, own=True)) * 1e3
        m[f"api.passes_per_query.{kind}"] = bulk.passes[kind] / len(bulk.times[kind])

    # spn
    serve_pass = median(durations("tape.execute_batch", "serve.fixed"))
    m["spn.tape_pass_us.p50"] = serve_pass * 1e6
    m["spn.kernel_dispatch_us"] = serve_pass * 1e6 / serve.n_kernels
    pass_bytes = bulk.pass_bytes
    m["spn.pass_bytes"] = pass_bytes
    m["spn.peak_slots"] = bulk.peak_slots
    for domain in ("linear", "log"):
        t = median(durations("tape.execute_batch", "bulk", domain))
        m[f"spn.tape_pass_ms.{domain}"] = t * 1e3
        m[f"spn.pass_gbps.{domain}"] = pass_bytes / t / 1e9

    # lifecycle / statics, suite
    m["lifecycle.load_artifact_s"] = median(durations("lifecycle.load_artifact", "setup.serve"))
    m["serving.start_s"] = median(durations("serving.start", "setup.serve"))
    linearize = durations("spn.linearize", "setup.sweep")
    setups = len(linearize) / len(sweep.names)  # one span per network per set-up
    m["spn.linearize_s"] = sum(linearize) / setups

    # compiler, processor, baselines: per-grid totals
    grids = len(sweep.grid_s)
    engine_of = lambda s: by_id[s.parent].info.lower()  # noqa: E731 - Ptree/Pvect
    schedule = [s for s in spans if s.name == "compiler.schedule" and s.phase == "sweep"]
    simulate = [s for s in spans if s.name == "processor.simulate" and s.phase == "sweep"]
    m["compiler.cones_s"] = sum(durations("compiler.extract_cones", "sweep")) / grids
    m["compiler.schedule_s"] = sum(s.duration for s in schedule) / grids
    counts = defaultdict(int)
    for s in schedule:
        counts["instructions." + engine_of(s)] += s.info[0]
        counts["copies"] += s.info[1]
        counts["loads"] += s.info[2]
    for key in ("instructions.ptree", "instructions.pvect", "copies", "loads"):
        m["compiler." + key] = counts[key] / grids
    m["compiler.max_live_registers"] = max(s.info[3] for s in schedule)
    sim_s = sum(s.duration for s in simulate)
    m["processor.simulate_s"] = sim_s / grids
    m["processor.host_instr_per_s"] = sum(s.info[1] for s in simulate) / sim_s
    for name in ("ptree", "pvect"):
        m[f"processor.cycles.{name}"] = sum(s.info[0] for s in simulate if engine_of(s) == name) / grids
    m["processor.pe_utilization"] = geomean(s.info[2] for s in simulate)
    m["baselines.cpu_s"] = sum(durations("baselines.cpu", "sweep")) / grids
    m["baselines.gpu_s"] = sum(durations("baselines.gpu", "sweep")) / grids
    m["baselines.gpu_ops_per_cycle"] = geomean(
        s.info for s in spans if s.name == "baselines.gpu" and s.phase == "sweep"
    )

    # the run itself
    measured = sum(phase_s.values())
    m["error_rate"] = 1.0 - end_to_end["success_rate"]
    m["trace.spans"] = len(spans)
    m["trace.overhead_pct"] = 100.0 * len(spans) * calibrate_span_cost() / measured
    m["traced.bulk_log_rows_per_s"] = end_to_end["bulk_log_rows_per_s"]
    m["traced.sweep_s"] = end_to_end["sweep_s"]
    for name in ("setup_s", "bulk_linear_rows_per_s", "bulk_log_rows_per_s", "sweep_s"):
        m["wall." + name] = end_to_end["wall." + name]
    m["host.slowdown"] = end_to_end["host.slowdown"]
    return {name: float(m[name]) for name in UNITS}
