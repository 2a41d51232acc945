"""Open-loop serving phase: a seeded Poisson schedule against one server.

One generating thread (the caller's) sends one-row requests through
``InferenceClient.submit`` to an ``InferenceServer`` with one worker and the
default ``BatchingPolicy``; 80 % are ``LogLikelihood`` and 20 % are
``Conditional``.  The schedule and every input row are generated from the
seed before any timing starts; the server only ever sees the rows.  Each
request's latency runs from the moment it was *due*, so a stall also
charges the requests that queued up behind it.

Two measurements, half of the phase's time each:

* a fixed rate (``FIXED_RATE``, a quarter to a third of capacity on a
  2-CPU host), giving the latencies ``serve_p50_ms`` and ``serve_p99_ms``
  and the per-layer attribution;
* an offered rate well beyond capacity (``SATURATION_RATE``), giving
  ``serve_capacity_rps``: requests completed per second while admission
  backpressure holds the generator back, so the server never idles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter, sleep
from typing import Dict, List, Optional

import numpy as np

from common import Timer, median, quantile

#: Offered load of the latency measurement (requests per second).
FIXED_RATE = 1100.0
#: Offered load of the capacity measurement: about three times what one
#: worker completes on a 2-CPU host, so the admission queue stays full.
SATURATION_RATE = 12000.0
CONDITIONAL_SHARE = 0.2
#: Requests per window; p99 over 1000 requests has 10 samples beyond it.
WINDOW = 1000
MODEL = "KDDCup2k"


@dataclass
class Pool:
    """Pre-generated inputs: unit-rate arrival gaps, kinds and rows."""

    gaps: np.ndarray  # exponential, mean 1: divide by the rate
    conditional: np.ndarray  # bool per request
    evidence: np.ndarray  # (n, n_vars) int8, -1 = unobserved
    query: np.ndarray  # (n, n_vars) int8, observed only where evidence is not

    @classmethod
    def generate(cls, rng: np.random.Generator, n: int, n_vars: int) -> "Pool":
        evidence = rng.integers(-1, 2, size=(n, n_vars), dtype=np.int8)
        pick = (evidence < 0) & (rng.random((n, n_vars)) < 0.3)
        query = np.where(pick, rng.integers(0, 2, size=(n, n_vars)), -1)
        return cls(
            gaps=rng.exponential(1.0, n),
            conditional=rng.random(n) < CONDITIONAL_SHARE,
            evidence=evidence,
            query=query.astype(np.int8),
        )


@dataclass
class Outcome:
    """Per-request timings and answers of one schedule run."""

    lo: int
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    values: np.ndarray
    failed: np.ndarray
    deliver: np.ndarray
    sent_n: int = 0
    stats: Dict[str, float] = field(default_factory=dict)

    def latency_ms(self) -> np.ndarray:
        return (self.done[: self.sent_n] - self.due[: self.sent_n]) * 1e3

    def throughput(self) -> float:
        """Requests completed per second, from the first send to the last answer."""
        return self.sent_n / (self.done[: self.sent_n].max() - self.sent[0])


class OpenLoop:
    """Drives one server from the caller's thread on a pre-made schedule."""

    def __init__(self, client, api, pool: Pool, recorder=None) -> None:
        self.client = client
        self.api = api
        self.pool = pool
        self.recorder = recorder
        self._lock = threading.Lock()

    def _query(self, i: int):
        pool = self.pool
        if pool.conditional[i]:
            return self.api.Conditional(
                query=pool.query[i : i + 1], evidence=pool.evidence[i : i + 1]
            )
        return self.api.LogLikelihood(evidence=pool.evidence[i : i + 1])

    def run(self, rate: float, lo: int, n: int, stop_after: Optional[float] = None) -> Outcome:
        """Send requests ``lo .. lo+n`` at ``rate`` and wait for every answer.

        ``stop_after`` ends sending that many seconds after the first request,
        whatever is left of the schedule.
        """
        out = Outcome(
            lo=lo,
            due=np.cumsum(self.pool.gaps[lo : lo + n]) / rate,
            sent=np.zeros(n), done=np.zeros(n), values=np.full(n, np.nan),
            failed=np.zeros(n, dtype=bool), deliver=np.full(n, np.nan),
        )
        remaining = [n]
        finished = threading.Event()
        recorder = self.recorder
        last_run_end = recorder.last_end["session.run"] if recorder else None

        def resolved() -> None:
            with self._lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    finished.set()

        def on_done(k: int, future) -> None:
            now = perf_counter()
            out.done[k] = now
            if last_run_end is not None:
                ended = last_run_end.get(threading.get_ident())
                if ended is not None:
                    out.deliver[k] = now - ended
            try:
                out.values[k] = future.result()[0]
            except Exception:  # counted as a failed request
                out.failed[k] = True
            resolved()

        submit = self.client.submit
        out.due += perf_counter() + 0.02
        due = out.due
        stop_at = due[0] + stop_after if stop_after is not None else float("inf")
        for k in range(n):
            wait = due[k] - perf_counter()
            if wait > 0:
                sleep(wait)
            start = perf_counter()
            if start > stop_at:
                break
            out.sent[k] = start
            out.sent_n = k + 1
            if recorder is not None:
                recorder.set_request(lo + k)
            try:
                future = submit(self._query(lo + k))
            except Exception:  # refused at admission
                out.failed[k] = True
                out.done[k] = perf_counter()
                resolved()
                continue
            future.add_done_callback(partial(on_done, k))
        if recorder is not None:
            recorder.set_request(None)
        with self._lock:
            remaining[0] -= n - out.sent_n
            if remaining[0] == 0:
                finished.set()
        if not finished.wait(timeout=60.0):
            raise RuntimeError(f"requests still pending 60 s after the schedule at {rate:.0f}/s")
        return out


def windowed(latency: np.ndarray, q: float) -> float:
    """Median over consecutive ``WINDOW``-request windows of the q-quantile."""
    n = len(latency) // WINDOW
    if n == 0:
        return quantile(latency, q)
    return median([quantile(latency[i * WINDOW : (i + 1) * WINDOW], q) for i in range(n)])


class ServePhase:
    """Set-up, measurement and checks of the open-loop serving workload."""

    name = "serve"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.path = ctx.artifact_path(MODEL)
        self.server = None
        self.artifact = None
        self.outcomes: List[Outcome] = []

    def setup(self, timer: Timer) -> tuple:
        """Load the artifact file (statics gate included) and start a server."""
        if self.server is not None:
            self.server.stop()
        ctx = self.ctx

        def start():
            artifact = ctx.load_artifact(self.path)
            return artifact, ctx.serving.InferenceServer(models=[artifact], n_workers=1).start()

        (self.artifact, self.server), cpu, wall = timer.time(start)
        return cpu, wall

    def measure(self, seconds: float) -> None:
        ctx = self.ctx
        n_fixed = int(FIXED_RATE * seconds / 2)
        n_saturated = int(SATURATION_RATE * seconds / 2)
        pool = self.pool = Pool.generate(ctx.rng, n_fixed + n_saturated, self.artifact.n_vars)
        client = ctx.serving.InferenceClient(self.server, model=self.artifact.name)
        loop = OpenLoop(client, ctx.api, pool, ctx.recorder)
        # Each server counts from its start; read deltas around the fixed run.
        before = self.server.stats()["metrics"]
        ctx.set_phase("serve.fixed")
        fixed = loop.run(FIXED_RATE, 0, n_fixed)
        after = self.server.stats()["metrics"]
        wait = self.server.metrics.registry.histogram("serving_queue_wait_seconds")
        fixed.stats = {
            "batches": after["batches"] - before["batches"],
            "rows": after["rows"] - before["rows"],
            "queue_wait_p50": wait.quantile(0.5),
            "queue_wait_p99": wait.quantile(0.99),
        }
        ctx.set_phase("serve.saturated")
        saturated = loop.run(SATURATION_RATE, n_fixed, n_saturated, stop_after=seconds / 2)
        self.outcomes = [fixed, saturated]
        self.fixed, self.saturated = fixed, saturated
        self.registry = self.server.stats()["registry"]
        self.threads = threading.active_count()
        self.n_kernels = len(self.artifact.tape.kernels)
        self.server.stop()

    def check(self) -> tuple:
        """(attempted, failed): served answers must equal offline ``session.run``."""
        ctx = self.ctx
        session = self.artifact.session()
        pool = self.pool
        attempted = failed = 0
        for out in self.outcomes:
            n = out.sent_n
            attempted += n
            rows = np.arange(out.lo, out.lo + n)
            expected = np.empty(n)
            cond = pool.conditional[rows]
            if (~cond).any():
                expected[~cond] = session.run(
                    ctx.api.LogLikelihood(evidence=pool.evidence[rows[~cond]])
                )
            if cond.any():
                expected[cond] = session.run(
                    ctx.api.Conditional(
                        query=pool.query[rows[cond]], evidence=pool.evidence[rows[cond]]
                    )
                )
            expected = ctx.expect("serve", expected)
            served = out.values[:n]
            equal = (served == expected) | (np.isnan(served) & np.isnan(expected))
            failed += int((out.failed[:n] | ~equal).sum())
        return attempted, failed

    def release(self) -> None:
        """Drop the model, server and inputs; keep the measured outcomes."""
        self.artifact = self.server = self.pool = None
        self.outcomes = []

    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, float]:
        """No end-to-end metrics: see :meth:`user_metrics`."""
        return {}

    def user_metrics(self) -> Dict[str, float]:
        """Latency at the fixed rate and capacity, reported per layer.

        Host contention moved each of them by up to 0.3 of its median
        between ten-run sets, beyond any end-to-end bound (at most 0.25).
        p50 and p99 are medians over 1000-request windows.
        """
        latency = self.fixed.latency_ms()
        return {
            "serve_p50_ms": windowed(latency, 0.5),
            "serve_p99_ms": windowed(latency, 0.99),
            "serve_capacity_rps": self.saturated.throughput(),
        }
