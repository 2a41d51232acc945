"""Serving telemetry: latency quantiles, throughput and batch occupancy.

The three quantities that matter when tuning a :class:`BatchingPolicy`
(``docs/serving.md``):

* **request latency** — submit-to-result wall time per request, summarized
  as p50/p99 (the tail is what the max-wait knob trades against);
* **throughput** — completed rows per second over the observation window;
* **batch occupancy** — executed batch size relative to
  ``max_batch_size``; low occupancy under heavy load means the wait window
  is too short (batches close half-empty), occupancy pinned at 1.0 with a
  deep queue means the batch size cap is the bottleneck.

:class:`ServingMetrics` is built on the observability substrate
(:class:`repro.observability.MetricsRegistry`): every counter is a real
registry instrument and latency is a fixed-bucket histogram with a bounded
rolling sample window, so a server's telemetry is thread-safe, memory
bounded, and renderable in both snapshot-dict and Prometheus text form.
Each server owns a **private** registry (two servers in one process never
merge their counts); per-``(model, kind)`` request counters additionally
go to the process-wide :data:`repro.observability.REGISTRY` at the
server's admission path.  Recording respects the process-wide metrics
switch (:func:`repro.observability.metrics_enabled` — on by default).

:meth:`ServingMetrics.snapshot` is JSON-clean by contract: every value
round-trips through ``json.dumps`` — empty-window latency quantiles are
``None``, never NaN (NaN serializes as the invalid-JSON token ``NaN`` and
breaks strict parsers on the other side of a stats endpoint).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from ..observability import MetricsRegistry, metrics_enabled

__all__ = ["ServingMetrics"]

#: Rolling-window size for latency samples; quantiles describe the most
#: recent window rather than all of history (and memory stays bounded).
LATENCY_WINDOW = 100_000


class ServingMetrics:
    """Thread-safe counters for one server's traffic (private registry)."""

    def __init__(self, latency_window: int = LATENCY_WINDOW) -> None:
        #: This server's private instrument registry.  Gauges the serving
        #: layer maintains (queue depth, batch wait) register here too, so
        #: ``registry.snapshot()`` / ``render_prometheus()`` expose the
        #: whole serving picture in one read.
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter("serving_requests_total")
        self._rows = self.registry.counter("serving_rows_total")
        self._batches = self.registry.counter("serving_batches_total")
        self._batch_rows = self.registry.counter("serving_batch_rows_total")
        self._batch_capacity = self.registry.counter("serving_batch_capacity_total")
        self._latency = self.registry.histogram(
            "serving_request_latency_seconds", window=latency_window
        )
        # Window bounds for the throughput rate; instruments carry their own
        # locks, so these two floats ride on the GIL (single writes only).
        self._started_at: Optional[float] = None
        self._last_activity: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Recording (called by the server)
    # ------------------------------------------------------------------ #
    def record_batch(self, n_rows: int, capacity: int) -> None:
        """Record one executed batch group of ``n_rows`` rows (cap ``capacity``).

        The recorded unit is one engine call — a ``(model, kind)`` group of
        a micro-batch — which is what batch occupancy is meant to measure:
        how well each engine invocation is amortized.
        """
        if not metrics_enabled():
            return
        now = time.perf_counter()
        if self._started_at is None:
            self._started_at = now
        self._last_activity = now
        self._batches.inc()
        self._batch_rows.inc(n_rows)
        self._batch_capacity.inc(capacity)
        self._rows.inc(n_rows)

    def record_request(self, latency_s: float) -> None:
        """Record one completed request's submit-to-result latency."""
        self.record_requests((latency_s,))

    def record_requests(self, latencies_s: Sequence[float]) -> None:
        """Record completed requests' submit-to-result latencies at once."""
        if not latencies_s or not metrics_enabled():
            return
        self._requests.inc(len(latencies_s))
        self._latency.observe_many(latencies_s)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @property
    def n_requests(self) -> int:
        return int(self._requests.value)

    @property
    def n_batches(self) -> int:
        return int(self._batches.value)

    def latency_quantile(self, q: float) -> float:
        """Latency quantile in seconds over the rolling window (NaN if empty).

        The NaN-on-empty convention is kept here for numeric callers
        (``float`` arithmetic propagates it harmlessly); the JSON-facing
        :meth:`snapshot` reports ``None`` instead.
        """
        value = self._latency.quantile(q)
        return float("nan") if value is None else float(value)

    def snapshot(self) -> Dict[str, Optional[float]]:
        """One consistent reading of every counter, as a flat JSON-ready dict.

        ``throughput_rps`` is completed rows per second between the first
        and the last recorded batch (0.0 until two distinct instants have
        been observed); ``mean_batch_occupancy`` is the mean of
        ``batch_size / max_batch_size`` over all executed batches.  The
        latency quantiles are ``None`` until a request has completed —
        every value round-trips through ``json.dumps``.
        """
        n_rows = self._rows.value
        n_batches = self._batches.value
        batch_rows = self._batch_rows.value
        batch_capacity = self._batch_capacity.value
        elapsed = (
            self._last_activity - self._started_at
            if self._started_at is not None and self._last_activity is not None
            else 0.0
        )
        p50 = self._latency.quantile(0.5)
        p99 = self._latency.quantile(0.99)
        return {
            "requests": float(self._requests.value),
            "rows": float(n_rows),
            "batches": float(n_batches),
            "throughput_rps": n_rows / elapsed if elapsed > 0 else 0.0,
            "mean_batch_size": batch_rows / n_batches if n_batches else 0.0,
            "mean_batch_occupancy": (
                batch_rows / batch_capacity if batch_capacity else 0.0
            ),
            "latency_p50_ms": p50 * 1e3 if p50 is not None else None,
            "latency_p99_ms": p99 * 1e3 if p99 is not None else None,
        }

    def render_prometheus(self) -> str:
        """This server's instruments in Prometheus text exposition form."""
        return self.registry.render_prometheus()
