"""Process-wide metrics registry: counters, gauges and fixed-bucket histograms.

Every layer of the system — serving admission, the micro-batch queue, the
model-lifecycle registry, the tape executors — reports into one substrate so
"what is the server doing right now" has a single answer.  The design is the
standard pull-model shape (Prometheus client libraries, OpenMetrics), kept
zero-dependency:

* a :class:`MetricsRegistry` owns named instruments, each identified by a
  metric **name** plus a sorted **label set** (``requests_total{kind="mpe",
  model="Audio"}``); :func:`MetricsRegistry.counter` and friends are
  get-or-create, so instrument handles can be cached by hot paths or looked
  up ad hoc by cold ones;
* three instrument kinds: :class:`Counter` (monotone float), :class:`Gauge`
  (set/add), and :class:`Histogram` (fixed upper-bound buckets plus a
  bounded rolling sample window for exact quantiles — the window is what
  keeps :meth:`Histogram.quantile` exact while bucket counts stay
  Prometheus-renderable and the memory stays bounded);
* every update is thread-safe (one lock per instrument; registration takes
  the registry lock), so serving workers, admission threads and background
  publishers hammer the same instruments without coordination;
* two read forms: :meth:`MetricsRegistry.snapshot` — one consistent
  JSON-serializable dict keyed ``name{label="v",...}`` — and
  :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format, so a scrape endpoint (or the
  ``python -m repro.observability snapshot`` CLI) is a string away.

:data:`REGISTRY` is the process-wide default registry.  Subsystems that
need isolated numbers (each :class:`~repro.serving.metrics.ServingMetrics`
instance, tests) construct private registries; naming conventions are
documented in ``docs/observability.md``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "LATENCY_BUCKETS",
]

#: Default histogram upper bounds (seconds), log-spaced across the latency
#: range a served query can realistically land in: 100us to 10s.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
)

#: Default rolling-window size for histogram quantile samples.
DEFAULT_WINDOW = 8192

LabelValue = Union[str, int, float, bool]


def _label_key(labels: Mapping[str, LabelValue]) -> str:
    """Render a label mapping as the canonical sorted ``{k="v",...}`` suffix."""
    if not labels:
        return ""
    parts = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + parts + "}"


class Counter:
    """A monotonically increasing value (requests served, rows executed)."""

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, LabelValue]):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot_value(self) -> float:
        return self.value


class Gauge:
    """A value that goes both ways (queue depth, live model versions)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, LabelValue]):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def track(self, function: Callable[[], float]) -> None:
        """Read the gauge live from ``function`` from now on.

        For a quantity its owner already keeps exactly (queue depth,
        requests in flight): each read calls ``function``, so the hot path
        that changes the quantity pays nothing to report it.  The value
        :meth:`set`, :meth:`inc` and :meth:`dec` keep is not read while a
        function is tracked.
        """
        with self._lock:
            self._function = function

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            function, value = self._function, self._value
        # Called outside the gauge lock: the function takes its owner's.
        return value if function is None else float(function())

    def snapshot_value(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket distribution with a bounded window for exact quantiles.

    ``buckets`` are inclusive upper bounds (an implicit ``+Inf`` bucket is
    always appended); ``observe`` increments the matching cumulative-style
    counts, the running sum/count, and a rolling deque of the most recent
    ``window`` raw samples.  Quantiles are computed exactly over that
    window (the tail of a long-running server's traffic), not interpolated
    from buckets — bucket counts exist for the Prometheus rendering and for
    all-of-history rate math.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, LabelValue],
        buckets: Sequence[float] = LATENCY_BUCKETS,
        window: int = DEFAULT_WINDOW,
    ):
        self.name = name
        self.labels = dict(labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        self.buckets: Tuple[float, ...] = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +Inf bucket last
        self._sum = 0.0
        self._count = 0
        self._samples: Deque[float] = deque(maxlen=max(int(window), 1))

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` every value in order, under one lock acquisition."""
        values = [float(value) for value in values]
        top = len(self.buckets)
        # The first bound >= value; NaN compares false to every bound and
        # lands in +Inf, as a linear ``value <= bound`` scan would put it.
        indices = [
            bisect_left(self.buckets, value) if value == value else top
            for value in values
        ]
        with self._lock:
            for index, value in zip(indices, values):
                self._counts[index] += 1
                self._sum += value
            self._count += len(values)
            self._samples.extend(values)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """Exact quantile over the rolling window; ``None`` with no samples.

        Linear interpolation between order statistics (the ``np.quantile``
        default), implemented locally so the registry has no NumPy
        dependency on its read path.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return None
        if len(samples) == 1:
            return samples[0]
        position = q * (len(samples) - 1)
        lo = math.floor(position)
        hi = min(lo + 1, len(samples) - 1)
        frac = position - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac

    def snapshot_value(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            total, sum_ = self._count, self._sum
        return {
            "buckets": {
                **{str(bound): counts[i] for i, bound in enumerate(self.buckets)},
                "+Inf": counts[-1],
            },
            "count": total,
            "sum": sum_,
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Thread-safe name+labels → instrument store with snapshot/rendering."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, str], Instrument] = {}
        #: Bumped by :meth:`clear`: a hot path that holds instrument
        #: handles looks them up again once its generation has passed.
        self.generation = 0

    # ------------------------------------------------------------------ #
    # Registration (get-or-create)
    # ------------------------------------------------------------------ #
    def _get_or_create(self, cls, name: str, labels: Mapping, **kwargs) -> Instrument:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, labels, **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
            return instrument

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        window: int = DEFAULT_WINDOW,
        **labels: LabelValue,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels, buckets=buckets, window=window
        )

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def instruments(self) -> List[Instrument]:
        with self._lock:
            return [self._instruments[key] for key in sorted(self._instruments)]

    def snapshot(self) -> Dict[str, object]:
        """One consistent reading of every instrument, JSON-serializable.

        Keys are ``name`` or ``name{label="v",...}`` (labels sorted);
        counter/gauge values are floats, histograms nest ``{buckets,
        count, sum}``.  The dict round-trips through ``json.dumps``.
        """
        return {
            instrument.name + _label_key(instrument.labels): instrument.snapshot_value()
            for instrument in self.instruments()
        }

    def render_prometheus(self) -> str:
        """The Prometheus/OpenMetrics text exposition of every instrument."""
        lines: List[str] = []
        seen_types = set()
        for instrument in self.instruments():
            if instrument.name not in seen_types:
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
                seen_types.add(instrument.name)
            label_key = _label_key(instrument.labels)
            if isinstance(instrument, Histogram):
                snap = instrument.snapshot_value()
                cumulative = 0
                for bound in (*instrument.buckets, "+Inf"):
                    cumulative += snap["buckets"][str(bound)]
                    bucket_labels = dict(instrument.labels, le=str(bound))
                    lines.append(
                        f"{instrument.name}_bucket{_label_key(bucket_labels)} "
                        f"{cumulative}"
                    )
                lines.append(f"{instrument.name}_sum{label_key} {snap['sum']}")
                lines.append(f"{instrument.name}_count{label_key} {snap['count']}")
            else:
                lines.append(f"{instrument.name}{label_key} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        """Drop every instrument (tests; a fresh process starts empty anyway)."""
        with self._lock:
            self._instruments.clear()
            self.generation += 1


#: The process-wide default registry every subsystem reports into unless it
#: was handed a private one.
REGISTRY = MetricsRegistry()
