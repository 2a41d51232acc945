"""In-memory span recording around the public entry points of each layer.

The traced run wraps a fixed list of functions and methods where their
callers look them up (a module attribute for names imported by value, the
class for methods).  Each call becomes one span: its name, start, end,
parent span, request id, the benchmark phase it ran in, and a small
description taken from its arguments or result.  Spans stay in memory until
the run ends; :meth:`Recorder.write` then dumps them as JSON lines.

Self time is a span's duration minus the time its child spans cover.
Children of a span run on the span's own thread, one after another, so the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    request: Optional[object]
    phase: str
    info: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped callables; restores them on :meth:`close`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Label stored on every span; ``run.py`` sets it between phases.
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []
        #: perf_counter() at which each thread's last wrapped
        #: ``InferenceSession.run`` returned (the start of result delivery).
        self.last_end: Dict[str, Dict[int, float]] = defaultdict(dict)

    # ------------------------------------------------------------------ #
    def set_request(self, request: Optional[object]) -> None:
        """Tag the spans this thread opens from now on with ``request``."""
        self._local.request = request

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        describe: Optional[Callable[[tuple, dict, object], object]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``describe(args, kwargs, result)`` returns the span's ``info`` (kept
        small: it is stored per call).
        """
        original = getattr(owner, attr)
        local = self._local
        spans = self.spans
        ids = self._ids
        last_end = self.last_end[name]

        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            sid = next(ids)
            local.current = sid
            start = perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                local.current = parent
                last_end[threading.get_ident()] = end
                info = describe(args, kwargs, result) if describe is not None else None
                spans.append(
                    Span(sid, parent, name, start, end,
                         getattr(local, "request", None), self.phase, info)
                )

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {s.sid: s.duration - covered[s.sid] for s in self.spans}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "request": s.request,
                    "phase": s.phase, "info": s.info,
                }, default=str) + "\n")


def calibrate_span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call (median of 5 trials)."""

    class Probe:
        def noop(self):
            return None

    bare = Probe()
    recorder = Recorder()
    costs = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(n):
            bare.noop()
        plain = perf_counter() - start
        recorder.wrap(Probe, "noop", "probe")
        start = perf_counter()
        for _ in range(n):
            bare.noop()
        wrapped = perf_counter() - start
        recorder.close()
        recorder.spans.clear()
        costs.append((wrapped - plain) / n)
    costs.sort()
    return max(costs[len(costs) // 2], 0.0)
