"""Admission queue with dynamic micro-batching (the serving layer's core).

A serving system receives *individual* queries but every engine in this
repository is fastest on *batches* (the compiled tape evaluates a whole
evidence batch with ``O(depth)`` NumPy calls regardless of the row count).
:class:`MicroBatchQueue` bridges the two: producers enqueue row-level
:class:`WorkItem`\\ s and a worker calling :meth:`MicroBatchQueue.get_batch`
receives them coalesced into micro-batches under a
max-batch-size / max-wait policy:

* a batch closes as soon as it holds :attr:`BatchingPolicy.max_batch_size`
  items (the throughput bound — one engine call per batch), or
* :attr:`BatchingPolicy.max_wait_s` after the batch's first item was taken
  (the latency bound — a lone request is never stalled longer than the wait
  window waiting for company).

Admission applies **backpressure**: the queue holds at most
:attr:`BatchingPolicy.max_queue_depth` items and :meth:`MicroBatchQueue.put`
blocks (or raises :class:`QueueFullError` when given a timeout) until space
frees up, so a burst of producers cannot grow memory without bound — they
are slowed down to the rate the workers drain.

Shutdown is graceful by construction: :meth:`MicroBatchQueue.close` stops
admission but lets consumers drain every already-admitted item;
:meth:`get_batch` returns ``None`` only once the queue is both closed and
empty.  :meth:`MicroBatchQueue.requeue` is the crash-rescue path: items a
dying worker hands back re-enter at the *front* of the queue, bypassing
the depth bound and the closed check — they were admitted once already,
so re-admission neither raises backpressure nor violates drain semantics.

The consumer side carries one fault site (``queue.stall``,
:mod:`repro.faults`): with a plan installed, a consumer may be delayed
before collecting its batch, which is how the chaos soak drives queue
depth up and trips admission backpressure on demand.  The site costs one
module-attribute read when no plan is installed.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..faults.hooks import active_plan as _active_fault_plan

__all__ = [
    "BatchingPolicy",
    "MicroBatchQueue",
    "QueueClosedError",
    "QueueFullError",
    "WorkItem",
]


class QueueFullError(RuntimeError):
    """Raised when admission times out against a full queue (backpressure)."""


class QueueClosedError(RuntimeError):
    """Raised when putting into a queue that has been closed."""


@dataclass(frozen=True)
class BatchingPolicy:
    """The three knobs of the dynamic-batching trade-off.

    ``max_batch_size`` bounds work per engine call (larger batches amortize
    the per-call overhead further but delay every request in the batch until
    the batch executes); ``max_wait_s`` bounds how long a request may wait
    for co-batched company (the latency floor under light load);
    ``max_queue_depth`` bounds admitted-but-unserved items (the backpressure
    threshold).  See ``docs/serving.md`` for how to choose them.
    """

    max_batch_size: int = 64
    max_wait_s: float = 0.002
    max_queue_depth: int = 4096

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")


@dataclass(slots=True)
class WorkItem:
    """One query row awaiting execution.

    ``kind`` is the row's *group key* (:meth:`repro.api.Query.group_key`:
    the query kind plus every execution flag) — workers coalesce only rows
    with equal keys, so co-batching can never change a result.  ``row`` is
    the row payload (an evidence row; a stacked ``(query, evidence)`` row
    pair for conditionals).  ``request`` is the aggregate the row belongs
    to (see :class:`repro.serving.server._PendingRequest`); ``index`` is
    the row's position within that request, so multi-row requests
    reassemble their result vector no matter how the rows were scattered
    across micro-batches.  ``served`` is the
    :class:`~repro.serving.server.ServedModel` *pinned at admission*:
    workers execute the row on exactly this version's session and tape,
    so rows in flight across a hot-swap drain on the version that
    admitted them.

    ``trace`` is the admission-time
    :class:`~repro.observability.TraceContext` (or ``None`` when tracing
    is off).  Worker threads do not inherit the submitter's contextvars,
    so the context rides the item explicitly — it is what stitches a
    request's queue-wait and execute spans to the same trace id as its
    admission span, even when the request's rows scatter across
    micro-batches.  ``admitted_at`` (``time.perf_counter``) marks when the
    row entered the queue; workers subtract it from the dequeue instant to
    measure queue wait.

    ``deadline_at`` is the request's absolute deadline on the serving
    clock (``None`` = no deadline): workers drop the row — failing the
    request with :class:`~repro.serving.resilience.DeadlineExceededError`
    — when the deadline has passed before the row reaches execution.
    ``attempts`` counts crash rescues: each time a dying worker hands the
    item back via :meth:`MicroBatchQueue.requeue` it increments, and past
    the server's rescue limit the request fails with
    :class:`~repro.serving.resilience.WorkerCrashError` instead.
    """

    model: str
    kind: object
    row: object
    index: int
    request: object
    served: object = None
    trace: object = None
    admitted_at: float = 0.0
    deadline_at: Optional[float] = None
    attempts: int = 0


class MicroBatchQueue:
    """Thread-safe admission queue that hands out micro-batches.

    One condition variable guards a deque; producers block when the queue is
    at ``max_queue_depth`` and consumers block when it is empty.  Batches
    are formed on the consumer side (:meth:`get_batch`), which keeps the
    admission path a cheap append.
    """

    def __init__(
        self,
        policy: Optional[BatchingPolicy] = None,
        depth_gauge: Optional[object] = None,
    ) -> None:
        self.policy = policy or BatchingPolicy()
        self._items: Deque[WorkItem] = deque()
        # Two conditions on one lock (the queue.Queue pattern): producers
        # wait on not_full, consumers on not_empty, and each side issues a
        # targeted notify instead of waking every waiter per item.
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        # Who a put must wake: consumers blocked for a batch's first item
        # want every item; a consumer inside its batch window wants waking
        # only once the queue holds enough to fill its batch (or is full).
        # Waking it per item would hand the GIL back and forth with the
        # submitter on every request for no change in the batch it forms.
        self._idle_consumers = 0
        self._fill_marks: List[int] = []
        self._blocked_producers = 0  # waiting on not_full: a pop must wake one
        if depth_gauge is not None:
            # An optional observability gauge (a repro.observability.Gauge)
            # reading the instantaneous depth live, under the queue lock.
            depth_gauge.track(self.__len__)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        # One bool read needs no lock; put() re-checks under it.
        return self._closed

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def put(self, item: WorkItem, timeout: Optional[float] = None) -> None:
        """Admit one item, blocking while the queue is full.

        With ``timeout`` set, waiting for space gives up after that many
        seconds and raises :class:`QueueFullError` (``timeout=0`` is a
        non-blocking try).  Raises :class:`QueueClosedError` once the queue
        has been closed.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._lock:
            while True:
                if self._closed:
                    raise QueueClosedError("queue is closed to new work")
                if len(self._items) < self.policy.max_queue_depth:
                    break
                if deadline is None:
                    remaining = None
                else:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        raise self._full_error(timeout)
                self._blocked_producers += 1
                try:
                    woken = self._not_full.wait(remaining)
                finally:
                    self._blocked_producers -= 1
                if not woken:
                    raise self._full_error(timeout)
            self._items.append(item)
            if self._idle_consumers or (
                self._fill_marks and len(self._items) >= min(self._fill_marks)
            ):
                self._not_empty.notify()

    def _full_error(self, timeout: Optional[float]) -> QueueFullError:
        return QueueFullError(
            f"queue full ({self.policy.max_queue_depth} items) "
            f"after waiting {timeout}s"
        )

    def put_many(self, items: List[WorkItem], timeout: Optional[float] = None) -> None:
        """Admit several items, applying backpressure item by item.

        A request larger than ``max_queue_depth`` is admitted incrementally
        as consumers drain the queue — it never deadlocks as long as workers
        are running, and never bypasses the depth bound.  ``timeout`` is one
        deadline for the whole call, not per item.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        for item in items:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.perf_counter())
            )
            self.put(item, timeout=remaining)

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def get_batch(self, timeout: Optional[float] = None) -> Optional[List[WorkItem]]:
        """Return the next micro-batch, or ``None`` when closed and drained.

        Blocks until at least one item is available (or ``timeout`` expires,
        returning an empty list).  Once a first item is taken, keeps
        collecting until the batch holds ``max_batch_size`` items or
        ``max_wait_s`` has elapsed since collection began — whichever comes
        first.  A closed queue flushes immediately: remaining items are
        handed out without waiting for the window.
        """
        plan = _active_fault_plan()
        if plan is not None:
            # ``queue.stall``: delay this consumer before it collects, so
            # queue depth builds and deadlines expire in-queue on demand.
            plan.maybe_delay("queue.stall")
        policy = self.policy
        with self._not_empty:
            deadline = None if timeout is None else time.perf_counter() + timeout
            while not self._items:
                if self._closed:
                    return None
                if deadline is None:
                    remaining = None
                else:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return []
                self._idle_consumers += 1
                try:
                    woken = self._not_empty.wait(remaining)
                finally:
                    self._idle_consumers -= 1
                if not woken and not self._items:
                    return []
            batch = [self._pop()]
            window_ends = time.perf_counter() + policy.max_wait_s
            while len(batch) < policy.max_batch_size:
                if self._items:
                    batch.append(self._pop())
                    continue
                if self._closed:
                    break
                remaining = window_ends - time.perf_counter()
                if remaining <= 0:
                    break
                # Sleep until the batch can be completed, the queue is full
                # (a blocked producer needs the space), the queue closes or
                # the window ends.
                mark = min(policy.max_batch_size - len(batch), policy.max_queue_depth)
                self._fill_marks.append(mark)
                try:
                    self._not_empty.wait(remaining)
                finally:
                    self._fill_marks.remove(mark)
            return batch

    def requeue(self, items: List[WorkItem]) -> None:
        """Re-admit rescued items at the front of the queue (crash recovery).

        Used by a worker that is dying mid-batch: its un-delivered items
        go back first-in-line so rescued requests do not also pay a full
        re-queue wait.  The depth bound and the closed check are bypassed
        deliberately — every item here was admitted (and counted against
        backpressure) once already, and rescue must succeed during a
        drain, when the queue is closed but still serving admitted work.
        """
        if not items:
            return
        with self._lock:
            for item in reversed(items):
                self._items.appendleft(item)
            self._not_empty.notify_all()

    def _pop(self) -> WorkItem:
        """Pop one item and wake one blocked producer (caller holds the lock).

        Notifying on every pop — not once the batch is complete — matters:
        a producer blocked on a full queue must be admitted as soon as space
        frees, not after the consumer's batch window has run its course.
        """
        item = self._items.popleft()
        if self._blocked_producers:
            self._not_full.notify()
        return item

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop admission; already-admitted items remain drainable."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()
