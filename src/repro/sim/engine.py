"""Discrete-event core: a monotone clock over a binary-heap event queue.

Events are ``(time, priority, sequence, callback)``; ties break first on an
explicit integer priority (lower first), then on insertion order, which
makes runs fully deterministic.  Callbacks take no arguments -- bind state
with closures or ``functools.partial``.

Cancellation uses the standard lazy scheme: :meth:`EventQueue.cancel` marks
the handle, and the pop loop discards marked entries.  This keeps the queue
a plain ``heapq`` without the cost of re-heapifying on every cancel.
Tombstones below the heap top are reclaimed by an occasional compaction:
when more than half the heap (and at least :data:`COMPACT_MIN_TOMBSTONES`)
is cancelled entries, the heap is rebuilt without them -- amortised O(1)
per cancel, bounding both memory and the ``log`` factor of every push in
workloads that cancel and reschedule constantly (the simulator's
completion events do exactly that on every flush).
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from typing import Callable

from repro.obs import current_registry, current_tracer

__all__ = ["EventHandle", "EventQueue", "Simulator", "callback_name"]


def callback_name(callback: Callable[[], None]) -> str:
    """Short classifying name for an event callback (metric label).

    Unwraps ``functools.partial`` and falls back through ``__qualname__`` /
    ``__name__`` / the type name, keeping only the last two qualname parts
    (``UserBehavior.on_complete``-style labels, not full module paths).
    """
    while isinstance(callback, functools.partial):
        callback = callback.func
    name = getattr(callback, "__qualname__", None) or getattr(
        callback, "__name__", None
    )
    if name is None:
        return type(callback).__name__
    parts = [p for p in name.split(".") if p != "<locals>"]
    return ".".join(parts[-2:])


#: qualname -> full metric name; callbacks are fresh closures every event,
#: but their qualnames are a small fixed set, so the per-event label work
#: reduces to one dict hit
_CALLBACK_METRICS: dict[str, str] = {}


def _callback_metric(callback: Callable[[], None]) -> str:
    """``sim.callback.<label>`` metric name, cached by ``__qualname__``."""
    qual = getattr(callback, "__qualname__", None)
    if qual is None:  # partials / odd callables: take the slow path
        return "sim.callback." + callback_name(callback)
    metric = _CALLBACK_METRICS.get(qual)
    if metric is None:
        metric = _CALLBACK_METRICS[qual] = "sim.callback." + callback_name(callback)
    return metric


#: never compact below this many tombstones -- rebuilding tiny heaps costs
#: more than the dead entries they carry
COMPACT_MIN_TOMBSTONES = 64

#: how many events the batched dispatcher drains from the heap per refill;
#: large enough to amortise the per-batch bookkeeping, small enough that the
#: in-flight window (events popped but not yet fired) stays cache-friendly
DISPATCH_BATCH = 128


class EventHandle:
    """Opaque handle returned by :meth:`EventQueue.schedule`.

    ``cancelled`` is also set when the event fires (a spent handle), so
    cancelling an already-fired handle is a no-op and the queue's
    tombstone count stays exact.

    ``in_flight`` marks a handle :meth:`Simulator.run_until` has popped off
    the heap but not yet fired.  Cancelling an in-flight handle must still
    suppress the callback (bit-exactness against the per-event oracle,
    :func:`repro.sim.reference.run_until_per_event`) but must *not* count a
    tombstone -- the entry is no longer in the heap, so there is nothing
    for :meth:`EventQueue._compact` to reclaim.
    """

    __slots__ = ("time", "cancelled", "in_flight")

    def __init__(self, time: float):
        self.time = time
        self.cancelled = False
        self.in_flight = False


class EventQueue:
    """Time-ordered queue of zero-argument callbacks."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, EventHandle, Callable[[], None]]] = []
        self._seq = 0
        #: cancelled entries still sitting in the heap
        self._n_tombstones = 0
        #: lifetime cancels (source of the ``sim.queue.cancelled`` counter)
        self.cancelled_total = 0
        #: lifetime heap rebuilds (``sim.queue.compactions``)
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> EventHandle:
        """Enqueue ``callback`` to fire at ``time``.

        ``time`` must be finite; infinite "never" events should simply not
        be scheduled.
        """
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        handle = EventHandle(time)
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, handle, callback))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Mark a scheduled event so the pop loop skips it.

        When tombstones outnumber live events (beyond a small floor) the
        heap is compacted, so cancel-heavy workloads cannot grow the heap
        past roughly twice the live event count.
        """
        if handle.cancelled:
            return  # already cancelled, or already fired
        handle.cancelled = True
        self.cancelled_total += 1
        if handle.in_flight:
            # Popped by the batched dispatcher, awaiting its turn: the
            # entry left the heap already, so it is not a tombstone.  The
            # dispatcher sees ``cancelled`` and skips (or drops) it.
            return
        self._n_tombstones += 1
        if (
            self._n_tombstones >= COMPACT_MIN_TOMBSTONES
            and 2 * self._n_tombstones > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (linear-time heapify).

        Mutates the heap list *in place*: the batched dispatcher binds the
        list to a local for the duration of a run, and a compaction
        triggered from inside a callback must not strand that binding on a
        stale list.
        """
        self._heap[:] = [item for item in self._heap if not item[3].cancelled]
        heapq.heapify(self._heap)
        self._n_tombstones = 0
        self.compactions += 1

    def next_time(self) -> float:
        """Time of the earliest live event, or ``inf`` if the queue is empty."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
            self._n_tombstones -= 1
        return self._heap[0][0] if self._heap else math.inf

    def pop(self) -> tuple[float, Callable[[], None]] | None:
        """Remove and return the earliest live event, or ``None``."""
        while self._heap:
            time, _, _, handle, callback = heapq.heappop(self._heap)
            if not handle.cancelled:
                handle.cancelled = True  # spent: late cancels are no-ops
                return time, callback
            self._n_tombstones -= 1
        return None


class Simulator:
    """Event loop with a monotone clock.

    The clock only moves when events fire; schedule everything relative to
    :attr:`now`.  ``run_until`` processes events with ``time <= t_end`` and
    then sets the clock to ``t_end`` exactly.

    ``run_until`` drains *runs* of events from the heap front in one go --
    up to :data:`DISPATCH_BATCH` at a time -- instead of paying the
    peek/pop/bookkeeping cycle per event.  Fired order is identical to a
    per-event loop: the remaining run is merged against the live heap top
    after every callback, so an event scheduled mid-run that sorts earlier
    than the rest of the run fires first.  The per-event loop itself lives
    in :func:`repro.sim.reference.run_until_per_event` as the test oracle
    (``tests/sim/test_engine.py`` and ``tests/sim/test_incremental.py``
    pin the two bit-identical).
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self._events_processed = 0

    @property
    def events_processed(self) -> int:
        """Total number of callbacks fired so far."""
        return self._events_processed

    def schedule_at(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> EventHandle:
        """Schedule at an absolute time (must not precede the clock)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        return self.queue.schedule(max(time, self.now), callback, priority=priority)

    def schedule_after(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> EventHandle:
        """Schedule ``delay`` time units from now (``delay >= 0``)."""
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        return self.queue.schedule(self.now + delay, callback, priority=priority)

    def cancel(self, handle: EventHandle) -> None:
        self.queue.cancel(handle)

    def run_until(self, t_end: float, *, max_events: int | None = None) -> int:
        """Fire events up to ``t_end``; return how many fired.

        ``max_events`` guards against runaway self-rescheduling loops in
        user code: at most ``max_events`` callbacks fire, and finding an
        (N+1)-th live event within ``t_end`` raises ``RuntimeError``.  On
        raise the clock stays at the last fired event's time and
        :attr:`events_processed` counts exactly the callbacks that ran.

        The inner loop is a two-way merge between the drained run (already
        sorted -- it came off the heap in order) and the live heap top, so
        callbacks that schedule new events inside the run's time span keep
        the exact per-event firing order without any push-back churn.
        Under an enabled registry, instrumentation is aggregated per batch
        (one ``perf_counter`` pair and one registry call per metric per
        run instead of several per event) with event counts preserved
        exactly.
        """
        if t_end < self.now:
            raise ValueError(f"t_end={t_end} is before now={self.now}")
        reg = current_registry()
        queue = self.queue
        heap = queue._heap  # _compact mutates in place; binding stays valid
        pop, push = heapq.heappop, heapq.heappush
        instrumented = reg.enabled
        if instrumented:
            tracer_span = current_tracer().span("sim.run_until", t_end=t_end)
            tracer_span.__enter__()
            cancelled_before = queue.cancelled_total
            compactions_before = queue.compactions
            started = time.perf_counter()
        fired = 0
        batch: list = []
        try:
            while True:
                # Refill: drain a run of live entries off the heap front.
                del batch[:]
                while heap and heap[0][0] <= t_end and len(batch) < DISPATCH_BATCH:
                    item = pop(heap)
                    if item[3].cancelled:
                        queue._n_tombstones -= 1
                        continue
                    item[3].in_flight = True
                    batch.append(item)
                n = len(batch)
                if not n:
                    break
                if instrumented:
                    reg.inc("sim.events.batched", n)
                    reg.observe("sim.events.batch_size", n)
                    depth_count = depth_total = 0
                    depth_min, depth_max = math.inf, -math.inf
                    cb_counts: dict[str, int] = {}
                    batch_t0 = time.perf_counter()
                i = 0
                try:
                    while i < n:
                        # Merge against the heap: a callback may have
                        # scheduled an event sorting before the rest of the
                        # run.  Entry tuples start (time, priority, seq)
                        # with seq unique, so tuple comparison never
                        # reaches the handles.
                        if heap and heap[0] < batch[i]:
                            item = heap[0]
                            handle = item[3]
                            if handle.cancelled:
                                pop(heap)
                                queue._n_tombstones -= 1
                                continue
                            if max_events is not None and fired >= max_events:
                                raise RuntimeError(
                                    f"exceeded max_events={max_events} before "
                                    f"reaching t_end={t_end}"
                                )
                            pop(heap)
                        else:
                            item = batch[i]
                            handle = item[3]
                            if handle.cancelled:
                                handle.in_flight = False
                                i += 1
                                continue
                            if max_events is not None and fired >= max_events:
                                raise RuntimeError(
                                    f"exceeded max_events={max_events} before "
                                    f"reaching t_end={t_end}"
                                )
                            handle.in_flight = False
                            i += 1
                        handle.cancelled = True  # spent: late cancels are no-ops
                        event_time = item[0]
                        if event_time > self.now:
                            self.now = event_time
                        if instrumented:
                            depth = len(heap) + n - i
                            depth_count += 1
                            depth_total += depth
                            if depth < depth_min:
                                depth_min = depth
                            if depth > depth_max:
                                depth_max = depth
                            metric = _callback_metric(item[4])
                            cb_counts[metric] = cb_counts.get(metric, 0) + 1
                        item[4]()
                        fired += 1
                finally:
                    if instrumented and depth_count:
                        # Per-callback-type timing attributed evenly across
                        # the run (one timer pair per batch, counts exact),
                        # plus the queue-depth trace, one registry call per
                        # metric -- also for a run cut short by a
                        # max_events raise, so histogram counts total
                        # ``fired`` exactly.
                        mean = (time.perf_counter() - batch_t0) / depth_count
                        reg.observe_many(
                            "sim.queue_depth",
                            depth_count,
                            depth_total,
                            depth_min,
                            depth_max,
                        )
                        for metric, count in cb_counts.items():
                            reg.observe_many(metric, count, count * mean, mean, mean)
            self.now = t_end
        finally:
            self._events_processed += fired
            if instrumented:
                reg.inc("sim.events", fired)
                reg.inc("sim.run_until_calls")
                reg.inc(
                    "sim.queue.cancelled", queue.cancelled_total - cancelled_before
                )
                reg.inc(
                    "sim.queue.compactions", queue.compactions - compactions_before
                )
                reg.observe("sim.run_until_seconds", time.perf_counter() - started)
                tracer_span.__exit__(None, None, None)
            # On a max_events raise, return unfired in-flight entries so the
            # queue is intact for inspection (clock stays at the last fired
            # event's time, exactly like the per-event loop).
            for item in batch:
                if item[3].in_flight:
                    item[3].in_flight = False
                    if not item[3].cancelled:
                        push(heap, item)
        return fired
