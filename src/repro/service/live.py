"""The asyncio shell: bounded ingestion, backpressure, TCP, lifecycle.

:class:`SwarmService` wraps a :class:`~repro.service.core.ServiceCore` in
an event loop: external events land in a bounded ``asyncio.Queue``, a
single pump task drains it (advancing virtual time to the wall-clock
mapping before applying each event), and queries are answered inline from
the core's pure-read snapshots -- the loop interleaves them between event
applications, so ingestion never pauses for a query.

Backpressure is explicit rather than silent: the ingest queue is bounded
(``queue_capacity``) and the ``overflow`` policy decides what saturation
means -- ``"shed"`` drops the new event and counts it (a tracker that
would rather stay current than stall), ``"block"`` makes ``ingest()``
await space (a log replayer that must not lose events).  The counters
``service.ingest.{events,dropped,stale,errors}`` and the gauge
``service.ingest.queue_depth`` mirror into the ambient :mod:`repro.obs`
registry, and exact plain-int copies live on
:attr:`SwarmService.counters` for tests and status endpoints.

Wall clock maps to virtual time via ``time_scale`` (virtual seconds per
wall second), monotonically: the pump advances the simulator to
``elapsed * time_scale`` (clamped at the scenario's ``t_end``) before each
apply.  Tests and benchmarks can inject ``clock=...`` returning virtual
time directly, making runs wall-clock free.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Callable

from repro.obs import current_registry
from repro.scenario.spec import ScenarioSpec
from repro.service.core import ServiceCore
from repro.service.events import LiveEvent
from repro.service.journal import JournalWriter
from repro.sim.metrics import SimulationSummary

__all__ = ["SwarmService"]

_log = logging.getLogger(__name__)

_STOP = object()  # pump-loop sentinel; never journaled

#: longest TCP request line in bytes (asyncio's default stream limit)
_LINE_LIMIT = 2**16


class SwarmService:
    """Asyncio daemon serving one live scenario (see module docstring).

    Construction knobs default from the spec's ``service:`` section when
    present; explicit keyword arguments win over both.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        journal_path=None,
        rotate_bytes: int | None = None,
        time_scale: float | None = None,
        queue_capacity: int | None = None,
        overflow: str | None = None,
        clock: Callable[[], float] | None = None,
    ):
        svc = spec.service

        def pick(explicit, attr, default):
            if explicit is not None:
                return explicit
            if svc is not None:
                return getattr(svc, attr)
            return default

        journal_path = pick(journal_path, "journal", None)
        rotate_bytes = pick(rotate_bytes, "journal_rotate_bytes", None)
        self.time_scale = float(pick(time_scale, "time_scale", 1.0))
        self.queue_capacity = int(pick(queue_capacity, "queue_capacity", 1024))
        self.overflow = pick(overflow, "overflow", "shed")
        if self.overflow not in ("shed", "block"):
            raise ValueError(f"overflow must be 'shed' or 'block', got {self.overflow!r}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        journal = (
            JournalWriter(journal_path, rotate_bytes=rotate_bytes)
            if journal_path is not None
            else None
        )
        self.core = ServiceCore(spec, journal=journal)
        self.journal = journal
        self._clock = clock
        #: exact ingest accounting: accepted, shed, applied-but-stale,
        #: failed-to-apply (accepted events whose apply raised)
        self.counters = {"events": 0, "dropped": 0, "stale": 0, "errors": 0}
        self._queue: asyncio.Queue | None = None
        self._pending_puts = 0  #: block-mode ingests parked in queue.put()
        self._pump_task: asyncio.Task | None = None
        self._t0 = 0.0
        self._stopping = False
        self._summary: SimulationSummary | None = None

    # ----- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Start the core and the pump task; wall clock starts now."""
        if self._queue is not None:
            raise RuntimeError("service already started")
        self.core.start()
        self._queue = asyncio.Queue(maxsize=self.queue_capacity)
        self._t0 = time.monotonic()
        self._pump_task = asyncio.create_task(self._pump())

    async def stop(self) -> SimulationSummary:
        """Drain the ingest queue, seal the journal, return the summary.

        Idempotent.  The stop sentinel queues FIFO behind every accepted
        event, and the pump keeps draining past the sentinel until no
        block-mode ``ingest()`` is still parked in ``put()`` -- so every
        event acknowledged as accepted is applied before the journal
        closes, the clean-shutdown guarantee the tests pin.
        """
        if self._summary is not None:
            return self._summary
        if self._queue is None:
            raise RuntimeError("service never started")
        self._stopping = True
        await self._queue.put(_STOP)
        await self._pump_task
        self.core.advance(self.virtual_now())
        self._summary = self.core.finish()
        return self._summary

    def virtual_now(self) -> float:
        """Current virtual-time target (wall-clock mapped, or injected)."""
        if self._clock is not None:
            return self._clock()
        return (time.monotonic() - self._t0) * self.time_scale

    @property
    def digest(self) -> str | None:
        return self.core.digest

    # ----- ingestion --------------------------------------------------------------

    async def ingest(self, event: LiveEvent) -> bool:
        """Enqueue one event; returns whether it was accepted.

        ``shed`` overflow drops the event on a full queue (counted in
        ``counters["dropped"]`` and ``service.ingest.dropped``);
        ``block`` awaits queue space instead.
        """
        if self._queue is None:
            raise RuntimeError("service not started")
        if self._stopping:
            raise RuntimeError("service is stopping; no further ingestion")
        if not isinstance(event, LiveEvent):
            raise TypeError(f"expected a LiveEvent, got {type(event).__name__}")
        # Reject out-of-range events here, before they are acknowledged or
        # queued: an accepted event that raised inside the pump task would
        # otherwise be a remotely deliverable way to wedge the service.
        self.core.check_event(event)
        registry = current_registry()
        if self.overflow == "block":
            self._pending_puts += 1
            try:
                await self._queue.put(event)
            finally:
                self._pending_puts -= 1
        else:
            try:
                self._queue.put_nowait(event)
            except asyncio.QueueFull:
                self.counters["dropped"] += 1
                registry.inc("service.ingest.dropped")
                return False
        self.counters["events"] += 1
        registry.inc("service.ingest.events")
        registry.set_gauge("service.ingest.queue_depth", self._queue.qsize())
        return True

    async def _pump(self) -> None:
        """Apply queued events forever: advance virtual time, then apply."""
        queue = self._queue
        registry = current_registry()
        while True:
            item = await queue.get()
            if item is _STOP:
                queue.task_done()
                await self._drain_remaining(queue, registry)
                return
            self._apply_one(item, registry)
            queue.task_done()

    def _apply_one(self, event: LiveEvent, registry) -> None:
        """Advance-then-apply one event; a failure never kills the pump.

        Ingest-time validation makes apply failures unexpected, but an
        accepted event must not be able to take the service down: the
        failure is counted (``counters["errors"]``,
        ``service.ingest.errors``), logged, and the pump keeps draining.
        """
        try:
            self.core.advance(self.virtual_now())
            ack = self.core.apply(event)
        except Exception:
            self.counters["errors"] += 1
            registry.inc("service.ingest.errors")
            _log.exception("failed to apply ingested event %r; skipped", event)
        else:
            if ack.get("stale"):
                self.counters["stale"] += 1
                registry.inc("service.ingest.stale")
        registry.set_gauge("service.ingest.queue_depth", self._queue.qsize())

    async def _drain_remaining(self, queue: asyncio.Queue, registry) -> None:
        """Apply events that landed at/after the stop sentinel.

        Block-mode shutdown race: a producer that passed the ``_stopping``
        check can be parked in ``put()`` on a full queue while ``stop()``'s
        sentinel slips into the slot the pump just freed -- that event then
        lands *after* the sentinel, yet it was acknowledged and counted.
        Keep draining until the queue is empty and no ``put()`` is still in
        flight, so the clean-shutdown guarantee covers late racers too.
        """
        while self._pending_puts or not queue.empty():
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                await asyncio.sleep(0)  # let a parked put() land
                continue
            if item is not _STOP:  # concurrent stop() may double the sentinel
                self._apply_one(item, registry)
            queue.task_done()

    # ----- online queries (pure reads, served inline) -----------------------------

    def stats(self) -> dict:
        """Live structural snapshot plus ingest accounting."""
        out = self.core.stats()
        out["queue_depth"] = self._queue.qsize() if self._queue is not None else 0
        out["ingest"] = dict(self.counters)
        return out

    def summary_so_far(self) -> dict:
        """Per-class online/download metrics over completed users so far."""
        return self.core.query_summary()

    # ----- TCP face ---------------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Listen for line-JSON clients; returns the asyncio server.

        Protocol: one JSON object per line.  ``{"op": "event", "event":
        {...}}`` ingests (``op`` defaults to ``event``, so a bare event
        dict works too); ``{"op": "stats"}`` and ``{"op": "summary"}``
        query.  Each request gets one JSON response line.  A line longer
        than 64 KiB gets one error line, and the connection is closed.
        """
        return await asyncio.start_server(
            self._handle_client, host, port, limit=_LINE_LIMIT
        )

    async def _handle_client(self, reader, writer) -> None:
        async def respond(response: dict) -> None:
            writer.write(json.dumps(response, sort_keys=True).encode() + b"\n")
            await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran the stream limit
                    await respond({
                        "ok": False,
                        "error": f"request line longer than {_LINE_LIMIT} "
                        "bytes; closing the connection",
                    })
                    return
                if not line:
                    return
                if line.strip():
                    await respond(await self._dispatch_line(line))
        finally:
            writer.close()

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("requests must be JSON objects")
            op = doc.pop("op", "event")
            if op == "event":
                event = LiveEvent.from_dict(doc.pop("event", doc))
                accepted = await self.ingest(event)
                return {"ok": True, "accepted": accepted}
            if op == "stats":
                return {"ok": True, "stats": self.stats()}
            if op == "summary":
                return {"ok": True, "summary": self.summary_so_far()}
            raise ValueError(f"unknown op {op!r}; expected event, stats or summary")
        except (ValueError, TypeError, RuntimeError) as exc:
            return {"ok": False, "error": str(exc)}
