"""Open-loop client for the live_service workload.

One TCP connection to the service, shared by a sender (the calling thread)
and a reader thread.  The sender writes each request when it falls due and
never waits for a reply; the reader matches replies to requests in order
(the service answers one connection's lines in order) and times each from
its due time, so a stall in the service also counts against the requests
queued behind it.  Plain threads with ``time.sleep`` keep the sender within
a fraction of a millisecond of schedule (an asyncio timer rounds its wait
up to the next millisecond).  The generator's lateness (send time minus
due time) is reported: a run where more than 1% of the requests went out
over ``LATENESS_LIMIT_S`` late is invalid.

Phases:

1. paced -- requests at a fixed rate well below capacity: a seeded mix of
   ``arrival`` / ``departure`` / ``rho_change`` events, each aimed at a user
   it acts on (``plan_requests``), with ``stats`` and ``summary`` queries
   interleaved; gives the ack latencies and apply lag;
2. flood -- events written as fast as the connection takes them, in
   bursts each drained before the next; the service runs
   ``overflow="block"`` with a small ingest queue, so the queue stays full
   and TCP backpressure paces the sender; gives the applied-events rate;
3. shutdown -- half-close, wait for the service to close its end (it has
   seen EOF), then the caller tells the process to ``stop()``.
"""

from __future__ import annotations

import collections
import json
import random
import socket
import sys
import threading
import time
from statistics import median

from perfbench.metrics import percentile

__all__ = ["LATENESS_LIMIT_S", "drive", "plan_requests"]

LATENESS_LIMIT_S = 0.05
REPLY_TIMEOUT_S = 60.0

#: event kinds, drawn with equal shares (README.md, "Request mix")
_KINDS = ("arrival", "departure", "rho_change")
_STATS_EVERY, _SUMMARY_EVERY = 20, 250
#: the service's reply to an accepted event (it sorts its JSON keys)
_ACCEPTED = b'{"accepted": true, "ok": true}\n'
_STATS = b'{"op": "stats"}\n'
_SUMMARY = b'{"op": "summary"}\n'


def plan_requests(spec_path, seed: int, *, rate: float, phases: list[int]) -> dict:
    """Request lines of each phase, aimed at users the event will act on.

    The service is deterministic (its clock moves virtual time by the
    spec's ``time_scale / rate`` per applied event), so the plan runs the
    service's own ``ServiceCore`` in this process, advancing and applying
    exactly as the service's pump will, and picks each target from the
    state the event will meet: a departure goes to a user lingering as a
    seed (a user still downloading has no timer to cut short), a rho change
    to a user downloading its second or later file (the only users whose
    bandwidths rho sets).  With no such user at hand the event becomes an
    arrival.

    Returns ``{"phases": [[(line, kind)], ...], "effects": {...},
    "digest": ...}``: per event kind the number sent and the number whose
    acknowledgement showed it acted, plus the summary digest the live run
    must reproduce.
    """
    from repro.scenario import load_spec
    from repro.service import LiveEvent, ServiceCore

    spec = load_spec(spec_path)
    step = spec.service.time_scale / rate
    core = ServiceCore(spec)
    core.start()
    system = core.system
    records = system.metrics.records
    rng = random.Random(seed)
    effects = {kind: {"sent": 0, "acted": 0} for kind in _KINDS}
    effects["arrival"]["substituted"] = 0
    out = []
    for n in phases:
        requests = []
        for j in range(1, n + 1):
            if j % _SUMMARY_EVERY == 0:
                requests.append((_SUMMARY, "summary"))
                continue
            if j % _STATS_EVERY == 0:
                requests.append((_STATS, "stats"))
                continue
            core.advance(core.events_applied * step)  # what the pump does first
            event = _aim(rng.choice(_KINDS), rng, system.behaviors, records)
            if event is None:
                event = {"kind": "arrival"}
                effects["arrival"]["substituted"] += 1
            line = json.dumps({"op": "event", "event": event}).encode() + b"\n"
            ack = core.apply(LiveEvent.from_dict(json.loads(line)["event"]))
            tally = effects[ack["kind"]]
            tally["sent"] += 1
            if ack["kind"] == "departure":
                tally["acted"] += ack.get("timers_fired", 0) > 0
            else:
                tally["acted"] += not ack.get("stale")
            requests.append((line, "event"))
        out.append(requests)
    core.advance(core.events_applied * step)  # what the service's stop() does
    core.finish()
    return {"phases": out, "effects": effects, "digest": core.digest}


def _aim(kind: str, rng: random.Random, behaviors: dict, records: dict) -> dict | None:
    """One event of ``kind`` at a user it acts on; ``None`` if there is none."""
    if kind == "arrival":
        return {"kind": "arrival"}
    if kind == "departure":
        users = [u for u in behaviors if records[u].downloads_done_time is not None]
        return {"kind": "departure", "user_id": rng.choice(users)} if users else None
    users = [
        u
        for u in behaviors
        if records[u].file_completions and records[u].downloads_done_time is None
    ]
    if not users:
        return None
    user = rng.choice(users)
    rho = round(rng.random(), 3)
    if rho == behaviors[user].rho:  # set_rho would change nothing
        rho = 0.25 if rho == 0.5 else round(1.0 - rho, 3)
    return {"kind": "rho_change", "user_id": user, "rho": rho}


class _Connection:
    """One connection: the sender's bookkeeping and the reader thread."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        #: (due, kind, events sent before it, phase, send time) per unanswered request
        self.pending: collections.deque = collections.deque()
        self.event_due: list[float] = []  #: due time of every event, in send order
        self.sent = 0
        self.acks: list[float] = []  #: paced replies, timed from their due time
        self.round_trips: list[float] = []  #: paced replies, timed from the send
        self.lateness: list[float] = []
        self.apply_lag: list[float] = []
        self.queue_depths: list[int] = []
        self.accepted = self.rejected = self.not_ok = 0
        self.last_stats: dict | None = None
        self.replies = 0
        self.closed = False
        self.error: BaseException | None = None
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read_all, name="loadgen-reader")
        self._reader.start()

    def send(self, line: bytes, kind: str, due: float, phase: str) -> None:
        self.pending.append((due, kind, len(self.event_due), phase, time.monotonic()))
        if kind == "event":
            self.event_due.append(due)
        self.sent += 1
        self.sock.sendall(line)

    def _read_all(self) -> None:
        try:
            with self.sock.makefile("rb") as replies:
                for line in replies:
                    self._record(line, time.monotonic())
                    with self._cond:
                        self.replies += 1
                        self._cond.notify_all()
        except (OSError, ValueError, IndexError) as exc:  # reset, bad JSON, extra reply
            self.error = exc
        finally:
            with self._cond:
                self.closed = True
                self._cond.notify_all()

    def _record(self, line: bytes, now: float) -> None:
        due, kind, events_before, phase, sent = self.pending.popleft()
        if phase == "paced":
            self.acks.append(now - due)
            self.round_trips.append(now - sent)
        if line == _ACCEPTED:  # the common reply, spared a JSON parse
            self.accepted += 1
            return
        reply = json.loads(line)
        if not reply.get("ok"):
            self.not_ok += 1
        elif kind == "event":
            self.rejected += 1
        elif kind == "stats":
            stats = self.last_stats = reply["stats"]
            self.queue_depths.append(stats["queue_depth"])
            applied = stats["events_applied"]
            if phase == "paced":
                lag = now - self.event_due[applied] if applied < events_before else 0.0
                self.apply_lag.append(lag)

    def wait_replies(self, n: int) -> None:
        """Block until ``n`` replies have been read."""
        with self._cond:
            self._cond.wait_for(lambda: self.replies >= n or self.closed, REPLY_TIMEOUT_S)
        if self.replies < n:
            raise ConnectionError(
                f"got {self.replies} of {n} replies ({self.error or 'service went quiet'})"
            )

    def stats(self) -> dict:
        """One closed-loop stats query (only used between phases)."""
        self.send(_STATS, "stats", time.monotonic(), "barrier")
        self.wait_replies(self.sent)
        return self.last_stats

    def wait_applied(self, total: int) -> float:
        """Poll stats until ``total`` events are applied; returns that reply's time."""
        while self.stats()["events_applied"] < total:
            time.sleep(0.001)
        return time.monotonic()

    def close(self) -> None:
        """Half-close, wait for the service to close its end, reap the reader."""
        self.sock.shutdown(socket.SHUT_WR)
        self._reader.join(REPLY_TIMEOUT_S)
        if self._reader.is_alive():
            raise ConnectionError("service did not close the connection after EOF")
        if self.error is not None or self.replies != self.sent:
            raise ConnectionError(f"{self.replies} replies to {self.sent} requests ({self.error})")


def _paced(conn: _Connection, requests, rate: float) -> None:
    start = time.monotonic() + 0.01
    for j, (line, kind) in enumerate(requests):
        due = start + j / rate
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        conn.lateness.append(time.monotonic() - due)
        conn.send(line, kind, due, "paced")


def drive(port: int, *, phases: list, rate: float) -> dict:
    """Run the paced phase and the flood bursts against ``127.0.0.1:port``.

    ``phases`` is ``plan_requests(...)["phases"]``: the paced requests,
    then one list per flood burst, each burst drained before the next;
    ``events_per_s`` is the median burst rate, so a stall of the machine
    spoils one burst instead of the whole figure.  Returns the figures.
    """
    paced_requests, *bursts = phases
    sent_events = sum(kind == "event" for _, kind in paced_requests)
    burst_rates, flood_s = [], 0.0
    switch = sys.getswitchinterval()
    # the reader holds the interpreter lock only for microseconds per reply;
    # a short switch interval hands it back to a waking sender at once
    sys.setswitchinterval(0.0002)
    sock = socket.create_connection(("127.0.0.1", port))
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock)
        try:
            _paced(conn, paced_requests, rate)
            conn.wait_applied(sent_events)
            for requests in bursts:
                events = sum(kind == "event" for _, kind in requests)
                started = time.monotonic()
                for line, kind in requests:
                    conn.send(line, kind, time.monotonic(), "flood")
                sent_events += events
                seconds = conn.wait_applied(sent_events) - started
                burst_rates.append(events / seconds)
                flood_s += seconds
        finally:
            conn.close()
    finally:
        sock.close()
        sys.setswitchinterval(switch)
    paced_acks, lateness = conn.acks, conn.lateness
    return {
        "accepted": conn.accepted,
        "rejected": conn.rejected,
        "not_ok": conn.not_ok,
        "requests": conn.sent,
        "events_sent": sent_events,
        "events_per_s": median(burst_rates),
        "burst_rates": burst_rates,
        "flood_s": flood_s,
        "ack_p50_ms": 1e3 * median(paced_acks),
        "ack_p99_ms": 1e3 * percentile(paced_acks, 99),
        "ack_samples": len(paced_acks),
        "round_trip_p50_ms": 1e3 * median(conn.round_trips),
        "apply_lag_p50_ms": 1e3 * median(conn.apply_lag),
        "lateness_p50_ms": 1e3 * median(lateness),
        "lateness_p99_s": percentile(lateness, 99),
        "lateness_max_ms": 1e3 * max(lateness),
        "queue_depth_max": max(conn.queue_depths),
        "queue_depth_mean": sum(conn.queue_depths) / len(conn.queue_depths),
    }
