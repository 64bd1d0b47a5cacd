"""Tests for the discrete-event engine.

Equivalence cases run the production ``Simulator.run_until`` (batched
dispatch) against the per-event oracle
:func:`repro.sim.reference.run_until_per_event` on identical workloads.
"""

from __future__ import annotations

import math

import pytest

from repro.sim import EventQueue, Simulator
from repro.sim.reference import run_until_per_event


def advance(sim: Simulator, t_end: float, *, per_event: bool, max_events=None) -> int:
    """``run_until`` through the production loop or the per-event oracle."""
    if per_event:
        return run_until_per_event(sim, t_end, max_events=max_events)
    return sim.run_until(t_end, max_events=max_events)


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        while (ev := q.pop()) is not None:
            ev[1]()
        assert fired == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append("low"), priority=5)
        q.schedule(1.0, lambda: fired.append("high"), priority=0)
        while (ev := q.pop()) is not None:
            ev[1]()
        assert fired == ["high", "low"]

    def test_insertion_order_breaks_remaining_ties(self):
        q = EventQueue()
        fired = []
        for k in range(5):
            q.schedule(1.0, lambda k=k: fired.append(k))
        while (ev := q.pop()) is not None:
            ev[1]()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancel(self):
        q = EventQueue()
        fired = []
        h = q.schedule(1.0, lambda: fired.append("x"))
        q.schedule(2.0, lambda: fired.append("y"))
        q.cancel(h)
        while (ev := q.pop()) is not None:
            ev[1]()
        assert fired == ["y"]

    def test_next_time_skips_cancelled(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        q.cancel(h)
        assert q.next_time() == 2.0

    def test_next_time_empty(self):
        assert EventQueue().next_time() == math.inf

    def test_infinite_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EventQueue().schedule(math.inf, lambda: None)


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule_at(1.5, lambda: times.append(sim.now))
        sim.schedule_at(0.5, lambda: times.append(sim.now))
        fired = sim.run_until(2.0)
        assert fired == 2
        assert times == [0.5, 1.5]
        assert sim.now == 2.0

    def test_events_beyond_horizon_stay_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append("late"))
        sim.run_until(2.0)
        assert fired == []
        sim.run_until(6.0)
        assert fired == ["late"]

    def test_schedule_after(self):
        sim = Simulator()
        out = []
        sim.schedule_after(1.0, lambda: sim.schedule_after(1.0, lambda: out.append(sim.now)))
        sim.run_until(3.0)
        assert out == [2.0]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError, match="before now"):
            sim.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError, match="nonnegative"):
            sim.schedule_after(-1.0, lambda: None)

    def test_cannot_run_backwards(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError, match="before now"):
            sim.run_until(1.0)

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule_after(0.001, rearm)

        sim.schedule_after(0.0, rearm)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run_until(1e9, max_events=100)

    def test_max_events_exact_boundary_does_not_raise(self):
        # Exactly N events within t_end must fire without tripping the guard.
        sim = Simulator()
        fired = []
        for k in range(5):
            sim.schedule_at(float(k), lambda k=k: fired.append(k))
        assert sim.run_until(10.0, max_events=5) == 5
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == 10.0

    def test_max_events_fires_at_most_n(self):
        # N+1 pending events with max_events=N: exactly N callbacks run.
        sim = Simulator()
        fired = []
        for k in range(6):
            sim.schedule_at(float(k), lambda k=k: fired.append(k))
        with pytest.raises(RuntimeError, match="max_events=5"):
            sim.run_until(10.0, max_events=5)
        assert fired == [0, 1, 2, 3, 4]

    def test_max_events_raise_keeps_clock_and_counter_consistent(self):
        sim = Simulator()
        for k in range(4):
            sim.schedule_at(float(k), lambda: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run_until(10.0, max_events=2)
        # Clock sits at the last fired event, not t_end, and the counter
        # reflects exactly the callbacks that ran.
        assert sim.now == 1.0
        assert sim.events_processed == 2
        # The surviving events are still runnable afterwards.
        assert sim.run_until(10.0) == 2
        assert sim.events_processed == 4

    def test_max_events_zero(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        with pytest.raises(RuntimeError, match="max_events=0"):
            sim.run_until(10.0, max_events=0)
        assert sim.events_processed == 0

    def test_events_processed_counter(self):
        sim = Simulator()
        for k in range(3):
            sim.schedule_at(float(k), lambda: None)
        sim.run_until(10.0)
        assert sim.events_processed == 3

    def test_event_scheduled_now_during_event_fires(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule_at(sim.now, lambda: order.append("second"))

        sim.schedule_at(1.0, first)
        sim.run_until(1.0)
        assert order == ["first", "second"]


class TestPerEventOracle:
    """The oracle loop keeps ``run_until``'s error and ``max_events`` contract."""

    def test_cannot_run_backwards(self):
        sim = Simulator()
        run_until_per_event(sim, 5.0)
        with pytest.raises(ValueError, match="before now"):
            run_until_per_event(sim, 1.0)

    def test_max_events_exact_boundary_does_not_raise(self):
        sim = Simulator()
        for k in range(5):
            sim.schedule_at(float(k), lambda: None)
        assert run_until_per_event(sim, 10.0, max_events=5) == 5
        assert sim.now == 10.0

    def test_max_events_raise_keeps_clock_and_counter_consistent(self):
        sim = Simulator()
        fired = []
        for k in range(4):
            sim.schedule_at(float(k), lambda k=k: fired.append(k))
        with pytest.raises(RuntimeError, match="max_events=2"):
            run_until_per_event(sim, 10.0, max_events=2)
        assert fired == [0, 1]
        assert sim.now == 1.0
        assert sim.events_processed == 2
        assert run_until_per_event(sim, 10.0) == 2
        assert sim.events_processed == 4
        assert sim.now == 10.0


class TestTombstoneCompaction:
    """Cancel-heavy workloads must not grow the heap past ~2x live events."""

    def test_heap_bounded_under_cancel_reschedule_churn(self):
        q = EventQueue()
        live = [q.schedule(1e6 + k, lambda: None) for k in range(200)]
        peak = 0
        for k in range(10_000):
            h = q.schedule(10.0 + k, lambda: None)
            q.cancel(h)
            peak = max(peak, len(q))
        # compaction fires once tombstones outnumber live entries, so the
        # heap can never reach twice the live count plus the churn entry
        assert peak <= 2 * len(live) + 2
        assert q.compactions > 0
        assert q.cancelled_total == 10_000

    def test_compaction_preserves_surviving_events(self):
        import random

        rng = random.Random(42)
        q = EventQueue()
        handles = {}
        for uid in range(300):
            t = rng.uniform(0.0, 100.0)
            handles[uid] = (t, q.schedule(t, lambda uid=uid: fired.append(uid)))
        dead = set(rng.sample(sorted(handles), 200))
        for uid in dead:
            q.cancel(handles[uid][1])
        assert q.compactions > 0  # 200 tombstones vs 100 live must compact
        fired = []
        times = []
        while (ev := q.pop()) is not None:
            times.append(ev[0])
            ev[1]()
        assert times == sorted(times)
        assert set(fired) == set(handles) - dead
        assert len(q) == 0

    def test_no_compaction_below_floor(self):
        from repro.sim.engine import COMPACT_MIN_TOMBSTONES

        q = EventQueue()
        handles = [
            q.schedule(float(k), lambda: None)
            for k in range(COMPACT_MIN_TOMBSTONES - 1)
        ]
        for h in handles:  # cancel *everything*: still under the floor
            q.cancel(h)
        assert q.compactions == 0
        assert len(q) == len(handles)
        assert q.next_time() == math.inf  # pop path still reclaims lazily
        assert len(q) == 0

    def test_cancel_spent_or_cancelled_handle_is_noop(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda: None)
        assert q.pop() is not None  # fires; handle is now spent
        q.cancel(h)
        assert q.cancelled_total == 0
        h2 = q.schedule(2.0, lambda: None)
        q.cancel(h2)
        q.cancel(h2)  # double-cancel counts once
        assert q.cancelled_total == 1

    def test_queue_counters_surface_through_obs(self):
        from repro.obs import capture

        sim = Simulator()
        keep = [sim.schedule_at(1e6 + k, lambda: None) for k in range(80)]

        def churn() -> None:  # cancels must land during run_until to count
            for k in range(500):
                sim.cancel(sim.schedule_at(10.0 + k, lambda: None))

        sim.schedule_at(0.5, churn)
        with capture(trace=False) as obs:
            sim.run_until(1.0)
        del keep
        counters = obs.registry.counters
        assert counters["sim.queue.cancelled"] == 500
        assert counters["sim.queue.compactions"] == sim.queue.compactions > 0


def _live_tombstones(q: EventQueue) -> int:
    """Ground truth the ``_n_tombstones`` counter must always equal."""
    return sum(1 for item in q._heap if item[3].cancelled)


class TestBatchedDispatchCancelExactness:
    """The batched dispatcher pops runs of events off the heap *before*
    firing them, so a callback can cancel an event that is no longer in
    the heap (in-flight).  These pin the audit of that path: the callback
    must still be suppressed, exactly as the per-event oracle would, and
    the tombstone accounting must never count an entry the heap no longer
    holds (which would let ``_compact`` run with a phantom count and
    under- or over-reclaim).
    """

    def test_cancel_of_in_flight_event_suppresses_callback(self):
        sim = Simulator()
        fired = []
        # Same batch: both drain in one refill, so b is in-flight when
        # a's callback cancels it.
        hb = sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: (fired.append("a"), sim.cancel(hb)))
        assert sim.run_until(3.0) == 1
        assert fired == ["a"]
        assert hb.cancelled
        # The entry left the heap when it was drained and must not come
        # back: no tombstone, nothing left to pop.
        assert len(sim.queue) == 0
        assert sim.queue._n_tombstones == 0
        assert sim.queue.cancelled_total == 1

    def test_cancel_in_flight_at_same_timestamp(self):
        # The satellite-audit case: the cancelled handle sits at the same
        # timestamp as the cancelling callback, so under per-event dispatch
        # it would be a heap tombstone but under batched dispatch it is
        # already in flight.  Both must suppress it identically.
        for per_event in (True, False):
            sim = Simulator()
            fired = []
            handles = [
                sim.schedule_at(1.0, lambda k=k: fired.append(k)) for k in range(6)
            ]

            def killer():
                fired.append("killer")
                for h in handles[3:]:
                    sim.cancel(h)

            sim.schedule_at(1.0, killer, priority=-1)  # fires first at t=1
            advance(sim, 2.0, per_event=per_event)
            assert fired == ["killer", 0, 1, 2], fired
            assert len(sim.queue) == 0
            assert sim.queue._n_tombstones == _live_tombstones(sim.queue) == 0

    def test_cancel_then_reschedule_same_timestamp_keeps_oracle_order(self):
        def run(per_event: bool) -> list:
            sim = Simulator()
            fired = []
            hc = sim.schedule_at(1.0, lambda: fired.append("stale"))

            def replace():
                fired.append("replace")
                sim.cancel(hc)
                sim.schedule_at(1.0, lambda: fired.append("fresh"))

            sim.schedule_at(1.0, replace, priority=-1)
            sim.schedule_at(1.5, lambda: fired.append("later"))
            advance(sim, 2.0, per_event=per_event)
            return fired

        oracle = run(True)
        batched = run(False)
        assert oracle == batched == ["replace", "fresh", "later"]

    def test_tombstone_count_stays_exact_through_compaction_in_batch(self):
        from repro.sim.engine import COMPACT_MIN_TOMBSTONES

        sim = Simulator()
        q = sim.queue
        fired = []
        # Far-future events the callback cancels: real heap tombstones,
        # enough to trip compaction from inside the batch.
        far = [sim.schedule_at(1e6 + k, lambda: None) for k in range(COMPACT_MIN_TOMBSTONES)]
        # Same-batch events the callback also cancels: in-flight, NOT
        # tombstones; miscounting them as such would corrupt _compact.
        near = [sim.schedule_at(1.0, lambda k=k: fired.append(k)) for k in range(4)]

        def cancel_everything():
            fired.append("cancel")
            for h in far:
                sim.cancel(h)
            for h in near:
                sim.cancel(h)
            assert q._n_tombstones == _live_tombstones(q)

        sim.schedule_at(1.0, cancel_everything, priority=-1)
        survivors = [sim.schedule_at(1e6 + 9999, lambda: None)]
        sim.run_until(2.0)
        assert fired == ["cancel"]
        assert q._n_tombstones == _live_tombstones(q)
        assert len(q) >= len(survivors)
        # Every far-future tombstone was reclaimed either by the in-batch
        # compaction or remains correctly counted; popping to the end must
        # find exactly the survivor.
        q.cancel(survivors[0])
        assert q.next_time() == math.inf

    def test_max_events_raise_returns_unfired_in_flight_events(self):
        sim = Simulator()
        fired = []
        for k in range(6):
            sim.schedule_at(float(k), lambda k=k: fired.append(k))
        with pytest.raises(RuntimeError, match="max_events=3"):
            sim.run_until(10.0, max_events=3)
        assert fired == [0, 1, 2]
        assert sim.events_processed == 3
        # The three unfired events went back on the heap and still fire.
        assert sim.run_until(10.0) == 3
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.queue._n_tombstones == _live_tombstones(sim.queue)

    def test_randomized_dispatch_equivalence_with_cancel_churn(self):
        import random

        def run(per_event: bool) -> tuple:
            rng = random.Random(7)
            sim = Simulator()
            log = []
            handles = []

            def act(uid):
                log.append((round(sim.now, 9), uid))
                r = rng.random()
                if r < 0.45:
                    handles.append(
                        sim.schedule_after(rng.uniform(0.0, 2.0), lambda u=uid * 31 + 1: act(u))
                    )
                elif r < 0.65 and handles:
                    sim.cancel(handles.pop(rng.randrange(len(handles))))

            for uid in range(40):
                handles.append(
                    sim.schedule_at(rng.uniform(0.0, 5.0), lambda u=uid: act(u))
                )
            fired = advance(sim, 8.0, per_event=per_event)
            return fired, log, sim.events_processed, len(sim.queue._heap)

        oracle = run(True)
        batched = run(False)
        assert oracle[1] == batched[1]  # identical firing sequence
        assert oracle[0] == batched[0]
        assert oracle[2] == batched[2]


class TestResumeAfterRaiseExactness:
    """A long-lived service holds one simulator across many ``run_until``
    calls and bounds each advance with ``max_events``, so the engine is
    routinely interrupted *mid-batch* and resumed.  These pin the audit of
    that path: every unfired in-flight event must go back on the heap with
    its accounting intact, so the resumed run fires the exact sequence the
    per-event oracle would, and the tombstone counter never drifts from
    the heap's ground truth across any number of raises.
    """

    @staticmethod
    def _churn_workload(sim, rng, log, handles):
        def act(uid):
            log.append((round(sim.now, 9), uid))
            r = rng.random()
            if r < 0.45:
                handles.append(
                    sim.schedule_after(rng.uniform(0.0, 2.0), lambda u=uid * 31 + 1: act(u))
                )
            elif r < 0.75 and handles:
                # Cancel a random pending event -- under batched dispatch
                # this regularly hits an in-flight entry of the current
                # batch, the case resume-after-raise must keep exact.
                sim.cancel(handles.pop(rng.randrange(len(handles))))

        for uid in range(40):
            handles.append(sim.schedule_at(rng.uniform(0.0, 5.0), lambda u=uid: act(u)))

    def _run(self, per_event: bool, max_events: int | None):
        import random

        rng = random.Random(1234)
        sim = Simulator()
        log: list = []
        handles: list = []
        self._churn_workload(sim, rng, log, handles)
        raises = 0
        while True:
            try:
                advance(sim, 8.0, per_event=per_event, max_events=max_events)
            except RuntimeError:
                raises += 1
                # The raise unwound mid-batch: nothing may be left marked
                # in-flight, and the tombstone counter must equal the
                # number of cancelled entries actually in the heap.
                assert not any(item[3].in_flight for item in sim.queue._heap)
                assert sim.queue._n_tombstones == _live_tombstones(sim.queue)
                continue
            break
        return log, sim.events_processed, raises

    def test_resumed_batched_run_matches_per_event_oracle(self):
        oracle_log, oracle_fired, _ = self._run(per_event=True, max_events=None)
        for max_events in (1, 7, 37):
            log, fired, raises = self._run(per_event=False, max_events=max_events)
            assert raises > 0  # the workload genuinely exercised resume
            assert log == oracle_log
            assert fired == oracle_fired

    def test_resume_interleaved_with_new_work_and_cancels(self):
        # Between raises the service keeps mutating the queue (new events,
        # cancels of events pushed back by the unwind); accounting must
        # stay exact through that interleaving too.
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule_at(1.0 + 0.001 * k, lambda k=k: fired.append(k))
            for k in range(10)
        ]
        with pytest.raises(RuntimeError, match="max_events=4"):
            sim.run_until(2.0, max_events=4)
        assert fired == [0, 1, 2, 3]
        # Cancel two events the unwind just pushed back, then add one more.
        sim.cancel(handles[5])
        sim.cancel(handles[8])
        sim.schedule_at(1.5, lambda: fired.append("late"))
        assert sim.queue._n_tombstones == _live_tombstones(sim.queue)
        sim.run_until(2.0)
        assert fired == [0, 1, 2, 3, 4, 6, 7, 9, "late"]
        assert len(sim.queue) == 0
        assert sim.queue._n_tombstones == _live_tombstones(sim.queue) == 0
