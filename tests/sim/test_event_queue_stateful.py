"""Model-based test of the DES event queue against a sorted list.

A hypothesis rule-based machine drives :class:`~repro.sim.engine.EventQueue`
with random ``schedule`` / ``cancel`` / ``pop`` / ``next_time`` calls and
mirrors every call on a plain list of live events ordered by
``(time, priority, seq)``.  Cancels include spent (already popped) and
already-cancelled handles, which must be no-ops.  Bulk schedules and
cancels push the tombstone count past ``COMPACT_MIN_TOMBSTONES``, so the
lazy-deletion compaction runs inside the sequences; after every cancel the
heap holds at most twice the live events plus that floor, and right after
a compaction it holds exactly the live events.
"""

from __future__ import annotations

import math
import random

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.sim.engine import COMPACT_MIN_TOMBSTONES, EventQueue

#: few distinct times and priorities, so ties on both are common and the
#: insertion-order tie break is exercised
MAX_TIME, PRIORITY_RANGE = 12, (-1, 1)
TIMES = st.integers(0, MAX_TIME).map(float)
PRIORITIES = st.integers(*PRIORITY_RANGE)
#: bulk rules draw a seed, not a list, so failing runs shrink quickly
SEEDS = st.integers(0, 2**16)


class EventQueueMachine(RuleBasedStateMachine):
    #: examples, across the whole run, in which a compaction happened
    compacting_examples = 0

    def __init__(self):
        super().__init__()
        self.queue = EventQueue()
        self.seq = 0
        #: live events as (time, priority, seq); the model's pop is min()
        self.live: set[tuple[float, int, int]] = set()
        self.handles = {}  # seq -> EventHandle
        self.callbacks = {}  # seq -> the callback object scheduled
        self.dead: list[int] = []  # seqs whose handle was popped or cancelled
        self.cancelled_total = 0

    # ----- helpers --------------------------------------------------------------

    def _schedule(self, time: float, priority: int) -> None:
        self.seq += 1
        callback = lambda: None  # noqa: E731 - identity is what is checked
        self.handles[self.seq] = self.queue.schedule(
            time, callback, priority=priority
        )
        self.callbacks[self.seq] = callback
        self.live.add((time, priority, self.seq))

    def _schedule_random(self, n: int, seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(n):
            time = float(rng.randint(0, MAX_TIME))
            self._schedule(time, rng.randint(*PRIORITY_RANGE))

    def _cancel_live(self, key: tuple[float, int, int]) -> None:
        compactions = self.queue.compactions
        self.queue.cancel(self.handles[key[2]])
        self.live.discard(key)
        self.dead.append(key[2])
        self.cancelled_total += 1
        assert len(self.queue) <= 2 * len(self.live) + COMPACT_MIN_TOMBSTONES
        if self.queue.compactions > compactions:
            assert len(self.queue) == len(self.live)

    # ----- rules ----------------------------------------------------------------

    @initialize(n=st.integers(0, 3 * COMPACT_MIN_TOMBSTONES), seed=SEEDS)
    def fill(self, n, seed):
        self._schedule_random(n, seed)

    @rule(time=TIMES, priority=PRIORITIES)
    def schedule(self, time, priority):
        self._schedule(time, priority)

    @rule(n=st.integers(1, COMPACT_MIN_TOMBSTONES), seed=SEEDS)
    def schedule_many(self, n, seed):
        self._schedule_random(n, seed)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def cancel(self, data):
        self._cancel_live(data.draw(st.sampled_from(sorted(self.live))))

    @precondition(lambda self: self.live)
    @rule(seed=SEEDS, fraction=st.floats(0.3, 1.0))
    def cancel_many(self, seed, fraction):
        keys = sorted(self.live)
        k = math.ceil(fraction * len(keys))
        for key in random.Random(seed).sample(keys, k):
            self._cancel_live(key)

    @precondition(lambda self: self.dead)
    @rule(data=st.data())
    def cancel_dead_handle(self, data):
        """Cancelling a spent or already-cancelled handle changes nothing."""
        seq = data.draw(st.sampled_from(self.dead))
        before = (len(self.queue), self.queue.compactions)
        self.queue.cancel(self.handles[seq])
        assert (len(self.queue), self.queue.compactions) == before

    @rule()
    def pop(self):
        got = self.queue.pop()
        if not self.live:
            assert got is None
            return
        key = min(self.live)
        self.live.discard(key)
        self.dead.append(key[2])
        assert got is not None
        assert got[0] == key[0]
        assert got[1] is self.callbacks[key[2]]

    @rule()
    def next_time(self):
        expected = min(self.live)[0] if self.live else math.inf
        assert self.queue.next_time() == expected

    # ----- invariants -----------------------------------------------------------

    @invariant()
    def cancelled_total_matches_model(self):
        assert self.queue.cancelled_total == self.cancelled_total

    @invariant()
    def heap_holds_live_events_plus_tombstones(self):
        tombstones = sum(entry[3].cancelled for entry in self.queue._heap)
        assert tombstones == self.queue._n_tombstones
        assert len(self.queue) - tombstones == len(self.live)

    def teardown(self):
        # drain: the rest of the pop order matches the model too
        for key in sorted(self.live):
            time, callback = self.queue.pop()
            assert time == key[0] and callback is self.callbacks[key[2]]
        assert self.queue.pop() is None
        if self.queue.compactions:
            type(self).compacting_examples += 1


def test_event_queue_matches_sorted_list_model():
    EventQueueMachine.compacting_examples = 0
    run_state_machine_as_test(
        EventQueueMachine,
        settings=settings(max_examples=100, stateful_step_count=30, deadline=None),
    )
    # the churn rules must actually reach the compaction path
    assert EventQueueMachine.compacting_examples > 0
