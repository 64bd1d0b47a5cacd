"""Stateful property tests: random operation sequences on a SwarmGroup.

A hypothesis rule-based machine performs random add/remove/advance/rate
operations and checks the structural invariants after every step:
capacities equal the sum of allocations, progress never increases, clocks
never run backwards, and membership stays consistent.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.entities import DownloadEntry
from repro.sim.swarm import SeedPolicy, SwarmGroup

FILES = (0, 1, 2)


class SwarmGroupMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.group = SwarmGroup(0, FILES, eta=0.5, policy=SeedPolicy.SUBTORRENT)
        self.clock = 0.0
        self.next_user = 0
        self.active: dict[tuple[int, int], DownloadEntry] = {}
        self.seeds: set[tuple[int, int, bool]] = set()  # (user, file, virtual)

    # ----- rules -----------------------------------------------------------------

    @rule(file_id=st.sampled_from(FILES), tft=st.floats(0.0, 0.1), cap=st.floats(0.01, 1.0))
    def add_downloader(self, file_id, tft, cap):
        entry = DownloadEntry(
            user_id=self.next_user,
            file_id=file_id,
            user_class=1,
            stage=1,
            tft_upload=tft,
            download_cap=cap,
            remaining=1.0,
        )
        self.next_user += 1
        self.group.add_downloader(entry)
        self.active[(entry.user_id, file_id)] = entry

    @precondition(lambda self: self.active)
    @rule(data=st.data())
    def remove_downloader(self, data):
        key = data.draw(st.sampled_from(sorted(self.active)))
        self.group.remove_downloader(*key)
        del self.active[key]

    @rule(
        file_id=st.sampled_from(FILES),
        bw=st.floats(0.0, 0.1),
        virtual=st.booleans(),
    )
    def add_seed(self, file_id, bw, virtual):
        user = self.next_user
        self.next_user += 1
        self.group.add_seed(user, file_id, bw, 1, virtual=virtual)
        self.seeds.add((user, file_id, virtual))

    @precondition(lambda self: self.seeds)
    @rule(data=st.data())
    def remove_seed(self, data):
        user, file_id, virtual = data.draw(st.sampled_from(sorted(self.seeds)))
        self.group.remove_seed(user, file_id, virtual=virtual)
        self.seeds.discard((user, file_id, virtual))

    @rule(dt=st.floats(0.0, 50.0))
    def advance(self, dt):
        self.clock += dt
        for swarm in self.group.swarms.values():
            swarm.advance(self.clock)

    @rule()
    def recompute(self):
        for swarm in self.group.swarms.values():
            swarm.recompute_rates(self.group.eta)

    # ----- invariants ---------------------------------------------------------------

    @invariant()
    def membership_consistent(self):
        group_keys = {
            (e.user_id, e.file_id) for e in self.group.all_entries()
        }
        assert group_keys == set(self.active)

    @invariant()
    def capacities_match_allocations(self):
        virtual = sum(
            bw
            for swarm in self.group.swarms.values()
            for bw, _ in swarm.virtual_seeds.values()
        )
        real = sum(
            bw
            for swarm in self.group.swarms.values()
            for bw, _ in swarm.real_seeds.values()
        )
        assert abs(self.group.total_virtual_capacity() - virtual) < 1e-12
        assert abs(self.group.total_real_capacity() - real) < 1e-12
        # Seed membership matches what the machine believes exists.
        table_keys = {
            (user, f, virtual_flag)
            for f, swarm in self.group.swarms.items()
            for virtual_flag, table in (
                (True, swarm.virtual_seeds),
                (False, swarm.real_seeds),
            )
            for user in table
        }
        assert table_keys == self.seeds

    @invariant()
    def progress_bounded(self):
        for entry in self.group.all_entries():
            assert 0.0 <= entry.remaining <= 1.0 + 1e-12

    @invariant()
    def clocks_never_lag_after_advance(self):
        for swarm in self.group.swarms.values():
            assert swarm.last_update <= self.clock + 1e-9

    @invariant()
    def rates_nonnegative_and_capped(self):
        for entry in self.group.all_entries():
            assert entry.rate >= -1e-12
            assert entry.rate_from_virtual >= -1e-12
            assert entry.rate_from_virtual <= entry.rate + 1e-12


TestSwarmGroupStateful = SwarmGroupMachine.TestCase
