"""The simulation system: groups + engine + lazy rate maintenance.

:class:`SimulationSystem` owns the event loop, the swarm groups and the
user records, and exposes the mutation API the per-scheme behaviours call
(:meth:`start_download`, :meth:`add_seed`, ...).  Every mutation follows the
same discipline:

1. ``advance`` the affected *rate domain* to the current time under the old
   rates (progress integrates lazily -- rates are constant between
   mutations);
2. apply the mutation;
3. mark the domain dirty; a :meth:`flush` then recomputes its rates and
   refreshes its single pending *completion event*.

A rate domain is a tuple of member swarms sharing one seed pool: one
swarm for ``SUBTORRENT`` groups (rates never couple across swarms), every
swarm of the group for ``GLOBAL_POOL`` (everyone shares the seed pool).  A
:class:`~repro.sim.swarm.Swarm` and a pooled
:class:`~repro.sim.swarm.SwarmGroup` both *are* rate domains with one
driver API, so the system never asks which kind it holds.  One completion
event per domain -- at the min remaining/rate over its entries,
invalidated by an epoch counter -- keeps the event queue small and each
event's work proportional to the affected population only.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.obs import current_registry
from repro.sim.engine import EventHandle, Simulator
from repro.sim.entities import DownloadEntry, EntrySpan, UserRecord
from repro.sim.metrics import MetricsCollector, PopulationSample
from repro.sim.rng import RandomStreams
from repro.sim.swarm import SeedPolicy, Swarm, SwarmGroup, _RateDomain
from repro.sim.trace import EventKind, EventTrace
from repro.sim.tracker import AnnounceEvent, Tracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.behaviors import UserBehavior

__all__ = ["SimulationSystem"]

#: event priorities: completions resolve before arrivals at equal timestamps
#: so freed capacity is visible to the newcomer, and samplers run last.
PRIORITY_COMPLETION = 0
PRIORITY_DEFAULT = 1
PRIORITY_SAMPLER = 9

class _DomainDirt:
    """What changed in one rate domain since its last flush.

    The flush picks the cheapest sufficient path from this record.  While
    the domain sits in a deferred :class:`~repro.sim.bandwidth.RateWindow`,
    *seed* and *join* dirt is absorbed into the window scalars in O(1);
    *entry* (tit-for-tat) and *full* dirt materialises the window first.
    On the exact path, dirty *rows* (tit-for-tat changes) rewrite just
    those entries from the cached capacity shares, dirty *seeds* or
    *joins-after-materialise* refresh every row from the O(1) seed totals,
    and ``full`` (or a join, which moves membership) falls back to the
    full kernel -- the oracle the incremental paths must match
    bit-for-bit.
    """

    __slots__ = ("full", "seeds", "entries", "joins")

    def __init__(self) -> None:
        self.full = False
        self.seeds = False
        self.entries: list[DownloadEntry] = []
        self.joins: list[DownloadEntry] = []


class SimulationSystem:
    """Glue between the event engine, swarm groups and user behaviours.

    Parameters
    ----------
    mu / eta / gamma:
        Fluid parameters: peer upload bandwidth, downloader efficiency and
        seed departure rate (seed lifetimes are ``Exp(1/gamma)``).
    download_cap:
        Per-user download bandwidth.  The models are upload-constrained, so
        only its *relative* split matters (assumption 2 shares seed capacity
        proportionally); the default of ``10*mu`` keeps the "download much
        larger than upload" premise explicit.
    num_classes:
        ``K`` -- the number of files, which bounds the user class.
    rng:
        Shared random streams.
    seed_lifetime_distribution:
        How long seeds linger: ``"exponential"`` (the fluid models'
        assumption, mean ``1/gamma``), ``"fixed"`` (deterministic
        ``1/gamma``) or ``"uniform"`` (on ``[0, 2/gamma]``, same mean).
        The fluid steady states depend only on the mean, so the
        alternatives are insensitivity ablations.
    neighbor_limit:
        ``None`` (default) gives the fluid models' full-mesh mixing.  A
        finite value routes every swarm join through a
        :class:`~repro.sim.tracker.Tracker` that returns at most this many
        random peers (the protocol's ``numwant``), and service then flows
        only along sampled connections.  Only supported with
        ``SUBTORRENT`` groups (the ``GLOBAL_POOL`` policy *is* the mixing
        assumption).

    Notes
    -----
    Flushes reuse cached capacity shares for seed-capacity and
    tit-for-tat changes, falling back to the full kernels on membership
    changes or cache misses; tracker-limited swarms maintain their
    neighbour topology incrementally; and each rate domain opens a
    :class:`~repro.sim.bandwidth.RateWindow` after every exact flush, so
    seed-capacity changes and joins update two scalars instead of every
    row and per-row progress is only folded in at completion events (or
    when something reads an entry's progress).  None of this is
    configurable: the oracles the equivalence suites compare against are
    test-facing hooks in :mod:`repro.sim.reference` --
    ``oracle_mode()`` (full kernels, full topology rebuilds, per-event
    dispatch; bit-identical) and ``eager_integration()`` (no windows;
    agrees to float-rounding, since the summation orders differ).
    """

    def __init__(
        self,
        *,
        mu: float,
        eta: float,
        gamma: float,
        num_classes: int,
        download_cap: float | None = None,
        file_size: float = 1.0,
        rng: RandomStreams | None = None,
        seed_lifetime_distribution: str = "exponential",
        neighbor_limit: int | None = None,
        trace: "EventTrace | None" = None,
    ):
        if mu <= 0 or gamma <= 0 or file_size <= 0:
            raise ValueError("mu, gamma and file_size must be positive")
        if seed_lifetime_distribution not in ("exponential", "fixed", "uniform"):
            raise ValueError(
                "seed_lifetime_distribution must be 'exponential', 'fixed' or "
                f"'uniform', got {seed_lifetime_distribution!r}"
            )
        self.seed_lifetime_distribution = seed_lifetime_distribution
        self.mu = mu
        self.eta = eta
        self.gamma = gamma
        self.file_size = file_size
        self.download_cap = download_cap if download_cap is not None else 10.0 * mu
        self.num_classes = num_classes
        self.rng = rng if rng is not None else RandomStreams(0)
        self.sim = Simulator()
        self.metrics = MetricsCollector(num_classes=num_classes)
        self.groups: dict[int, SwarmGroup] = {}
        self.file_to_group: dict[int, int] = {}
        self.behaviors: dict[int, "UserBehavior"] = {}
        #: file id -> the rate domain its rows live in
        self._file_domains: dict[int, _RateDomain] = {}
        self._dirty: dict[_RateDomain, _DomainDirt] = {}
        #: per-domain materialise callbacks installed as ``store._sync``
        #: while a window is open (cached: one closure per domain)
        self._sync_callbacks: dict[_RateDomain, Callable[[], None]] = {}
        self._epochs: dict[_RateDomain, int] = {}
        self._completion_handles: dict[_RateDomain, EventHandle] = {}
        self._next_user_id = 0
        self._completion_slack = 1e-9 * file_size
        self.tracker: Tracker | None = None
        if neighbor_limit is not None:
            self.tracker = Tracker(self.rng.misc, numwant=neighbor_limit)
        self.trace = trace

    # ----- topology -------------------------------------------------------------

    def add_group(self, file_ids: tuple[int, ...], policy: SeedPolicy) -> SwarmGroup:
        """Create a torrent publishing ``file_ids``; files are system-unique."""
        if self.tracker is not None and policy is SeedPolicy.GLOBAL_POOL:
            raise ValueError(
                "neighbor_limit requires SUBTORRENT groups: the GLOBAL_POOL "
                "policy is itself the full-mixing assumption"
            )
        group_id = len(self.groups)
        for f in file_ids:
            if f in self.file_to_group:
                raise ValueError(f"file {f} already published by another group")
        group = SwarmGroup(
            group_id,
            file_ids,
            eta=self.eta,
            policy=policy,
            records=self.metrics.records,
        )
        if self.tracker is not None:
            for swarm in group.swarms.values():
                swarm.neighbor_aware = True
        self.groups[group_id] = group
        for f in file_ids:
            self.file_to_group[f] = group_id
        for domain in group._domains:
            for swarm in domain._members:
                self._file_domains[swarm.file_id] = domain
        return group

    def group_of_file(self, file_id: int) -> SwarmGroup:
        return self.groups[self.file_to_group[file_id]]

    # ----- time & randomness -------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def seed_lifetime(self) -> float:
        """Draw one seeding duration with mean ``1/gamma``."""
        mean = 1.0 / self.gamma
        if self.seed_lifetime_distribution == "fixed":
            return mean
        if self.seed_lifetime_distribution == "uniform":
            return float(self.rng.seeding.uniform(0.0, 2.0 * mean))
        return float(self.rng.seeding.exponential(mean))

    def schedule_after(
        self, delay: float, callback: Callable[[], None], *, priority: int = PRIORITY_DEFAULT
    ) -> EventHandle:
        return self.sim.schedule_after(delay, callback, priority=priority)

    # ----- user lifecycle ------------------------------------------------------------

    def spawn_user(self, behavior_factory, files: tuple[int, ...], **behavior_kwargs) -> int:
        """Create a user, its record and behaviour; behaviour starts itself."""
        from repro.sim.behaviors import UserBehavior  # local import: cycle guard

        user_id = self._next_user_id
        self._next_user_id += 1
        behavior = behavior_factory(self, user_id, files, **behavior_kwargs)
        if not isinstance(behavior, UserBehavior):
            raise TypeError(f"behavior factory produced {type(behavior)!r}")
        self.metrics.new_record(behavior.record)
        self.behaviors[user_id] = behavior
        if self.trace is not None:
            self.trace.record(self.now, EventKind.USER_ARRIVED, user_id)
        behavior.on_arrival()
        self.flush()
        return user_id

    def user_departed(self, user_id: int) -> None:
        """Record final departure and drop the behaviour."""
        record = self.metrics.records[user_id]
        if record.departure_time is not None:
            raise ValueError(f"user {user_id} departed twice")
        record.departure_time = self.now
        self.behaviors.pop(user_id, None)
        if self.trace is not None:
            self.trace.record(self.now, EventKind.USER_DEPARTED, user_id)

    # ----- tracker bookkeeping (neighbor-aware mode) -------------------------------------

    @staticmethod
    def _user_in_swarm(swarm: Swarm, user_id: int) -> bool:
        # a per-file swarm keys its downloads (user_id, swarm.file_id)
        return (
            user_id in swarm.real_seeds
            or user_id in swarm.virtual_seeds
            or (user_id, swarm.file_id) in swarm.downloaders
        )

    def _tracker_join(self, file_id: int, user_id: int, *, is_seeder: bool) -> None:
        tracker = self.tracker
        if tracker is None:
            return
        swarm = self.group_of_file(file_id).swarms[file_id]
        if user_id in swarm.neighbors:
            if is_seeder:
                # the user keeps its STARTED sample, so this announce's
                # sample is never read; its draw stays (it advances the
                # generator the per-user options share)
                with current_registry().time("sim.tracker.seconds"):
                    tracker.announce_discarding(user_id, file_id, AnnounceEvent.COMPLETED)
            return
        with current_registry().time("sim.tracker.seconds"):
            sample = tracker.announce(
                user_id, file_id, AnnounceEvent.STARTED, is_seeder=is_seeder
            )
        swarm.set_neighbor_sample(user_id, sample)

    def _tracker_leave_if_absent(self, file_id: int, user_id: int) -> None:
        tracker = self.tracker
        if tracker is None:
            return
        swarm = self.group_of_file(file_id).swarms[file_id]
        if self._user_in_swarm(swarm, user_id):
            return
        if user_id in swarm.neighbors:
            swarm.drop_neighbor_sample(user_id)
            with current_registry().time("sim.tracker.seconds"):
                tracker.announce_discarding(user_id, file_id, AnnounceEvent.STOPPED)

    # ----- mutations used by behaviours ------------------------------------------------

    def _dirt(self, domain: _RateDomain) -> _DomainDirt:
        dirt = self._dirty.get(domain)
        if dirt is None:
            dirt = self._dirty[domain] = _DomainDirt()
        return dirt

    def _touch(
        self,
        file_id: int,
        *,
        entry: DownloadEntry | None = None,
        seeds: bool = False,
    ) -> None:
        """Bring the file's rate domain up to now and mark it dirty.

        The kind of dirt records *what* is about to change: a specific
        downloader row (``entry=...``, tit-for-tat change), the seed
        capacity (``seeds=True``), or -- the default -- membership, which
        needs a full recompute.  :meth:`flush` picks the kernel
        accordingly; multiple kinds accumulated between flushes degrade
        to the strongest one needed.

        While the domain holds an active deferred window, seed changes
        only extend the window's integrals here (O(1)); per-row (tft) and
        full changes break the factorised trajectory, so the window is
        materialised and -- since every row still carries its
        window-start rate -- the dirt is raised to seeds-strength to force
        an all-row refresh on the exact path.
        """
        domain = self._file_domains[file_id]
        win = domain.win
        dirt = self._dirt(domain)
        if win.active:
            if entry is None:
                domain.win_accumulate(self.now)
            else:
                domain.win_materialize(self.now)
                dirt.seeds = True
        if not win.active:
            domain.advance(self.now)
        if entry is not None:
            dirt.entries.append(entry)
        elif seeds:
            dirt.seeds = True
        else:
            dirt.full = True

    def start_download(
        self,
        user_id: int,
        file_id: int,
        *,
        user_class: int,
        stage: int,
        tft_upload: float,
        download_cap: float,
    ) -> DownloadEntry:
        domain = self._file_domains[file_id]
        win = domain.win
        if win.active:
            domain.win_accumulate(self.now)
        else:
            domain.advance(self.now)
        entry = DownloadEntry(
            user_id=user_id,
            file_id=file_id,
            user_class=user_class,
            stage=stage,
            tft_upload=tft_upload,
            download_cap=download_cap,
            remaining=self.file_size,
            started_at=self.now,
        )
        self.group_of_file(file_id).add_downloader(entry)
        if win.active:
            # bias the fresh row so the window's uniform fold stays exact
            domain.win_bias_attached(entry)
        self._dirt(domain).joins.append(entry)
        self._tracker_join(file_id, user_id, is_seeder=False)
        if self.trace is not None:
            self.trace.record(self.now, EventKind.DOWNLOAD_STARTED, user_id, file_id)
        return entry

    def set_tft_upload(self, user_id: int, file_id: int, tft_upload: float) -> None:
        """Change the tit-for-tat bandwidth of an active download (Adapt)."""
        entry = self.group_of_file(file_id).get_downloader(user_id, file_id)
        self._touch(file_id, entry=entry)
        entry.tft_upload = tft_upload

    def add_seed(
        self, user_id: int, file_id: int, bandwidth: float, user_class: int, *, virtual: bool
    ) -> None:
        self._touch(file_id, seeds=True)
        self.group_of_file(file_id).add_seed(
            user_id, file_id, bandwidth, user_class, virtual=virtual
        )
        self._tracker_join(file_id, user_id, is_seeder=not virtual)
        if self.trace is not None:
            self.trace.record(
                self.now, EventKind.SEED_ADDED, user_id, file_id, bandwidth
            )

    def remove_seed(self, user_id: int, file_id: int, *, virtual: bool) -> float:
        self._touch(file_id, seeds=True)
        bw = self.group_of_file(file_id).remove_seed(user_id, file_id, virtual=virtual)
        self._tracker_leave_if_absent(file_id, user_id)
        if self.trace is not None:
            self.trace.record(self.now, EventKind.SEED_REMOVED, user_id, file_id, bw)
        return bw

    def set_seed_bandwidth(
        self, user_id: int, file_id: int, bandwidth: float, *, virtual: bool
    ) -> None:
        self._touch(file_id, seeds=True)
        self.group_of_file(file_id).set_seed_bandwidth(
            user_id, file_id, bandwidth, virtual=virtual
        )

    # ----- rate maintenance -----------------------------------------------------------

    def flush(self) -> None:
        """Recompute rates of dirty domains and refresh completion events.

        Mutations accumulated since the previous flush are batched into
        one pass per domain.  A domain inside an active deferred window
        whose dirt is window-compatible (seed capacity and/or joins only)
        is refreshed in O(changes): the window scalars absorb the new
        pool, the completion bound is rescaled, and the pending completion
        event is left untouched when the bound did not move.  Everything
        else takes the exact path -- materialise the window if one is
        open, advance, recompute (incremental against cached shares when
        the dirt allows it, full otherwise), re-plan the completion event
        -- and then opens a fresh window at the new rates.
        """
        now = self.now
        reg = current_registry()
        while self._dirty:
            domain, dirt = self._dirty.popitem()
            win = domain.win
            if win.active:
                if not dirt.full and not dirt.entries:
                    old_bound = win.bound
                    if domain.win_refresh(dirt.joins):
                        if win.bound != old_bound:
                            self._reschedule_completion(domain, win.bound)
                        continue
                # either the dirt breaks the factorised trajectory, or the
                # window cannot hold the new state (possible clipping,
                # stalled rows under a rising pool): fold it and re-plan
                # exactly; all rows' rates are stale, so refresh them all
                domain.win_materialize(now)
                dirt.seeds = True
            domain.advance(now)
            domain._recompute(
                self.eta,
                None if dirt.seeds or dirt.joins else dirt.entries,
                incremental=not dirt.full and not dirt.joins,
            )
            t_next = domain.next_completion_time()
            self._reschedule_completion(domain, t_next)
            self._start_window(domain, t_next)

    def _start_window(self, domain: _RateDomain, bound: float) -> None:
        """Open a deferred window at just-recomputed rates (best effort)."""
        sync = self._sync_callbacks.get(domain)
        if sync is None:
            sync = self._sync_callbacks[domain] = self._make_sync(domain)
        domain.win_start(self.eta, self.now, bound, sync)

    def _make_sync(self, domain: _RateDomain) -> Callable[[], None]:
        """Materialise-on-read callback installed as the stores' ``_sync``.

        Fires when an entry's time-integrated state is read (or any field
        written) through the object API while the domain defers
        integration -- folds the window and brings rates current so the
        reader observes exactly what eager integration would have shown.
        """

        def sync() -> None:
            domain.win_materialize(self.sim.now)
            domain._recompute(self.eta)
            reg = current_registry()
            if reg.enabled:
                reg.inc("sim.window.sync")

        return sync

    def materialize_all(self) -> None:
        """Fold every active deferred window and refresh its rates.

        Called at the end of :meth:`run_until` and before bulk accounting
        reads, so external observers never see deferred state.
        """
        for group in self.groups.values():
            for domain in group._domains:
                if domain.win.active:
                    domain.win_materialize(self.now)
                    domain._recompute(self.eta)
                else:
                    # no window (win_start refused, or eager integration
                    # forced by a test hook): the domain integrates on
                    # flush, so it may lag behind ``now`` since the last
                    # event -- bring it current
                    domain.advance(self.now)

    def _reschedule_completion(self, domain: _RateDomain, t_next: float) -> None:
        handle = self._completion_handles.pop(domain, None)
        if handle is not None:
            self.sim.cancel(handle)
        epoch = self._epochs.get(domain, 0) + 1
        self._epochs[domain] = epoch
        if not math.isfinite(t_next):
            return
        self._completion_handles[domain] = self.sim.schedule_at(
            max(self.now, t_next),
            lambda: self._on_completion(domain, epoch),
            priority=PRIORITY_COMPLETION,
        )

    def _on_completion(self, domain: _RateDomain, epoch: int) -> None:
        if self._epochs.get(domain) != epoch:
            return  # a mutation re-planned this domain since scheduling
        self._completion_handles.pop(domain, None)
        if domain.win.active:
            # The event fired at the window's conservative bound.  Judge
            # it in window space: a walk down each store's lanes answers
            # "who is actually due" exactly at the current ``q``, so a
            # stale bound (routine after the pool shrank) re-plans without
            # folding the window or touching any rates -- and genuinely due
            # rows are retired by per-row folds that keep the window open
            # for everyone else.
            domain.win_accumulate(self.now)
            t_next, due, t_rest = domain.win_due(1e-6)
            if not due:
                self._reschedule_completion(domain, t_next)
                reg = current_registry()
                if reg.enabled:
                    reg.inc("sim.window.refire")
                return
            self._complete_entries_windowed(domain, due, t_rest)
            return
        domain.advance(self.now)
        # One snapshot per swarm: both the due set and the fallback
        # candidate must be judged against the *same* (remaining, rate)
        # state, or a flush sneaking in between the two reads could mix
        # rates from two allocation epochs.
        snapshots = [s.work_snapshot() for s in domain._members]
        due = []
        for snapshot in snapshots:
            due.extend(snapshot.due(self._completion_slack))
        if not due:
            # Numerical slack: the closest entry should be within float
            # error of done; force the earliest one to completion.  A
            # genuinely early wake-up (possible only through a logic bug
            # while windows are off) falls back to re-planning.
            earliest = [e for s in snapshots if (e := s.earliest()) is not None]
            if not earliest:
                return
            entry, eta = min(earliest, key=lambda pair: pair[1])
            if eta > 1e-6:
                self._dirt(domain).full = True
                self.flush()
                return
            entry.remaining = 0.0
            due = [entry]
        self._complete_entries(domain, due)

    def _file_completed(self, entry: DownloadEntry) -> None:
        """Book one detached entry's completion: its span and record, the
        trace, the behaviour callback and the tracker's view."""
        now = self.now
        self.metrics.record_span(
            EntrySpan(
                user_id=entry.user_id,
                file_id=entry.file_id,
                user_class=entry.user_class,
                stage=entry.stage,
                started_at=entry.started_at,
                completed_at=now,
            )
        )
        self.metrics.records[entry.user_id].file_completions[entry.file_id] = now
        if self.trace is not None:
            self.trace.record(now, EventKind.FILE_COMPLETED, entry.user_id, entry.file_id)
        behavior = self.behaviors.get(entry.user_id)
        if behavior is not None:
            behavior.on_file_complete(entry)
        self._tracker_leave_if_absent(entry.file_id, entry.user_id)

    def _complete_entries(self, domain: _RateDomain, due: list[DownloadEntry]) -> None:
        """Retire due entries and re-plan the domain (rates + completion)."""
        for entry in due:
            if domain.win.active:
                # a behaviour callback below can flush() and re-open this
                # domain's window mid-loop; fold it before detaching a row
                # behind its back (zero elapsed time, so the fold is free
                # and the just-recomputed rates stay current)
                domain.win_materialize(self.now)
            self.group_of_file(entry.file_id).remove_downloader(
                entry.user_id, entry.file_id
            )
            self._file_completed(entry)
        self._dirt(domain).full = True
        self.flush()

    def _complete_entries_windowed(
        self, domain: _RateDomain, due: list[DownloadEntry], t_rest: float
    ) -> None:
        """Retire due entries through the open window, keeping it open.

        Each row is folded and detached individually (no store-wide
        materialise, no full rate recompute); the window then absorbs the
        pool change as a seeds-strength refresh.  ``t_rest`` -- the exact
        next completion among the rows that stay, computed in the same
        pass that judged the due set -- becomes the window's bound *before*
        any mutation, so every subsequent refresh (behaviour callbacks may
        flush this domain mid-loop) rescales it conservatively.  Behaviour
        callbacks may even materialise this domain mid-loop; remaining
        rows then detach through the ordinary exact path.
        """
        records = self.metrics.records
        reg = current_registry()
        if reg.enabled:
            reg.inc("sim.window.complete", len(due))
        domain.win.bound = t_rest
        for entry in due:
            if domain.win.active:
                domain.win_complete(entry, records)
            else:
                self.group_of_file(entry.file_id).remove_downloader(
                    entry.user_id, entry.file_id
                )
            self._file_completed(entry)
        # the departures changed the pool ratio ``q``; a seeds-strength
        # refresh absorbs that, rescaling the ``t_rest`` bound installed
        # above.  The fired event is spent, so always re-arm from the
        # post-refresh bound while the window survives (the materialise
        # fallback plans its own exact completion inside flush).
        self._dirt(domain).seeds = True
        self.flush()
        win = domain.win
        if win.active:
            self._reschedule_completion(domain, win.bound)

    # ----- sampling -------------------------------------------------------------------

    def start_sampler(
        self, interval: float, t_end: float, *, record_stages: bool = False
    ) -> None:
        """Record per-swarm population snapshots every ``interval`` units.

        ``record_stages`` additionally captures the (class, stage) matrix
        per swarm -- the observable matching Eq. (5)'s ``x^{i,j}``.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")

        def sample() -> None:
            for group in self.groups.values():
                for file_id, swarm in group.swarms.items():
                    self.metrics.record_sample(
                        PopulationSample(
                            time=self.now,
                            group_id=group.group_id,
                            file_id=file_id,
                            downloaders=swarm.downloader_count_by_class(self.num_classes),
                            seeds=swarm.seed_count_by_class(self.num_classes),
                            stage_downloaders=(
                                swarm.downloader_count_by_class_stage(self.num_classes)
                                if record_stages
                                else None
                            ),
                        )
                    )
            if self.now + interval <= t_end:
                self.sim.schedule_after(interval, sample, priority=PRIORITY_SAMPLER)

        self.sim.schedule_after(interval, sample, priority=PRIORITY_SAMPLER)

    # ----- deferred accounting --------------------------------------------------------

    def sync_accounting(self) -> None:
        """Flush deferred virtual give/take integrals into the user records.

        Progress advancement accumulates received-from-virtual bandwidth
        and virtual-seed busy time in per-swarm accumulators instead of
        walking the user records on every event; call this before reading
        ``UserRecord.uploaded_virtual`` / ``received_virtual`` in bulk
        (:func:`repro.sim.scenarios.run_scenario` does it before
        summarising).  Idempotent.
        """
        self.materialize_all()
        for group in self.groups.values():
            group.sync_accounting()

    def sync_user_accounting(self, user_id: int) -> None:
        """Flush one user's deferred give/take integrals (Adapt ticks).

        Active windows are only *accumulated* to now (not folded): the
        per-row settle hooks are window-aware, so one user's accounting
        read does not force O(rows) materialisation on every Adapt tick.
        """
        now = self.now
        for group in self.groups.values():
            for domain in group._domains:
                if domain.win.active:
                    domain.win_accumulate(now)
            group.sync_user_accounting(user_id)

    # ----- run ------------------------------------------------------------------------

    def run_until(self, t_end: float, *, max_events: int | None = None) -> int:
        """Drive the event loop to ``t_end``; deferred state is folded on exit."""
        result = self.sim.run_until(t_end, max_events=max_events)
        self.materialize_all()
        return result
