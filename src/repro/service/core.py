"""The synchronous heart of the live service.

A :class:`ServiceCore` owns one live
:class:`~repro.sim.system.SimulationSystem` compiled from a
:class:`~repro.scenario.ScenarioSpec`, exactly as the batch driver would
build it (same seeds, same sampler, same background arrival process), and
exposes three operations:

* :meth:`advance` -- run the simulator forward to a virtual time (the
  wall-clock mapping lives in the asyncio shell; replay feeds recorded
  targets instead);
* :meth:`apply` -- apply one external :class:`~repro.service.events.LiveEvent`
  at the current virtual time;
* :meth:`stats` / :meth:`query_summary` -- online queries, **pure reads**
  by construction so a queried live run stays bit-identical to its
  query-free replay.

Every advance and event is journaled exactly as applied; those records are
the run's only nondeterministic input, which is the whole determinism
argument for :func:`repro.service.replay.replay_journal`.
"""

from __future__ import annotations

import hashlib
import json

from repro.scenario.spec import ScenarioSpec, spec_to_dict
from repro.service.events import LiveEvent, LiveEventKind
from repro.service.journal import JournalWriter
from repro.sim.metrics import SimulationSummary, summary_to_dict
from repro.sim.scenarios import build_simulation
from repro.scenario.compile import compile_sim

__all__ = ["ServiceCore", "summary_digest"]


def summary_digest(summary: SimulationSummary) -> str:
    """SHA-256 digest of a summary, covering every field bit-exactly.

    Extends :func:`~repro.sim.metrics.summary_to_dict` (user-time
    metrics) with the time-averaged population fields, so two summaries
    share a digest iff every float in them is bit-identical (Python floats
    serialise via shortest-repr, which round-trips exactly).
    """

    def arr(values) -> list:
        return [float(v) for v in values]

    payload = summary_to_dict(summary)
    payload["mean_downloaders"] = {
        f"{g}:{f}": arr(v) for (g, f), v in sorted(summary.mean_downloaders.items())
    }
    payload["mean_seeds"] = {
        f"{g}:{f}": arr(v) for (g, f), v in sorted(summary.mean_seeds.items())
    }
    payload["mean_stage_downloaders"] = (
        {
            f"{g}:{f}": [arr(row) for row in v]
            for (g, f), v in sorted(summary.mean_stage_downloaders.items())
        }
        if summary.mean_stage_downloaders is not None
        else None
    )
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class ServiceCore:
    """Live simulation state plus the journal of everything done to it.

    Parameters
    ----------
    spec:
        The scenario to serve.  Its ``sim`` section supplies the seed, the
        virtual horizon ``t_end`` (advances clamp there) and the sampler;
        its ``arrivals`` section keeps running as background traffic in
        virtual time alongside the ingested events.
    journal:
        Where to record the run; ``None`` (e.g. during replay) disables
        recording.
    """

    def __init__(self, spec: ScenarioSpec, *, journal: JournalWriter | None = None):
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(f"expected a ScenarioSpec, got {type(spec).__name__}")
        self.spec = spec
        self.config = compile_sim(spec)
        self.system, self.arrivals = build_simulation(self.config)
        self.journal = journal
        self.t_end = self.config.t_end
        self.events_applied = 0
        self.stale_events = 0
        self.started = False
        self.summary: SimulationSummary | None = None
        self.digest: str | None = None

    @property
    def now(self) -> float:
        return self.system.now

    @property
    def finished(self) -> bool:
        return self.summary is not None

    # ----- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Write the journal header and start sampler/background arrivals."""
        if self.started:
            raise RuntimeError("service core already started")
        if self.journal is not None:
            self.journal.write_header(spec_to_dict(self.spec))
        config = self.config
        self.system.start_sampler(config.sample_interval, config.t_end)
        if config.initial_burst:
            options_fn = self.arrivals.per_user_options
            for _ in range(config.initial_burst):
                files = config.correlation.sample_file_set(self.system.rng.files)
                options = options_fn(self.system.rng.misc) if options_fn else {}
                self.system.spawn_user(self.arrivals.behavior_factory, files, **options)
        if config.arrivals_enabled:
            self.arrivals.start()
        self.started = True

    def advance(self, t: float) -> bool:
        """Run the simulator to virtual time ``t`` (clamped to ``t_end``).

        Targets at or before the current time are skipped entirely -- not
        run *and* not journaled -- so the journal holds exactly the
        ``run_until`` calls that happened (materialisation points move
        float results, so even a no-op ``run_until`` would have to be
        replayed to stay exact; easiest is for it never to exist).
        Returns whether the simulator moved.
        """
        self._check_live()
        t = min(t, self.t_end)
        if t <= self.now:
            return False
        self.system.run_until(t)
        if self.journal is not None:
            self.journal.advance(t)
        return True

    def check_event(self, event: LiveEvent) -> None:
        """Validate ``event`` against scenario bounds; raises ``ValueError``.

        Shared by :meth:`apply` and the service's ``ingest`` path: the
        asyncio shell rejects out-of-range events *before* acknowledging
        or queueing them, so a malformed request over the wire can never
        reach the pump task.
        """
        if event.files is not None:
            bad = [f for f in event.files if not 0 <= f < self.config.params.num_files]
            if bad:
                raise ValueError(
                    f"unknown file id(s) {bad}; this scenario has "
                    f"{self.config.params.num_files} files"
                )

    def apply(self, event: LiveEvent) -> dict:
        """Apply one external event at the current virtual time.

        Returns an acknowledgement dict (spawned ``user_id``, ``stale``
        flag, ...).  Invalid events (unknown files) raise *before* touching
        journal or RNG; stale events (unknown/departed target user) are
        journaled no-ops so replay sees the identical sequence.
        """
        self._check_live()
        t = self.now
        ack: dict = {"t": t, "kind": event.kind.value}
        self.check_event(event)
        if self.journal is not None:
            self.journal.event(t, event)
        system = self.system
        if event.kind in (LiveEventKind.ARRIVAL, LiveEventKind.REQUEST):
            files = event.files
            if files is None:
                files = self.config.correlation.sample_file_set(system.rng.files)
            options = {}
            if self.arrivals.per_user_options is not None:
                options = self.arrivals.per_user_options(system.rng.misc)
            ack["user_id"] = system.spawn_user(
                self.arrivals.behavior_factory, tuple(files), **options
            )
        elif event.kind is LiveEventKind.DEPARTURE:
            behavior = system.behaviors.get(event.user_id)
            if behavior is None:
                ack["stale"] = True
                self.stale_events += 1
            else:
                ack["timers_fired"] = behavior.expire_timers_now()
        else:  # RHO_CHANGE
            behavior = system.behaviors.get(event.user_id)
            if behavior is None or not hasattr(behavior, "set_rho"):
                ack["stale"] = True
                self.stale_events += 1
            else:
                behavior.set_rho(event.rho)
                system.flush()
        self.events_applied += 1
        return ack

    def finish(self) -> SimulationSummary:
        """Finalise accounting, seal the journal, return the summary."""
        if self.summary is not None:
            return self.summary
        if not self.started:
            raise RuntimeError("service core never started")
        self.system.sync_accounting()
        summary = self.system.metrics.summarize(
            warmup=self.config.warmup, horizon=self.now
        )
        self.digest = summary_digest(summary)
        if self.journal is not None:
            self.journal.close(
                final_t=self.now, digest=self.digest, events=self.events_applied
            )
        self.summary = summary
        return summary

    # ----- online queries (pure reads) --------------------------------------------

    def stats(self) -> dict:
        """Cheap structural snapshot: populations, counters, clock.

        A pure read -- it must stay one, or queried live runs would
        diverge from their replays.
        """
        system = self.system
        downloaders = seeds = virtual_seeds = 0
        for group in system.groups.values():
            for swarm in group.swarms.values():
                downloaders += len(swarm.downloaders)
                seeds += len(swarm.real_seeds)
                virtual_seeds += len(swarm.virtual_seeds)
        return {
            "virtual_time": self.now,
            "t_end": self.t_end,
            "eta": system.eta,
            "users_active": len(system.behaviors),
            "users_seen": len(system.metrics.records),
            "downloaders": downloaders,
            "seeds": seeds,
            "virtual_seeds": virtual_seeds,
            "events_applied": self.events_applied,
            "events_stale": self.stale_events,
        }

    def query_summary(self) -> dict:
        """Online per-class metrics over completed users so far (pure read)."""
        summary = self.system.metrics.summarize(
            warmup=self.config.warmup, horizon=self.now
        )
        return summary_to_dict(summary)

    def _check_live(self) -> None:
        if not self.started:
            raise RuntimeError("service core not started; call start() first")
        if self.finished:
            raise RuntimeError("service core already finished")
