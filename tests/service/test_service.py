"""Tests for the asyncio service shell: lifecycle, backpressure, queries.

Every test drives the loop with ``asyncio.run`` and a deterministic
injected virtual clock, so nothing here depends on wall-clock timing.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.service import LiveEvent, SwarmService, read_journal
from repro.sim import SeedPolicy, SimulationSystem, make_behavior
from repro.sim.behaviors import BehaviorKind

from tests.service.conftest import make_spec, ticking_clock


class TestLifecycle:
    def test_clean_shutdown_drains_queue_and_seals_journal(self, spec, tmp_path):
        path = tmp_path / "run.ndjson"

        async def run():
            svc = SwarmService(spec, journal_path=path, clock=ticking_clock())
            await svc.start()
            # Enqueue a burst without yielding: nothing is applied yet when
            # stop() is called, so the drain guarantee is what applies them.
            for _ in range(50):
                await svc.ingest(LiveEvent.arrival())
            assert svc.core.events_applied < 50
            await svc.stop()
            return svc

        svc = asyncio.run(run())
        assert svc.core.events_applied == 50  # every accepted event applied
        assert svc.counters == {"events": 50, "dropped": 0, "stale": 0, "errors": 0}
        records = list(read_journal(path))
        assert records[-1]["op"] == "close"  # sealed
        assert records[-1]["events"] == 50
        assert sum(r["op"] == "event" for r in records) == 50

    def test_stop_is_idempotent_and_ingest_after_stop_raises(self, spec):
        async def run():
            svc = SwarmService(spec, clock=ticking_clock())
            await svc.start()
            first = await svc.stop()
            assert (await svc.stop()) is first
            with pytest.raises(RuntimeError, match="stopping"):
                await svc.ingest(LiveEvent.arrival())
            return first

        summary = asyncio.run(run())
        assert summary.n_users_completed >= 0

    def test_service_section_supplies_defaults(self):
        from repro.scenario import ServiceSpec
        from dataclasses import replace

        spec = replace(
            make_spec(),
            service=ServiceSpec(time_scale=7.0, queue_capacity=3, overflow="block"),
        )
        svc = SwarmService(spec)
        assert svc.time_scale == 7.0
        assert svc.queue_capacity == 3
        assert svc.overflow == "block"
        # Explicit arguments win over the section.
        svc = SwarmService(spec, queue_capacity=9, overflow="shed")
        assert svc.queue_capacity == 9 and svc.overflow == "shed"

    def test_invalid_knobs_rejected(self, spec):
        with pytest.raises(ValueError, match="overflow"):
            SwarmService(spec, overflow="panic")
        with pytest.raises(ValueError, match="queue_capacity"):
            SwarmService(spec, queue_capacity=0)


class TestBackpressure:
    def test_shed_drop_counters_are_exact(self, spec):
        registry = MetricsRegistry()

        async def run():
            svc = SwarmService(spec, queue_capacity=8, overflow="shed",
                               clock=ticking_clock())
            await svc.start()
            # No awaits that yield to the pump: the queue genuinely fills.
            accepted = [await svc.ingest(LiveEvent.arrival()) for _ in range(20)]
            assert accepted == [True] * 8 + [False] * 12
            await svc.stop()
            return svc

        with use_registry(registry):
            svc = asyncio.run(run())
        assert svc.counters == {"events": 8, "dropped": 12, "stale": 0, "errors": 0}
        assert svc.core.events_applied == 8  # dropped events never reach the core
        assert registry.counters["service.ingest.events"] == 8
        assert registry.counters["service.ingest.dropped"] == 12
        assert registry.gauges["service.ingest.queue_depth"] == 0  # drained

    def test_block_overflow_applies_backpressure_not_loss(self, spec):
        async def run():
            svc = SwarmService(spec, queue_capacity=4, overflow="block",
                               clock=ticking_clock())
            await svc.start()
            for _ in range(40):  # ingest() awaits space; pump drains meanwhile
                await svc.ingest(LiveEvent.arrival())
            await svc.stop()
            return svc

        svc = asyncio.run(run())
        assert svc.counters == {"events": 40, "dropped": 0, "stale": 0, "errors": 0}
        assert svc.core.events_applied == 40

    def test_block_mode_late_put_racer_is_still_applied_on_stop(self, spec):
        # Shutdown race regression: a producer that passed the _stopping
        # check can be parked in put() on a full queue while stop()'s
        # sentinel slips into the slot the pump just freed -- its event
        # then lands *after* the sentinel.  It was acknowledged as
        # accepted and counted, so the shutdown drain must still apply it.
        async def run():
            svc = SwarmService(spec, queue_capacity=1, overflow="block",
                               clock=ticking_clock())
            await svc.start()
            await svc.ingest(LiveEvent.arrival())  # queue full, pump asleep
            await asyncio.sleep(0)  # pump drains it and idles on get()
            r1 = asyncio.create_task(svc.ingest(LiveEvent.arrival()))
            r2 = asyncio.create_task(svc.ingest(LiveEvent.arrival()))
            await asyncio.sleep(0)  # r1's event lands; r2 parks in put()
            # One more tick: the pump drains r1's event and wakes r2, but
            # r2 has not resumed yet -- so stop()'s sentinel finds the
            # freed slot and slips in ahead of r2's event.
            await asyncio.sleep(0)
            await svc.stop()
            assert (await r1) is True and (await r2) is True  # both acked
            return svc

        svc = asyncio.run(run())
        assert svc.counters["events"] == 3
        assert svc.core.events_applied == 3  # the late racer was not lost


class TestEventSemantics:
    def test_stale_targets_counted_not_fatal(self, spec):
        async def run():
            svc = SwarmService(spec, clock=ticking_clock())
            await svc.start()
            await svc.ingest(LiveEvent.departure(9999))
            await svc.ingest(LiveEvent.rho_change(9999, 0.5))
            await svc.ingest(LiveEvent.arrival())
            await svc.stop()
            return svc

        svc = asyncio.run(run())
        assert svc.counters["stale"] == 2
        assert svc.core.events_applied == 3  # stale events still count as applied

    def test_unknown_file_ids_rejected_before_journal(self, spec, tmp_path):
        path = tmp_path / "run.ndjson"

        async def run():
            svc = SwarmService(spec, journal_path=path, clock=ticking_clock())
            await svc.start()
            with pytest.raises(ValueError, match="unknown file"):
                svc.core.apply(LiveEvent.request((0, 99)))
            await svc.stop()

        asyncio.run(run())
        assert not any(r["op"] == "event" for r in read_journal(path))

    def test_unknown_file_ids_rejected_at_ingest_never_accepted(self, spec):
        # Regression: file-id range errors used to surface only inside the
        # pump's core.apply(), *after* the event was accepted -- killing
        # the pump task and silently wedging the service.  ingest() now
        # rejects them up front, before acknowledging or queueing.
        async def run():
            svc = SwarmService(spec, clock=ticking_clock())
            await svc.start()
            with pytest.raises(ValueError, match="unknown file"):
                await svc.ingest(LiveEvent.request((0, 99)))
            assert (await svc.ingest(LiveEvent.arrival())) is True  # still up
            await svc.stop()
            return svc

        svc = asyncio.run(run())
        assert svc.counters == {"events": 1, "dropped": 0, "stale": 0, "errors": 0}
        assert svc.core.events_applied == 1

    def test_pump_survives_unexpected_apply_failure(self, spec):
        # Defence in depth behind ingest-time validation: an accepted
        # event whose apply raises is counted and skipped; the pump keeps
        # draining instead of dying with the queue backing up forever.
        registry = MetricsRegistry()

        async def run():
            svc = SwarmService(spec, clock=ticking_clock())
            await svc.start()
            boom = LiveEvent.arrival()
            original_apply = svc.core.apply

            def apply(event):
                if event is boom:
                    raise RuntimeError("injected apply failure")
                return original_apply(event)

            svc.core.apply = apply
            await svc.ingest(boom)
            await svc.ingest(LiveEvent.arrival())
            await svc.stop()
            return svc

        with use_registry(registry):
            svc = asyncio.run(run())
        assert svc.counters["errors"] == 1
        assert svc.core.events_applied == 1  # the later event still applied
        assert registry.counters["service.ingest.errors"] == 1

    def test_queries_are_live_and_pure(self, spec):
        async def run():
            svc = SwarmService(spec, clock=ticking_clock())
            await svc.start()
            for _ in range(30):
                await svc.ingest(LiveEvent.arrival())
            before = svc.stats()
            assert before["queue_depth"] == 30  # queried while backlogged
            await asyncio.sleep(0)  # let the pump drain
            while svc.stats()["queue_depth"]:
                await asyncio.sleep(0)
            after = svc.stats()
            assert after["users_active"] > before["users_active"]
            assert after["eta"] == 0.5
            assert set(svc.summary_so_far()) >= {
                "n_users_completed",
                "online_time_per_file_by_class",
            }
            await svc.stop()

        asyncio.run(run())


class TestForcedDeparture:
    """The behaviors-layer hook behind ``departure`` events."""

    def _seeding_user(self):
        system = SimulationSystem(mu=0.02, eta=0.5, gamma=0.05, num_classes=2)
        system.add_group((0, 1), SeedPolicy.GLOBAL_POOL)
        system.seed_lifetime = lambda: 500.0
        uid = system.spawn_user(make_behavior(BehaviorKind.CONCURRENT), (0, 1))
        # Run until downloads finish and the user lingers as a seed.
        t = 0.0
        while system.metrics.records[uid].downloads_done_time is None:
            t += 50.0
            system.run_until(t)
        return system, uid

    def test_expire_timers_cuts_seed_linger_short(self):
        system, uid = self._seeding_user()
        record = system.metrics.records[uid]
        assert record.departure_time is None  # still seeding (lifetime 500)
        fired = system.behaviors[uid].expire_timers_now()
        assert fired > 0
        assert record.departure_time == system.now
        assert uid not in system.behaviors
        # The simulator keeps running fine with the cancelled timers.
        system.run_until(system.now + 600.0)

    def test_mid_download_user_is_left_alone(self):
        system = SimulationSystem(mu=0.02, eta=0.5, gamma=0.05, num_classes=1)
        system.add_group((0,), SeedPolicy.GLOBAL_POOL)
        uid = system.spawn_user(make_behavior(BehaviorKind.CONCURRENT), (0,))
        assert system.behaviors[uid].expire_timers_now() == 0
        assert system.metrics.records[uid].departure_time is None


class TestTCP:
    def test_line_json_protocol(self, spec):
        async def run():
            svc = SwarmService(spec, clock=ticking_clock())
            await svc.start()
            server = await svc.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def rpc(doc):
                writer.write(json.dumps(doc).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            ok = await rpc({"op": "event", "event": {"kind": "arrival"}})
            assert ok == {"accepted": True, "ok": True}
            bare = await rpc({"kind": "request", "files": [0, 1]})  # op defaults
            assert bare["ok"] and bare["accepted"]
            stats = await rpc({"op": "stats"})
            assert stats["ok"] and stats["stats"]["events_applied"] >= 0
            summary = await rpc({"op": "summary"})
            assert summary["ok"] and "n_users_completed" in summary["summary"]
            bad = await rpc({"op": "event", "event": {"kind": "bogus"}})
            assert not bad["ok"] and "unknown event kind" in bad["error"]
            # Out-of-range file ids are rejected at ingest -- the client
            # gets an error instead of a poisoned ack, and the pump stays
            # alive (events_applied below proves later traffic still runs).
            oob = await rpc({"kind": "request", "files": [0, 99]})
            assert not oob["ok"] and "unknown file" in oob["error"]
            worse = await rpc({"op": "explode"})
            assert not worse["ok"] and "unknown op" in worse["error"]
            writer.close()
            server.close()
            await server.wait_closed()
            await svc.stop()
            return svc

        svc = asyncio.run(run())
        assert svc.core.events_applied == 2

    @pytest.mark.parametrize("newline", [b"\n", b""], ids=["line", "unterminated"])
    def test_overlong_line_is_refused_and_the_server_keeps_serving(
        self, spec, newline
    ):
        """A request line over asyncio's 64 KiB stream limit gets one error
        line and a closed connection; the handler does not crash into the
        loop's exception handler, and other clients are still served."""

        async def run():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            svc = SwarmService(spec, clock=ticking_clock())
            await svc.start()
            server = await svc.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "stats", "pad": "' + b"x" * 70_000 + b'"}' + newline)
            await writer.drain()
            refusal = json.loads(await reader.readline())
            assert await reader.read() == b""  # then the server hangs up
            writer.close()

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "stats"}\n')
            await writer.drain()
            served = json.loads(await reader.readline())
            writer.close()

            server.close()
            await server.wait_closed()
            await svc.stop()
            return refusal, served, unhandled, dict(svc.counters)

        refusal, served, unhandled, counters = asyncio.run(run())
        assert refusal == {
            "ok": False,
            "error": "request line longer than 65536 bytes; closing the connection",
        }
        assert served["ok"] and "stats" in served
        assert unhandled == []
        assert counters == {"events": 0, "dropped": 0, "stale": 0, "errors": 0}
