"""The tracker of the paper's server--torrent architecture (Fig. 1).

Real BitTorrent peers do not see the whole swarm: they announce to the
tracker and receive a bounded random sample of other peers (classically
``numwant = 50``), and can only exchange data with peers they are
connected to.  The fluid models assume *full mixing* -- everyone trades
with everyone.  This module provides the tracker bookkeeping (announce
events, per-swarm scrape statistics) and the random peer-list sampling
that lets the flow-level simulator run with bounded neighbour sets, so the
quality of the full-mixing assumption becomes measurable (the ``mixing``
experiment).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["AnnounceEvent", "ScrapeStats", "Tracker"]


class AnnounceEvent(enum.Enum):
    """The announce event types of the BitTorrent tracker protocol."""

    STARTED = "started"
    COMPLETED = "completed"
    STOPPED = "stopped"


@dataclass(frozen=True)
class ScrapeStats:
    """Per-swarm counters exposed by a tracker scrape.

    ``leechers``/``seeders`` count current members; ``completed`` counts
    downloads finished over the torrent's lifetime (the tracker's
    "snatches" figure).
    """

    leechers: int
    seeders: int
    completed: int

    @property
    def total_peers(self) -> int:
        return self.leechers + self.seeders


class Tracker:
    """Per-file peer registries with announce/scrape and peer sampling.

    Parameters
    ----------
    rng:
        Random generator for peer-list sampling.
    numwant:
        Maximum number of peers returned per announce (the protocol's
        ``numwant``; 50 in mainline BitTorrent).
    """

    def __init__(self, rng: np.random.Generator, *, numwant: int = 50):
        if numwant < 1:
            raise ValueError(f"numwant must be >= 1, got {numwant}")
        self.rng = rng
        self.numwant = numwant
        #: file_id -> {user_id: is_seeder}
        self._members: dict[int, dict[int, bool]] = {}
        self._completed: dict[int, int] = {}
        self.announces = 0

    def _table(self, file_id: int) -> dict[int, bool]:
        return self._members.setdefault(file_id, {})

    def announce(
        self,
        user_id: int,
        file_id: int,
        event: AnnounceEvent,
        *,
        is_seeder: bool = False,
        want_peers: bool = True,
    ) -> list[int]:
        """Process one announce; returns a random peer sample (others only).

        ``STARTED`` registers the peer (as leecher or seeder), ``COMPLETED``
        flips it to seeder and bumps the snatch counter, ``STOPPED``
        removes it.  The returned sample has at most ``numwant`` user ids.

        ``want_peers=False`` (the protocol's ``numwant=0``) makes the
        announce pure O(1) bookkeeping and returns an empty list -- large
        swarms announce completions/departures without paying the O(swarm)
        peer-list scan.
        """
        table = self._register(user_id, file_id, event, is_seeder)
        if not want_peers:
            return []
        others = list(table)
        if event is not AnnounceEvent.STOPPED:
            others.remove(user_id)
        if len(others) <= self.numwant:
            return others
        picked = self.rng.choice(len(others), size=self.numwant, replace=False)
        return list(map(others.__getitem__, picked.tolist()))

    def announce_discarding(
        self,
        user_id: int,
        file_id: int,
        event: AnnounceEvent,
        *,
        is_seeder: bool = False,
    ) -> None:
        """Process one announce whose peer sample the caller would discard.

        Same bookkeeping and the same generator draw as :meth:`announce`
        with ``want_peers=True`` -- the draw depends only on how many other
        members the swarm has, so the generator ends in the same state --
        but no peer list is built.
        """
        table = self._register(user_id, file_id, event, is_seeder)
        others = len(table) - (event is not AnnounceEvent.STOPPED)
        if others > self.numwant:
            self.rng.choice(others, size=self.numwant, replace=False)

    def _register(
        self, user_id: int, file_id: int, event: AnnounceEvent, is_seeder: bool
    ) -> dict[int, bool]:
        """Apply an announce's membership change; returns the file's table."""
        table = self._table(file_id)
        self.announces += 1
        if event is AnnounceEvent.STARTED:
            table[user_id] = is_seeder
        elif event is AnnounceEvent.COMPLETED:
            if user_id not in table:
                raise KeyError(
                    f"user {user_id} completed file {file_id} without starting"
                )
            table[user_id] = True
            self._completed[file_id] = self._completed.get(file_id, 0) + 1
        elif event is AnnounceEvent.STOPPED:
            table.pop(user_id, None)
        return table

    def scrape(self, file_id: int) -> ScrapeStats:
        """Current swarm counters for one file."""
        table = self._table(file_id)
        seeders = sum(1 for is_seed in table.values() if is_seed)
        return ScrapeStats(
            leechers=len(table) - seeders,
            seeders=seeders,
            completed=self._completed.get(file_id, 0),
        )

    def members(self, file_id: int) -> set[int]:
        """User ids currently announced on a file."""
        return set(self._table(file_id))
