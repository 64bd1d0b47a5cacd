"""Runtime entities and per-user measurement records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.peerstore import PeerStore

__all__ = ["DownloadEntry", "EntrySpan", "UserRecord"]


def _store_backed(name: str, volatile: bool = False) -> property:
    """Float attribute that lives in the owning store's arrays when attached.

    Detached entries (not yet added to a swarm, or already removed by a
    completion) keep the value in a private slot; attached entries read and
    write their :class:`~repro.sim.peerstore.PeerStore` row directly, so
    the vectorised kernels and the object API always observe one state.

    ``volatile`` marks fields whose stored value is only meaningful once
    the owning rate domain has integrated progress to *now* (``remaining``,
    ``rate``, ...).  While the domain defers integration inside a
    :class:`~repro.sim.bandwidth.RateWindow`, the store carries a ``_sync``
    callback; reading a volatile field (or writing any field) through the
    entry triggers it first, so the object API never observes deferred
    state.  A write also drops the store's lane index
    (:meth:`~repro.sim.peerstore.PeerStore.drop_lanes`): it can move the
    row within or between lanes.
    """
    private = "_" + name

    if volatile:

        def getter(self: "DownloadEntry") -> float:
            store = self._store
            if store is not None:
                if store._sync is not None:
                    store._sync()
                return float(getattr(store, name)[self._slot])
            return getattr(self, private)

    else:

        def getter(self: "DownloadEntry") -> float:
            store = self._store
            if store is not None:
                return float(getattr(store, name)[self._slot])
            return getattr(self, private)

    def setter(self: "DownloadEntry", value: float) -> None:
        store = self._store
        if store is not None:
            if store._sync is not None:
                store._sync()
            getattr(store, name)[self._slot] = value
            store.drop_lanes()
        else:
            object.__setattr__(self, private, float(value))

    return property(getter, setter)


class DownloadEntry:
    """One active download: a (user, file) pair progressing through a swarm.

    Progress is tracked as *remaining work* (file size units); between
    bandwidth-changing events the download rate is constant, so the system
    advances ``remaining`` lazily whenever it refreshes a swarm group.

    While the entry is attached to a swarm, its mutable numeric fields
    (``tft_upload``, ``download_cap``, ``remaining``, ``rate``,
    ``rate_from_virtual``) are views into the swarm's structure-of-arrays
    :class:`~repro.sim.peerstore.PeerStore`, which is what the vectorised
    allocation kernels operate on.  Detached entries hold the values
    locally, so the object reads identically before insertion and after
    removal.

    Attributes
    ----------
    user_id / file_id:
        Who is downloading what.
    user_class:
        Number of files the owning user requested (the fluid model's ``i``).
    stage:
        Which file in sequence this is for the user (the fluid ``j``, 1-based;
        always 1 for concurrent schemes where entries run in parallel).
    tft_upload:
        Upload bandwidth the entry devotes to tit-for-tat in its swarm.
    download_cap:
        Download bandwidth (sets the entry's share of seed service).
    remaining:
        Work left, in file-size units.
    rate / rate_from_virtual:
        Current total download rate and the part of it attributable to
        virtual seeds (used by the Adapt give/take accounting).
    started_at:
        Simulation time the entry was created.
    """

    __slots__ = (
        "user_id",
        "file_id",
        "user_class",
        "stage",
        "started_at",
        "_store",
        "_slot",
        "_tft_upload",
        "_download_cap",
        "_remaining",
        "_rate",
        "_rate_from_virtual",
        "_received_virtual_acc",
    )

    def __init__(
        self,
        user_id: int,
        file_id: int,
        user_class: int,
        stage: int,
        tft_upload: float,
        download_cap: float,
        remaining: float,
        rate: float = 0.0,
        rate_from_virtual: float = 0.0,
        started_at: float = 0.0,
    ):
        self.user_id = user_id
        self.file_id = file_id
        self.user_class = user_class
        self.stage = stage
        self.started_at = started_at
        self._store: "PeerStore | None" = None
        self._slot = -1
        self._tft_upload = float(tft_upload)
        self._download_cap = float(download_cap)
        self._remaining = float(remaining)
        self._rate = float(rate)
        self._rate_from_virtual = float(rate_from_virtual)
        #: received-from-virtual bandwidth integrated since the last
        #: accounting sync (flushed into the user record, then zeroed)
        self._received_virtual_acc = 0.0

    tft_upload = _store_backed("tft_upload")
    download_cap = _store_backed("download_cap")
    remaining = _store_backed("remaining", volatile=True)
    rate = _store_backed("rate", volatile=True)
    rate_from_virtual = _store_backed("rate_from_virtual", volatile=True)
    received_virtual_acc = _store_backed("received_virtual_acc", volatile=True)

    def eta_for_completion(self) -> float:
        """Time until completion at the current rate (``inf`` when stalled)."""
        remaining = self.remaining
        if remaining <= 0:
            return 0.0
        rate = self.rate
        if rate <= 0:
            return math.inf
        return remaining / rate

    def __repr__(self) -> str:
        return (
            f"DownloadEntry(user_id={self.user_id}, file_id={self.file_id}, "
            f"user_class={self.user_class}, stage={self.stage}, "
            f"tft_upload={self.tft_upload}, download_cap={self.download_cap}, "
            f"remaining={self.remaining}, rate={self.rate}, "
            f"rate_from_virtual={self.rate_from_virtual}, "
            f"started_at={self.started_at})"
        )


@dataclass(frozen=True)
class EntrySpan:
    """Completed life of one (user, file) download, for validation metrics."""

    user_id: int
    file_id: int
    user_class: int
    stage: int
    started_at: float
    completed_at: float

    @property
    def download_time(self) -> float:
        return self.completed_at - self.started_at


@dataclass
class UserRecord:
    """Everything measured about one user across its whole visit.

    ``uploaded_virtual`` / ``received_virtual`` integrate the virtual-seed
    give/take rates (the Adapt observable); ``rho_trace`` records every
    Adapt adjustment as ``(time, rho)``.
    """

    user_id: int
    arrival_time: float
    user_class: int
    files: tuple[int, ...]
    scheme: str
    is_cheater: bool = False
    file_completions: dict[int, float] = field(default_factory=dict)
    downloads_done_time: float | None = None
    departure_time: float | None = None
    uploaded_virtual: float = 0.0
    received_virtual: float = 0.0
    rho_trace: list[tuple[float, float]] = field(default_factory=list)

    @property
    def is_departed(self) -> bool:
        return self.departure_time is not None

    @property
    def total_download_time(self) -> float:
        """Arrival to last file completion (NaN until finished)."""
        if self.downloads_done_time is None:
            return math.nan
        return self.downloads_done_time - self.arrival_time

    @property
    def total_online_time(self) -> float:
        """Arrival to final departure (NaN until departed)."""
        if self.departure_time is None:
            return math.nan
        return self.departure_time - self.arrival_time

    @property
    def download_time_per_file(self) -> float:
        return self.total_download_time / self.user_class

    @property
    def online_time_per_file(self) -> float:
        return self.total_online_time / self.user_class
