"""The per-peer expiry timers heartbeat and gossip share.

Both detectors arm one timer per peer, re-arm it whenever they learn the
peer is alive, and suspect the peer when it runs out.  A host reads
``next_wakeup()`` after *every* delivered message, so finding the earliest
timer must not scan the peers: :class:`PeerTimers` keeps the deadlines in
a dict (authoritative) and indexes them with a lazily-invalidated heap, the
scheme ``asyncio`` uses for cancelled timers.  Re-arming is a dict store
and a push; a superseded heap entry is recognised by no longer matching
the dict, and dropped when it surfaces.

The suspect set lives here too, served as one cached ``frozenset`` that
is rebuilt only after an effective change, so a host can tell "nothing
changed" by identity.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from ..ids import ProcessId

__all__ = ["PeerTimers"]


class PeerTimers:
    """Expiry deadline per peer, the earliest in O(log n), and who expired."""

    __slots__ = ("_peers", "_deadlines", "_heap", "_pushes", "_suspected", "_suspects")

    def __init__(self, peers: Iterable[ProcessId]) -> None:
        #: expiry order, fixed once (ids need not be mutually orderable)
        self._peers = tuple(sorted(peers, key=repr))
        self._deadlines: dict[ProcessId, float] = {}
        #: ``(deadline, push index, peer)``; the index keeps the comparison
        #: off the peers.  An entry is live iff it equals the peer's dict
        #: entry and the peer is not suspected; every live timer has one.
        self._heap: list[tuple[float, int, ProcessId]] = []
        self._pushes = 0
        self._suspected: set[ProcessId] = set()
        self._suspects: frozenset[ProcessId] | None = frozenset()

    def suspects(self) -> frozenset[ProcessId]:
        """The suspect set; the identical object until it next changes."""
        suspects = self._suspects
        if suspects is None:
            suspects = self._suspects = frozenset(self._suspected)
        return suspects

    def is_suspected(self, peer: ProcessId) -> bool:
        return peer in self._suspected

    def arm_all(self, deadlines: Mapping[ProcessId, float]) -> None:
        """(Re)start every peer's timer; suspicions stand until refreshed."""
        self._deadlines = dict(deadlines)
        self._reindex()

    def refresh(self, peer: ProcessId, deadline: float) -> None:
        """``peer`` is alive: stop suspecting it and re-arm its timer."""
        if peer in self._suspected:
            self._suspected.discard(peer)
            self._suspects = None
        self._deadlines[peer] = deadline
        if len(self._heap) >= 2 * len(self._peers):
            # Superseded entries surface only once everything earlier is
            # gone; a long-lived early timer would let them pile up.
            self._reindex()
        else:
            heappush(self._heap, (deadline, self._pushes, peer))
            self._pushes += 1

    def expire(self, now: float) -> None:
        """Suspect every peer whose timer has run out."""
        earliest = self.next_deadline()
        if earliest is None or now < earliest:
            return
        suspected = self._suspected
        deadlines = self._deadlines
        for peer in self._peers:
            if peer in suspected:
                continue
            deadline = deadlines.get(peer)  # partial before arm_all
            if deadline is not None and now >= deadline:
                suspected.add(peer)
        self._suspects = None

    def next_deadline(self) -> float | None:
        """The earliest deadline among the peers not suspected."""
        heap = self._heap
        deadlines = self._deadlines
        suspected = self._suspected
        while heap:
            deadline, _, peer = heap[0]
            if deadlines[peer] == deadline and peer not in suspected:
                return deadline
            heappop(heap)
        return None

    def _reindex(self) -> None:
        self._heap = [
            (deadline, index, peer)
            for index, (peer, deadline) in enumerate(self._deadlines.items())
        ]
        self._pushes = len(self._heap)
        heapify(self._heap)
