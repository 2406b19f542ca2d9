"""Leader election as an asyncio service (Omega over the runtime).

``LeaderElectorService`` extends :class:`~repro.runtime.service.DetectorService`
with the accusation-counter Omega layer (:mod:`repro.core.omega`): counters
ride the query/response piggyback slot, each completed round accuses the
processes that missed it, and ``leader()`` returns the current common
choice.  Under the strengthened message pattern (some correct process
eventually wins everyone's quorums) all correct services converge on the
same correct leader — the oracle leader-based protocols (Paxos-style
ballots, primary-backup) consume.
"""

from __future__ import annotations

import asyncio

from ..core.omega import OmegaElector
from ..core.protocol import DetectorConfig, TimeFreeDetector
from ..ids import ProcessId
from .service import DetectorService, ServicePacing
from .transport import Transport

__all__ = ["LeaderElectorService"]


class LeaderElectorService(DetectorService):
    """A detector service that additionally elects an eventual leader."""

    def __init__(
        self,
        config: DetectorConfig,
        transport: Transport,
        *,
        pacing: ServicePacing = ServicePacing(),
    ) -> None:
        from ..detectors.facade import QueryRoundFacade

        self.elector = OmegaElector(config)
        detector = TimeFreeDetector(
            config,
            extra_provider=self.elector.payload,
            extra_consumer=self.elector.consume,
        )
        super().__init__(
            config,
            transport,
            pacing=pacing,
            core=QueryRoundFacade(detector, pacing, elector=self.elector),
        )
        self._leader_watchers: list[asyncio.Queue] = []
        self._last_leader: ProcessId | None = None

    # ------------------------------------------------------------------
    def leader(self) -> ProcessId:
        """The currently trusted leader."""
        return self.elector.leader()

    def watch_leader(self) -> asyncio.Queue:
        """A queue receiving every subsequent leader change."""
        queue: asyncio.Queue = asyncio.Queue()
        self._leader_watchers.append(queue)
        return queue

    async def wait_for_leader(
        self, predicate, *, timeout: float | None = None
    ) -> ProcessId:
        """Block until ``predicate(leader)`` holds; returns that leader."""
        if predicate(self.leader()):
            return self.leader()
        queue = self.watch_leader()
        try:
            async with asyncio.timeout(timeout):
                while True:
                    leader = await queue.get()
                    if predicate(leader):
                        return leader
        finally:
            self._leader_watchers.remove(queue)

    # ------------------------------------------------------------------
    def _on_message(self, src: ProcessId, message: object) -> None:
        super()._on_message(src, message)
        # Gossiped accusations may have shifted the argmin.
        self._notify_leader_change()

    def _wakeup(self) -> None:
        super()._wakeup()
        # A closed round accuses the processes that missed it.
        self._notify_leader_change()

    def _notify_leader_change(self) -> None:
        leader = self.elector.leader()
        if leader == self._last_leader:
            return
        self._last_leader = leader
        for queue in self._leader_watchers:
            queue.put_nowait(leader)
