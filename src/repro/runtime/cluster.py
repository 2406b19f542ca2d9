"""LocalCluster: a whole detector deployment in one asyncio process.

The quickstart surface of the library::

    cluster = LocalCluster(n=5, f=2)
    await cluster.start()
    cluster.crash(3)
    await cluster.until_suspected(observer=1, target=3)
    await cluster.stop()

Any registered detector family deploys the same way::

    cluster = LocalCluster(
        n=5, f=2, detector="heartbeat",
        detector_params={"period": 0.05, "timeout": 0.2},
    )
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Mapping

from ..core.protocol import DetectorConfig
from ..errors import ConfigurationError
from ..ids import ProcessId, make_membership
from .memory import MemoryHub
from .service import DetectorService, ServicePacing

if TYPE_CHECKING:
    from ..sim.latency import LatencyModel

__all__ = ["LocalCluster"]


class LocalCluster:
    """``n`` detector services over an in-process :class:`MemoryHub`.

    ``detector`` is a :mod:`repro.detectors` registry key (default: the
    paper's ``time-free``); ``detector_params`` are the family's typed
    knobs, in real seconds.
    """

    def __init__(
        self,
        n: int,
        f: int,
        *,
        detector: str = "time-free",
        detector_params: Mapping[str, Any] | None = None,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        pacing: ServicePacing | None = None,
        seed: int = 1,
    ) -> None:
        if n < 2:
            raise ConfigurationError("a cluster needs at least 2 processes")
        self.membership = frozenset(make_membership(n))
        self.f = f
        self.detector_kind = detector
        from ..detectors import PACING_PARAMS, get_detector

        self.hub = MemoryHub(latency=latency, loss_rate=loss_rate, seed=seed)
        params = dict(detector_params) if detector_params is not None else {}
        # Pacing resolution: an explicit `pacing` wins (from_registry raises
        # if detector_params also carries pacing knobs).  Otherwise pacing
        # knobs in detector_params are merged over LocalCluster's classic
        # real-time default (20 ms grace) — setting one knob must not reset
        # the others to the registry's simulated-seconds defaults.
        if pacing is None:
            knobs = {
                name: params.pop(name)
                for name in PACING_PARAMS
                if name in params and name in get_detector(detector).param_names()
            }
            pacing = ServicePacing(
                grace=knobs.get("grace", 0.02),
                idle=knobs.get("idle", 0.0),
                retry=knobs.get("retry", None),
            )
        self.services: dict[ProcessId, DetectorService] = {}
        for pid in sorted(self.membership):
            config = DetectorConfig(process_id=pid, membership=self.membership, f=f)
            transport = self.hub.create_transport(pid)
            self.services[pid] = DetectorService.from_registry(
                detector, config, transport, pacing=pacing, **params
            )

    # ------------------------------------------------------------------
    async def start(self) -> None:
        await asyncio.gather(*(service.start() for service in self.services.values()))

    async def stop(self) -> None:
        await asyncio.gather(*(service.stop() for service in self.services.values()))

    # ------------------------------------------------------------------
    def crash(self, pid: ProcessId) -> None:
        """Fail-stop ``pid``: silence it at the hub and kill its service."""
        if pid not in self.services:
            raise ConfigurationError(f"unknown process {pid!r}")
        self.hub.crash(pid)
        self.services[pid]._halt()

    def suspects_of(self, pid: ProcessId) -> frozenset[ProcessId]:
        return self.services[pid].suspects()

    async def until_suspected(
        self, observer: ProcessId, target: ProcessId, *, timeout: float | None = 30.0
    ) -> frozenset[ProcessId]:
        """Wait until ``observer`` suspects ``target``."""
        return await self.services[observer].wait_until_suspected(target, timeout=timeout)

    async def until_all_suspect(
        self, target: ProcessId, *, timeout: float | None = 30.0
    ) -> None:
        """Wait until every live service suspects ``target``."""
        waiters = [
            service.wait_until_suspected(target, timeout=timeout)
            for pid, service in self.services.items()
            if pid != target and not self.hub.is_crashed(pid)
        ]
        await asyncio.gather(*waiters)
