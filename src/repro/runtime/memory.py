"""In-process asyncio transport with injected delays and loss.

The asyncio twin of :class:`repro.sim.network.SimNetwork`: messages between
transports sharing a :class:`MemoryHub` are delayed by a
:class:`~repro.sim.latency.LatencyModel` (scaled real ``asyncio.sleep``) and
optionally dropped.  Crashing a process at the hub silences it both ways —
exactly the fail-stop model.
"""

from __future__ import annotations

import asyncio

from ..errors import TransportError
from ..ids import ProcessId
# All the runtime uses of the simulator (repro.sim resolves its names
# lazily, so these two modules are all of it that gets loaded).
from ..sim.latency import ConstantLatency, LatencyModel
from ..sim.rng import RngStreams
from .transport import Transport

__all__ = ["MemoryHub", "MemoryTransport"]


class MemoryHub:
    """Shared in-process message bus for :class:`MemoryTransport` endpoints."""

    def __init__(
        self,
        *,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        seed: int = 1,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise TransportError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.latency = latency if latency is not None else ConstantLatency(0.0001)
        self.loss_rate = loss_rate
        self._rng = RngStreams(seed)
        self._delay_rng = self._rng.stream("hub", "delay")
        self._loss_rng = self._rng.stream("hub", "loss")
        self._transports: dict[ProcessId, MemoryTransport] = {}
        self._crashed: set[ProcessId] = set()
        self._inflight: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    def create_transport(self, pid: ProcessId) -> "MemoryTransport":
        if pid in self._transports:
            raise TransportError(f"{pid!r} already has a transport on this hub")
        transport = MemoryTransport(pid, self)
        self._transports[pid] = transport
        return transport

    def crash(self, pid: ProcessId) -> None:
        """Fail-stop ``pid``: all its traffic (both directions) is dropped."""
        self._crashed.add(pid)

    def is_crashed(self, pid: ProcessId) -> bool:
        return pid in self._crashed

    # ------------------------------------------------------------------
    def submit(self, src: ProcessId, dst: ProcessId, message: object) -> bool:
        if src in self._crashed or dst in self._crashed:
            return False
        if dst not in self._transports:
            return False
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            return False
        delay = self.latency.sample(self._delay_rng, src, dst)
        task = asyncio.get_running_loop().create_task(
            self._deliver_later(delay, src, dst, message)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        return True

    async def _deliver_later(
        self, delay: float, src: ProcessId, dst: ProcessId, message: object
    ) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        if dst in self._crashed or src in self._crashed:
            return
        transport = self._transports.get(dst)
        if transport is not None and transport.started:
            transport._dispatch(src, message)

    async def drain(self) -> None:
        """Await all in-flight deliveries (test helper)."""
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)


class MemoryTransport(Transport):
    """One endpoint on a :class:`MemoryHub`."""

    def __init__(self, process_id: ProcessId, hub: MemoryHub) -> None:
        super().__init__(process_id)
        self._hub = hub
        self.started = False

    async def start(self) -> None:
        self.started = True

    async def close(self) -> None:
        self.started = False

    def send(self, dst: ProcessId, message: object) -> bool:
        if not self.started:
            raise TransportError(f"transport of {self.process_id!r} is not started")
        return self._hub.submit(self.process_id, dst, message)
