"""In-process asyncio transport with injected delays and loss.

The asyncio twin of :class:`repro.sim.network.SimNetwork`: messages between
transports sharing a :class:`MemoryHub` are delayed by a
:class:`~repro.sim.latency.LatencyModel` (one real ``loop.call_later`` timer
per message) and optionally dropped.  Crashing a process at the hub silences
it both ways — exactly the fail-stop model.
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
        #: deliveries scheduled and not yet run, and the future ``drain``
        #: awaits until that count drops to zero
        self._inflight = 0
        self._idle: asyncio.Future | None = None

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
        # One timer handle per message: no Task, no coroutine.
        asyncio.get_running_loop().call_later(delay, self._deliver, src, dst, message)
        self._inflight += 1
        return True

    def _deliver(self, src: ProcessId, dst: ProcessId, message: object) -> None:
        try:
            if dst in self._crashed or src in self._crashed:
                return
            transport = self._transports.get(dst)
            if transport is not None and transport.started:
                transport._dispatch(src, message)
        finally:
            # Counted down after the handler ran, so what it sent keeps
            # the hub from looking idle.
            self._inflight -= 1
            if not self._inflight and self._idle is not None:
                if not self._idle.done():  # else the drain was cancelled
                    self._idle.set_result(None)
                self._idle = None

    async def drain(self) -> None:
        """Await all in-flight deliveries (test helper)."""
        while self._inflight:
            if self._idle is None:
                self._idle = asyncio.get_running_loop().create_future()
            await self._idle


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
