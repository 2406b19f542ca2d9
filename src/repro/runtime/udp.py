"""UDP transport: JSON datagrams between real processes.

Each endpoint binds a local UDP socket and knows its peers' addresses.
Messages are (de)serialised with the shared codec
(:mod:`repro.core.messages`), so any registered message — detector queries,
heartbeats, consensus ballots — travels unchanged.  UDP's fire-and-forget
semantics match the model's *fair-lossy at worst* channels; the detector's
query-response rounds are naturally idempotent, and the reproduction
scenarios assume reliable delivery on a LAN.
"""

from __future__ import annotations

import asyncio
from typing import Mapping

from ..core.messages import decode_message, encode_message
from ..errors import TransportError
from ..ids import ProcessId
from .transport import Transport

__all__ = ["UdpTransport"]

Address = tuple[str, int]


class _DatagramProtocol(asyncio.DatagramProtocol):
    def __init__(self, transport: "UdpTransport") -> None:
        self._owner = transport

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self._owner._on_datagram(data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover - OS dependent
        self._owner._last_error = exc


class UdpTransport(Transport):
    """A UDP endpoint with a static peer directory."""

    def __init__(
        self,
        process_id: ProcessId,
        bind: Address,
        peers: Mapping[ProcessId, Address],
    ) -> None:
        super().__init__(process_id)
        self._bind = bind
        self._peers = dict(peers)
        self._udp: asyncio.DatagramTransport | None = None
        self._last_error: Exception | None = None
        #: the last (message, bytes) encoded: a broadcast or a retry hands
        #: :meth:`send` the same frozen message object once per peer
        self._encoded: tuple[object, bytes] | None = None
        #: datagrams received but not delivered to the handler
        self.datagrams_dropped = 0

    @property
    def local_address(self) -> Address | None:
        if self._udp is None:
            return None
        return self._udp.get_extra_info("sockname")[:2]

    async def start(self) -> None:
        if self._udp is not None:
            return
        loop = asyncio.get_running_loop()
        self._udp, _ = await loop.create_datagram_endpoint(
            lambda: _DatagramProtocol(self), local_addr=self._bind
        )
        # asyncio hands recvfrom() a fresh 256 KiB buffer per datagram, and
        # glibc serves a block that size by mmap/munmap or from the heap
        # depending on what the process allocated earlier (its imports, in
        # effect): two page faults per datagram and half the round rate in
        # the unlucky state.  No UDP datagram exceeds 64 KiB, and a block
        # that size is below the mmap threshold in every state.
        if hasattr(self._udp, "max_size"):  # selector and proactor transports
            self._udp.max_size = 64 * 1024

    async def close(self) -> None:
        if self._udp is not None:
            self._udp.close()
            self._udp = None

    def set_peer(self, pid: ProcessId, address: Address) -> None:
        """Add or move ``pid`` in the peer directory (allowed after start)."""
        self._peers[pid] = address

    def send(self, dst: ProcessId, message: object) -> bool:
        if self._udp is None:
            raise TransportError(f"transport of {self.process_id!r} is not started")
        addr = self._peers.get(dst)
        if addr is None:
            return False
        encoded = self._encoded
        if encoded is None or encoded[0] is not message:
            encoded = self._encoded = (message, encode_message(message))
        self._udp.sendto(encoded[1], addr)
        return True

    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes) -> None:
        try:
            message = decode_message(data)
        except TransportError:
            message = None
        sender = getattr(message, "sender", None)
        if sender is None:  # garbage, or no one to dispatch it under: drop, never crash
            self.datagrams_dropped += 1
            return
        self._dispatch(sender, message)
