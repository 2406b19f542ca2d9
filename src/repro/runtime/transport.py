"""Abstract transport: how runtime services reach their peers."""

from __future__ import annotations

import abc
from typing import Callable, Iterable

from ..ids import ProcessId

__all__ = ["Transport", "MessageHandler"]

#: Called (synchronously, on the event loop) for each delivered message.
MessageHandler = Callable[[ProcessId, object], None]


class Transport(abc.ABC):
    """Message transport bound to one process identity.

    Implementations deliver *registered wire messages* (see
    :mod:`repro.core.messages`); whether they serialise them (UDP) or pass
    object references (memory hub) is their business.  Delivery calls the
    handler installed via :meth:`set_handler` on the event loop thread; the
    handler must not block.  :meth:`send` never suspends — it hands the
    message to the kernel or the hub and returns — so it is a plain method
    the handler may call inline.
    """

    def __init__(self, process_id: ProcessId) -> None:
        self._process_id = process_id
        self._handler: MessageHandler | None = None

    @property
    def process_id(self) -> ProcessId:
        return self._process_id

    def set_handler(self, handler: MessageHandler) -> None:
        self._handler = handler

    def _dispatch(self, src: ProcessId, message: object) -> None:
        if self._handler is not None:
            self._handler(src, message)

    # -- lifecycle -----------------------------------------------------------
    @abc.abstractmethod
    async def start(self) -> None:
        """Bind/connect; must be called before :meth:`send`."""

    @abc.abstractmethod
    async def close(self) -> None:
        """Release resources; pending deliveries may be dropped."""

    # -- I/O --------------------------------------------------------------------
    @abc.abstractmethod
    def send(self, dst: ProcessId, message: object) -> bool:
        """Best-effort transmission; returns whether it was put on the wire."""

    def broadcast(self, peers: Iterable[ProcessId], message: object) -> int:
        """Send to each peer; returns the number put on the wire."""
        sent = 0
        for dst in peers:
            if dst == self._process_id:
                continue
            if self.send(dst, message):
                sent += 1
        return sent
