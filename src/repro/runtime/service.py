"""Failure detectors as asyncio services — generic over any registered core.

``DetectorService`` owns a sans-I/O detector core and a
:class:`~repro.runtime.transport.Transport` and hosts the core on the
event loop with callbacks; no task runs per service.  Every family is
hosted the same way: a timed core (heartbeat, gossip, phi) as it is, a
query core (:class:`~repro.core.protocol.TimeFreeDetector` — the default —
or the partial extension) behind
:class:`~repro.detectors.facade.QueryRoundFacade`, task T1's one round
loop and the object the simulator hosts too.  The transport's handler
feeds ``on_message``; one ``loop.call_at`` timer honours ``next_wakeup()``
and is re-armed only when a deadline moves earlier than the pending one
(:meth:`~repro.core.effects.CoreHost._arm`, the rule the simulator's
``TimedDriver`` shares).  **No step of failure
detection awaits a timeout**: a query core's timer paces rounds (grace,
idle) and lossy-channel retries, and never raises a suspicion.

:meth:`DetectorService.from_registry` builds either kind from a
:mod:`repro.detectors` registry key, so heartbeat/gossip/phi run over the
real memory/UDP transports exactly like the time-free detector does.

The suspect list is exposed synchronously (``suspects()``), as a change
stream (``watch()``), and as awaitable predicates
(``wait_until_suspected``), which is the shape applications like the
consensus example consume.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

from ..core.effects import Broadcast, CoreHost, SendTo
from ..core.protocol import DetectorConfig, QueryPacing, TimeFreeDetector
from ..errors import ConfigurationError
from ..ids import ProcessId
from .transport import Transport

__all__ = ["ServicePacing", "DetectorService"]


@dataclass(frozen=True)
class ServicePacing(QueryPacing):
    """:class:`~repro.core.protocol.QueryPacing` in real seconds (50 ms grace)."""

    grace: float = 0.05


class DetectorService(CoreHost):
    """Runs any registered failure-detector core over a transport.

    By default the core is the paper's :class:`TimeFreeDetector`; pass
    ``core=`` (any query or timed core built for ``config``'s identity and
    membership) or use :meth:`from_registry` to deploy another family.
    ``detector`` is the core the service drives: a query core arrives
    there wrapped in a :class:`~repro.detectors.facade.QueryRoundFacade`
    paced by ``pacing``.  A service built with the Omega layer
    (``from_registry("time-free", ..., with_omega=True)``) exposes the
    leader oracle as ``elector``.
    """

    def __init__(
        self,
        config: DetectorConfig,
        transport: Transport,
        *,
        pacing: ServicePacing = ServicePacing(),
        core: Any | None = None,
    ) -> None:
        if transport.process_id != config.process_id:
            raise ConfigurationError(
                f"transport identity {transport.process_id!r} does not match "
                f"detector identity {config.process_id!r}"
            )
        core = core if core is not None else TimeFreeDetector(config)
        if getattr(core, "process_id", config.process_id) != config.process_id:
            raise ConfigurationError(
                f"core identity {core.process_id!r} does not match "
                f"service identity {config.process_id!r}"
            )
        if hasattr(core, "start_round"):
            from ..detectors.facade import QueryRoundFacade

            core = QueryRoundFacade(core, pacing)
        elif not hasattr(core, "next_wakeup"):
            raise ConfigurationError(
                f"{type(core).__name__} is neither a query core nor a "
                "timed core; see repro.detectors.facade.DetectorCore"
            )
        super().__init__(core)
        self.config = config
        self.transport = transport
        self.pacing = pacing
        self._peers = list(config.peers_sorted)
        self._watchers: list[asyncio.Queue] = []
        #: the loop the service runs on; None while stopped
        self._loop: asyncio.AbstractEventLoop | None = None

    @classmethod
    def from_registry(
        cls,
        detector: str,
        config: DetectorConfig,
        transport: Transport,
        *,
        pacing: ServicePacing | None = None,
        **params: Any,
    ) -> "DetectorService":
        """Build a service for any :mod:`repro.detectors` registry key.

        ``params`` are the family's typed knobs (e.g. ``period=0.05,
        timeout=0.2`` for ``heartbeat``), interpreted in *real seconds*
        here, not simulated ones.  For query families the pacing knobs
        (``grace``/``idle``/``retry``) become the service's
        :class:`ServicePacing`; passing both those knobs and an explicit
        ``pacing`` is a configuration error (one would silently win).
        """
        from ..detectors import (
            PACING_PARAMS,
            DetectorContext,
            DetectorMode,
            QueryRoundFacade,
            get_detector,
            pacing_fields,
        )

        spec = get_detector(detector)
        if (
            pacing is not None
            and spec.mode is DetectorMode.QUERY
            and any(name in params for name in PACING_PARAMS)
        ):
            raise ConfigurationError(
                f"pass either pacing= or the {list(PACING_PARAMS)} params "
                f"for detector {detector!r}, not both"
            )
        resolved = spec.make_params(**params)
        # The runtime's deployment is a full mesh: every range is all of it.
        context = DetectorContext(
            process_id=config.process_id,
            membership=config.membership,
            f=config.f,
            range_density=len(config.membership),
        )
        built = spec.build(context, resolved)
        if spec.mode is DetectorMode.QUERY:
            if pacing is None:
                pacing = ServicePacing(**pacing_fields(resolved))
            core = QueryRoundFacade(built.core, pacing, elector=built.elector)
        else:
            pacing = pacing if pacing is not None else ServicePacing()
            core = built.core
        return cls(config, transport, pacing=pacing, core=core)

    # -- observation ---------------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self.config.process_id

    @property
    def detector(self) -> Any:
        """The core the service drives (the host's ``core``)."""
        return self.core

    @property
    def running(self) -> bool:
        return self._loop is not None

    @property
    def rounds_completed(self) -> int:
        """Query rounds closed so far (0 for a timer-based core)."""
        return getattr(self.core, "rounds_completed", 0)

    @property
    def retries_sent(self) -> int:
        """Lossy-channel query rebroadcasts so far (0 for a timer-based core)."""
        return getattr(self.core, "retries_sent", 0)

    def suspects(self) -> frozenset[ProcessId]:
        return self.core.suspects()

    def watch(self) -> asyncio.Queue:
        """A queue receiving every subsequent suspect-set change."""
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.append(queue)
        return queue

    async def wait_until_suspected(
        self, target: ProcessId, *, timeout: float | None = None
    ) -> frozenset[ProcessId]:
        """Block until ``target`` appears in the suspect list."""
        return await self.wait_for(lambda suspects: target in suspects, timeout=timeout)

    async def wait_until_cleared(
        self, target: ProcessId, *, timeout: float | None = None
    ) -> frozenset[ProcessId]:
        """Block until ``target`` is no longer suspected."""
        return await self.wait_for(lambda suspects: target not in suspects, timeout=timeout)

    async def wait_for(self, predicate, *, timeout: float | None = None):
        """Block until ``predicate(suspects)`` holds; returns the suspect set."""
        if predicate(self.suspects()):
            return self.suspects()
        queue = self.watch()
        try:
            async with asyncio.timeout(timeout):
                while True:
                    suspects = await queue.get()
                    if predicate(suspects):
                        return suspects
        finally:
            self._watchers.remove(queue)

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        await self.transport.start()
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            self._now = self._loop.time
            self._call_at = self._loop.call_at
            self.transport.set_handler(self._on_message)
            self._step(self.core.start(self._now()))

    async def stop(self) -> None:
        self._halt()
        await self.transport.close()

    def _halt(self) -> None:
        """Stop hosting: cancel the timer and drop the edges back into the
        service (the transport's handler, the core's round listeners), so a
        stopped service is freed by refcounting."""
        self._cancel_timer()
        self._loop = None
        # Through the attribute: `set_handler` is a registration point that
        # tracing tools wrap, and a wrapped None would still be a handler.
        self.transport._handler = None
        if self.round_listeners:
            self.round_listeners.clear()

    # -- the host ---------------------------------------------------------------
    def _on_message(self, src: ProcessId, message: object) -> None:
        effects = self.core.on_message(self._now(), src, message)
        if effects is not None:  # None: no effects, deadline and suspects unmoved
            self._step(effects)

    def _execute(self, effects) -> None:
        """Put core effects on the wire (transport sends never suspend)."""
        for effect in effects if isinstance(effects, list) else (effects,):
            if isinstance(effect, Broadcast):
                self.transport.broadcast(self._peers, effect.message)
            elif isinstance(effect, SendTo):
                self.transport.send(effect.destination, effect.message)
            else:
                raise ConfigurationError(f"unknown effect {effect!r}")

    def _announce(self, before: frozenset, suspects: frozenset) -> None:
        for queue in self._watchers:
            queue.put_nowait(suspects)
