"""Failure detectors as asyncio services — generic over any registered core.

``DetectorService`` owns a sans-I/O detector core and a
:class:`~repro.runtime.transport.Transport` and drives the core as an
asyncio task.  Two drive strategies, picked by the core's protocol shape:

* **query cores** (:class:`~repro.core.protocol.TimeFreeDetector` — the
  default — or the partial extension) run task T1's loop.  **No step of
  failure detection awaits a timeout**: the loop awaits the response
  quorum *event*, then (optionally) sleeps a pacing grace to harvest
  extra responses — pacing affects traffic and false-positive pressure,
  never correctness.
* **timed cores** (any :class:`~repro.detectors.facade.DetectorCore`, e.g.
  the heartbeat/gossip/phi baselines) run an event-loop-clocked wake-up
  loop: sleep until ``next_wakeup()`` (cut short only by a message that
  pulls that deadline earlier), feed the core, execute its effects.

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

from ..core.effects import Broadcast, SendTo
from ..core.messages import Query, Response
from ..core.protocol import DetectorConfig, QueryRoundOutcome, TimeFreeDetector
from ..errors import ConfigurationError
from ..ids import ProcessId
from .transport import Transport

__all__ = ["ServicePacing", "DetectorService"]


@dataclass(frozen=True)
class ServicePacing:
    """Real-time pacing of query rounds (mirrors the simulator's pacing).

    ``retry`` — optional lossy-channel extension (see
    :class:`repro.sim.node.QueryPacing`): rebroadcast the pending query if
    the quorum is still outstanding after this many seconds.  Useful over
    UDP; it re-transmits only and never raises a suspicion, so detection
    stays time-free.
    """

    grace: float = 0.05
    idle: float = 0.0
    retry: float | None = None

    def __post_init__(self) -> None:
        if self.grace < 0 or self.idle < 0:
            raise ConfigurationError(f"pacing delays must be >= 0: {self}")
        if self.retry is not None and self.retry <= 0:
            raise ConfigurationError(f"retry must be > 0 when set: {self}")


class DetectorService:
    """Runs any registered failure-detector core over a transport.

    By default the core is the paper's :class:`TimeFreeDetector`; pass
    ``core=`` (any query or timed core built for ``config``'s identity and
    membership) or use :meth:`from_registry` to deploy another family.
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
        self.config = config
        self.detector = core if core is not None else TimeFreeDetector(config)
        if getattr(self.detector, "process_id", config.process_id) != config.process_id:
            raise ConfigurationError(
                f"core identity {self.detector.process_id!r} does not match "
                f"service identity {config.process_id!r}"
            )
        #: query cores speak start_round/on_query/on_response; anything else
        #: must speak the unified timed facade (start/on_wakeup/next_wakeup).
        self._query_mode = hasattr(self.detector, "start_round")
        if not self._query_mode and not hasattr(self.detector, "next_wakeup"):
            raise ConfigurationError(
                f"{type(self.detector).__name__} is neither a query core nor a "
                "timed core; see repro.detectors.facade.DetectorCore"
            )
        self.transport = transport
        self.pacing = pacing
        self._peers = list(config.peers_sorted)
        self._quorum_event = asyncio.Event()
        self._wake = asyncio.Event()
        #: the deadline ``_run_timed`` is sleeping toward (None: open-ended)
        self._sleeping_until: float | None = None
        self._elector = None
        self._task: asyncio.Task | None = None
        self._watchers: list[asyncio.Queue] = []
        self.rounds_completed = 0
        self.retries_sent = 0
        transport.set_handler(self._on_message)

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
        spec.check_required(resolved)
        context = DetectorContext(
            process_id=config.process_id, membership=config.membership, f=config.f
        )
        built = spec.build(context, resolved)
        if spec.mode is DetectorMode.QUERY:
            if pacing is None:
                pacing = ServicePacing(**pacing_fields(resolved))
            service = cls(config, transport, pacing=pacing, core=built.core)
            service._elector = built.elector
            return service
        return cls(
            config, transport, pacing=pacing or ServicePacing(), core=built.core
        )

    # -- observation ---------------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self.config.process_id

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    def suspects(self) -> frozenset[ProcessId]:
        return self.detector.suspects()

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
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"detector-{self.process_id}"
            )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        await self.transport.close()

    # -- drive loops --------------------------------------------------------------
    async def _run(self) -> None:
        if self._query_mode:
            await self._run_query()
        else:
            await self._run_timed()

    async def _run_query(self) -> None:
        """Task T1's loop: quorum is an awaited *event*, never a timeout."""
        peers = self._peers
        while True:
            before = self.detector.suspects()
            self._quorum_event.clear()
            broadcast = self.detector.start_round()
            self.transport.broadcast(peers, broadcast.message)
            await self._await_quorum(peers, broadcast.message)
            if self.pacing.grace > 0:
                await asyncio.sleep(self.pacing.grace)
            outcome = self.detector.finish_round()
            self.rounds_completed += 1
            self._after_round(outcome)
            self._notify_if_changed(before)
            if self.pacing.idle > 0:
                await asyncio.sleep(self.pacing.idle)

    async def _await_quorum(self, peers, query) -> None:
        """Block until ``n - f`` responses are in.

        Without ``pacing.retry`` this is a pure event wait — the time-free
        wait of line 7.  With it, the pending query is periodically
        re-broadcast (lossy-channel liveness; no suspicion results from the
        timer).
        """
        while not self.detector.quorum_reached():
            if self.pacing.retry is None:
                await self._quorum_event.wait()
                return
            try:
                async with asyncio.timeout(self.pacing.retry):
                    await self._quorum_event.wait()
                    return
            except TimeoutError:
                if not self.detector.quorum_reached():
                    self.retries_sent += 1
                    self.transport.broadcast(peers, query)

    def _after_round(self, outcome: QueryRoundOutcome) -> None:
        """Extension point for subclasses (e.g. leader election)."""
        if self._elector is not None:
            self._elector.observe_round(outcome)

    async def _run_timed(self) -> None:
        """Drive a unified/timed core: honour ``next_wakeup`` deadlines.

        The timers here belong to the *core's own algorithm* (heartbeat
        emission, timeout expiry, query-round pacing when a query core is
        wrapped in the unified facade) — the service adds none of its own.
        Messages are handled synchronously by ``_on_message``; it pokes
        ``_wake`` only when one pulled the next deadline *earlier* than the
        one slept toward (the simulator's ``TimedDriver._rearm`` rule).  A
        deadline that moved later costs nothing: the sleep ends on time,
        the core finds nothing due, and the loop re-reads the deadline.
        """
        loop = asyncio.get_running_loop()
        before = self.detector.suspects()
        self._execute(self.detector.start(loop.time()))
        self._notify_if_changed(before)
        while True:
            deadline = self._sleeping_until = self.detector.next_wakeup()
            if deadline is None:
                await self._wake.wait()
                self._wake.clear()
                continue
            delay = deadline - loop.time()
            if delay > 0:
                try:
                    async with asyncio.timeout(delay):
                        await self._wake.wait()
                    self._wake.clear()
                    continue  # a message pulled the deadline earlier; recompute
                except TimeoutError:
                    pass
            before = self.detector.suspects()
            self._execute(self.detector.on_wakeup(loop.time()))
            self._notify_if_changed(before)

    # -- message handling -------------------------------------------------------
    def _on_message(self, src: ProcessId, message: object) -> None:
        if not self._query_mode:
            now = asyncio.get_running_loop().time()
            before = self.detector.suspects()
            self._execute(self.detector.on_message(now, src, message))
            self._notify_if_changed(before)
            deadline = self.detector.next_wakeup()
            if deadline is not None and (
                self._sleeping_until is None or deadline < self._sleeping_until
            ):
                self._wake.set()
            return
        if isinstance(message, Query):
            # Queries run the batched T2 merge and may change the suspect
            # set; responses never do (QueryDetectorCore contract), so the
            # watcher notification check runs for queries only.
            before = self.detector.suspects()
            effect = self.detector.on_query(message)
            if effect is not None:
                self.transport.send(effect.destination, effect.message)
            self._notify_if_changed(before)
        elif isinstance(message, Response):
            self.detector.on_response(message)
            if self.detector.quorum_reached():
                self._quorum_event.set()

    def _execute(self, effects) -> None:
        """Put core effects on the wire (transport sends never suspend)."""
        if effects is None:
            return
        if not isinstance(effects, list):
            effects = [effects]
        for effect in effects:
            if isinstance(effect, Broadcast):
                self.transport.broadcast(self._peers, effect.message)
            elif isinstance(effect, SendTo):
                self.transport.send(effect.destination, effect.message)
            else:
                raise ConfigurationError(f"unknown effect {effect!r}")

    def _notify_if_changed(self, before: frozenset[ProcessId]) -> None:
        after = self.detector.suspects()
        if after is before or after == before:
            return
        for queue in self._watchers:
            queue.put_nowait(after)
