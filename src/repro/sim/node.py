"""Simulated processes and the driver that hosts detector cores on them.

A :class:`SimProcess` is one node: it owns liveness/attachment flags and
relays delivered messages to its *driver*.  One driver,
:class:`TimedDriver`, adapts every registered family to the simulator: it
hosts any :class:`~repro.detectors.facade.DetectorCore` — a timer-based
baseline (heartbeat, gossip, phi-accrual) as it is, a query-response core
behind :class:`~repro.detectors.facade.QueryRoundFacade`, task T1's one
round loop.  :class:`QueryResponseDriver` is the name the query families
are built under: a ``TimedDriver`` whose constructor wraps the core in the
facade.

The driver records every suspect-set change in the trace and announces it
to ``suspicion_listeners`` (the consensus layer subscribes); for a query
core it writes each round's :class:`~repro.sim.trace.RoundRecord` before
the facade's other ``round_listeners`` (the Omega elector's consumers,
the message-pattern monitor) see the outcome.  The host contract is in
``docs/architecture.md``, "Hosting a core: the contract".
"""

from __future__ import annotations

from math import inf as _INF
from typing import Callable, Protocol, runtime_checkable

from ..core.effects import Broadcast, Effect, SendTo
from ..core.messages import Query, Response
from ..core.omega import OmegaElector
from ..core.protocol import QueryPacing, QueryRoundOutcome
from ..detectors.facade import DetectorCore, QueryRoundFacade
from ..errors import SimulationError
from ..ids import ProcessId
from .engine import EventHandle, Scheduler
from .network import SimNetwork
from .trace import RoundRecord, TraceRecorder

__all__ = [
    "QueryPacing",
    "SimProcess",
    "QueryResponseDriver",
    "TimedDriver",
    "TimedProtocolCore",
    "QueryDetectorCore",
]

SuspicionListener = Callable[[ProcessId, frozenset], None]

#: what :class:`TimedDriver` hosts: the event-in / effects-out interface
TimedProtocolCore = DetectorCore


@runtime_checkable
class QueryDetectorCore(Protocol):
    """What :class:`~repro.detectors.facade.QueryRoundFacade` needs from a core.

    Satisfied by :class:`repro.core.protocol.TimeFreeDetector`, the one
    query core, over either membership view.

    Responder contract: a round's responders live in
    one structure ordered by first arrival, the issuing process first (hence
    ``QueryRoundOutcome.responders`` and ``winners``, its first ``quorum``);
    duplicates and other rounds' responses do not count; :meth:`abort_round`
    empties it.  :meth:`on_response` never changes the suspect set (merging
    happens in :meth:`on_query` and :meth:`finish_round` only), so the facade
    answers a response with ``None`` and the hosts skip the suspect-set
    comparison on the response path.
    """

    @property
    def process_id(self) -> ProcessId: ...

    @property
    def collecting(self) -> bool: ...

    def start_round(self) -> Broadcast: ...

    def on_query(self, query: Query) -> SendTo | None: ...

    def on_response(self, response: Response) -> bool: ...

    def quorum_reached(self) -> bool: ...

    def finish_round(self) -> QueryRoundOutcome: ...

    def abort_round(self) -> None: ...

    def suspects(self) -> frozenset: ...


class SimProcess:
    """One simulated node: liveness, attachment, message relay."""

    def __init__(
        self,
        pid: ProcessId,
        scheduler: Scheduler,
        network: SimNetwork,
        trace: TraceRecorder,
    ) -> None:
        self.pid = pid
        self.scheduler = scheduler
        self.network = network
        self.trace = trace
        self.alive = True
        self.attached = True
        #: how many times this process has restarted (crash-recovery)
        self.incarnation = 0
        self.driver: _Driver | None = None
        network.register(pid, self.deliver)

    def bind(self, driver: "_Driver") -> None:
        if self.driver is not None:
            raise SimulationError(f"{self.pid!r} already has a driver")
        self.driver = driver
        # Route deliveries straight into the driver, skipping the
        # :meth:`deliver` relay frame.  Its liveness checks are subsumed
        # by the network's detached-set check: :meth:`crash` and
        # :meth:`detach` both detach this pid, so a dead or moving node
        # never reaches the handler.
        self.network.rebind(self.pid, driver.on_message)

    def rebind_driver(self, driver: "_Driver") -> None:
        """Replace the bound driver (volatile-state crash-recovery)."""
        if self.driver is None:
            raise SimulationError(f"{self.pid!r} has no driver to replace")
        self.driver = driver
        self.network.rebind(self.pid, driver.on_message)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self.driver is None:
            raise SimulationError(f"{self.pid!r} has no driver bound")
        self.driver.on_start()

    def crash(self) -> None:
        """Permanent fail-stop."""
        if not self.alive:
            return
        self.alive = False
        self.trace.record_crash(self.scheduler.now, self.pid)
        self.network.detach(self.pid)
        if self.driver is not None:
            self.driver.on_crash()

    def detach(self) -> None:
        """Mobility: leave the network, keep state, stop executing."""
        if not self.alive or not self.attached:
            return
        self.attached = False
        self.network.detach(self.pid)
        self.trace.record_mobility(self.scheduler.now, self.pid, "detach")
        if self.driver is not None:
            self.driver.on_detach()

    def attach(self) -> None:
        """Mobility: reconnect and resume executing."""
        if not self.alive or self.attached:
            return
        self.attached = True
        self.network.attach(self.pid)
        self.trace.record_mobility(self.scheduler.now, self.pid, "attach")
        if self.driver is not None:
            self.driver.on_attach()

    def recover(self, *, fresh: bool = False) -> None:
        """Crash-recovery restart with an incremented incarnation.

        ``fresh`` marks a volatile-state restart: the (newly rebound)
        driver is started from scratch via ``on_start``.  Otherwise the
        surviving driver resumes through ``on_recover`` (persistent
        state, stable storage).
        """
        if self.alive:
            return
        self.alive = True
        self.attached = True
        self.incarnation += 1
        self.network.attach(self.pid)
        self.trace.record_recovery(self.scheduler.now, self.pid, self.incarnation)
        if self.driver is not None:
            if fresh:
                self.driver.on_start()
            else:
                self.driver.on_recover()

    def join(self) -> None:
        """Dynamic membership: start participating (the node was down)."""
        if self.alive and self.attached:
            return
        self.alive = True
        self.attached = True
        self.network.attach(self.pid)
        self.trace.record_membership(self.scheduler.now, self.pid, "join")
        if self.driver is not None:
            self.driver.on_start()

    def leave(self) -> None:
        """Dynamic membership: depart for good."""
        if not self.alive:
            return
        self.alive = False
        self.network.detach(self.pid)
        self.trace.record_membership(self.scheduler.now, self.pid, "leave")
        if self.driver is not None:
            self.driver.on_leave()

    # -- I/O ------------------------------------------------------------------
    def deliver(self, src: ProcessId, message: object) -> None:
        if not self.alive or not self.attached or self.driver is None:
            return
        self.driver.on_message(src, message)

    def execute(self, effects: list[Effect] | Effect | None) -> None:
        """Put driver/core effects on the wire."""
        if effects is None or not self.alive:
            return
        for effect in effects if isinstance(effects, list) else (effects,):
            if isinstance(effect, Broadcast):
                self.network.broadcast(self.pid, effect.message)
            elif isinstance(effect, SendTo):
                self.network.send(self.pid, effect.destination, effect.message)
            else:
                raise SimulationError(f"unknown effect {effect!r}")


class _Driver(Protocol):
    def on_start(self) -> None: ...

    def on_message(self, src: ProcessId, message: object) -> None: ...

    def on_crash(self) -> None: ...

    def on_detach(self) -> None: ...

    def on_attach(self) -> None: ...

    def on_recover(self) -> None: ...

    def on_leave(self) -> None: ...

    def suspects(self) -> frozenset: ...


class TimedDriver:
    """Hosts any :class:`TimedProtocolCore` — every registered family.

    A query core arrives wrapped in a
    :class:`~repro.detectors.facade.QueryRoundFacade` (see
    :class:`QueryResponseDriver`); its ``round_listeners`` and ``elector``
    are exposed here, and the driver's own listener, first in that list,
    writes the round's :class:`~repro.sim.trace.RoundRecord` from the
    facade's start, quorum and close times.  ``round_listeners`` and
    ``elector`` are ``None`` for a timer-based core.
    """

    def __init__(self, process: SimProcess, core: TimedProtocolCore) -> None:
        self.process = process
        self.core = core
        self.suspicion_listeners: list[SuspicionListener] = []
        self.round_listeners: list | None = getattr(core, "round_listeners", None)
        self.elector: OmegaElector | None = getattr(core, "elector", None)
        if self.round_listeners is not None:
            self.round_listeners.insert(0, self._record_round)
        self._timer: EventHandle | None = None
        #: when the pending timer fires (inf: no timer)
        self._timer_at = _INF
        #: the suspect set as last recorded
        self._suspects = core.suspects()
        self._started = False

    def on_start(self) -> None:
        # A node that is down at its start time starts when it is back.
        process = self.process
        if process.alive and process.attached:
            self._started = True
            self._step(self.core.start(process.scheduler.now))

    def on_crash(self) -> None:
        self._cancel_timer()

    def on_detach(self) -> None:
        # While moving the node stops executing; the timer is silenced.
        self._cancel_timer()

    def on_attach(self) -> None:
        if not self._started:
            self.on_start()
            return
        # The attach hook, if the core has one (the query facade opens a
        # fresh round).  Otherwise catching up is a wake-up like any other:
        # a peer whose timer ran out while the node was away is recorded
        # and announced now.
        attach = getattr(self.core, "on_attach", self.core.on_wakeup)
        self._step(attach(self.process.scheduler.now))

    def on_recover(self) -> None:
        # Persistent-state restart: resume where the node stood, as on attach.
        self.on_attach()

    def on_leave(self) -> None:
        self._cancel_timer()

    def suspects(self) -> frozenset:
        return self.core.suspects()

    def release(self) -> None:
        """Drop the listeners: the round listeners live on the core and
        point back here (:meth:`SimCluster.close` calls this)."""
        self.suspicion_listeners.clear()
        if self.round_listeners is not None:
            self.round_listeners.clear()

    def on_message(self, src: ProcessId, message: object) -> None:
        effects = self.core.on_message(self.process.scheduler.now, src, message)
        if effects is not None:  # None: no effects, deadline and suspects unmoved
            self._step(effects)

    def _wakeup(self) -> None:
        self._timer = None
        self._timer_at = _INF
        if not self.process.alive or not self.process.attached:
            return
        self._step(self.core.on_wakeup(self.process.scheduler.now))

    def _step(self, effects: list[Effect] | Effect | None) -> None:
        """After a core call: execute, re-arm, record a suspect-set change."""
        core = self.core
        process = self.process
        if type(effects) is SendTo:
            # A query's answer, the commonest effect: straight to the wire.
            if process.alive:
                process.network.send(process.pid, effects.destination, effects.message)
        elif effects:
            process.execute(effects)
        deadline = core.next_wakeup()
        if deadline is not None and deadline < self._timer_at:
            self._arm(deadline)
        # Cores may hand back the identical frozenset while nothing changed
        # (the built-in ones do): one pointer comparison per call.  A core
        # that builds a fresh set per call falls through to equality.
        suspects = core.suspects()
        before = self._suspects
        if suspects is not before and suspects != before:
            self._suspects = suspects
            process.trace.record_suspicion_change(
                process.scheduler.now, process.pid, before, suspects
            )
            for listener in self.suspicion_listeners:
                listener(process.pid, suspects)

    def _arm(self, deadline: float) -> None:
        """Move the timer to ``deadline``, earlier than the pending one.

        A deadline that moved later, or went away, leaves the pending timer
        alone: it fires on time, finds nothing due, and re-arms from there.
        """
        scheduler = self.process.scheduler
        if deadline < scheduler.now:
            deadline = scheduler.now
            if self._timer_at <= deadline:
                return  # the pending timer fires first; it will re-arm
        if self._timer is not None:
            self._timer.cancel()
        self._timer_at = deadline
        self._timer = scheduler.schedule_at(deadline, self._wakeup)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._timer_at = _INF

    def _record_round(self, pid: ProcessId, outcome: QueryRoundOutcome) -> None:
        core = self.core
        self.process.trace.record_round(
            RoundRecord(
                querier=pid,
                round_id=outcome.round_id,
                started_at=core.started_at,
                quorum_at=core.quorum_at,
                finished_at=self.process.scheduler.now,
                responders=outcome.responders,
                winners=outcome.winners,
            )
        )


class QueryResponseDriver(TimedDriver):
    """A query-response core on the simulator: a :class:`TimedDriver` hosting
    ``detector`` behind a :class:`~repro.detectors.facade.QueryRoundFacade`.

    ``detector`` stays reachable for inspection.
    """

    def __init__(
        self,
        process: SimProcess,
        detector: QueryDetectorCore,
        pacing: QueryPacing = QueryPacing(),
        *,
        elector: OmegaElector | None = None,
    ) -> None:
        self.detector = detector
        super().__init__(process, QueryRoundFacade(detector, pacing, elector=elector))
