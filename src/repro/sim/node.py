"""Simulated processes and the drivers that host detector cores on them.

A :class:`SimProcess` is one node: it owns liveness/attachment flags and
relays delivered messages to its *driver*.  Drivers adapt a sans-I/O protocol
core to the simulator:

* :class:`QueryResponseDriver` runs the time-free detector's task T1 loop —
  broadcast a query, wait for the ``n - f`` quorum, keep collecting extras
  for a *grace* period (the paper's Δ pacing between lines 7 and 8), close
  the round, repeat.  No failure decision ever involves a timer: the grace
  delay only paces queries and widens ``rec_from``; detection remains purely
  message-pattern based.
* :class:`TimedDriver` hosts timer-based baseline detectors (heartbeat,
  gossip, phi-accrual), which genuinely need scheduled wake-ups.

Both drivers snapshot the suspect list around every hand-off and record the
deltas in the trace, and both notify registered listeners — the consensus
layer subscribes to suspicion changes, the Omega elector to round outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from ..core.effects import Broadcast, Effect, SendTo
from ..core.messages import Query, Response
from ..core.omega import OmegaElector
from ..core.protocol import QueryRoundOutcome
from ..errors import ConfigurationError, SimulationError
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
RoundListener = Callable[[ProcessId, QueryRoundOutcome], None]


@dataclass(frozen=True)
class QueryPacing:
    """Pacing policy for query rounds (Section 6 of the paper).

    ``grace`` — Δ: how long to keep collecting responses after the quorum
    is reached before closing the round (extra responses shrink false
    suspicions; correctness is unaffected).  ``idle`` — delay between a
    round's end and the next query broadcast.

    ``retry`` — optional *lossy-channel* extension: if the quorum has not
    been reached this long after the query broadcast, rebroadcast the same
    query (same round id; duplicate responses are deduplicated and record
    merging is idempotent).  The paper's model assumes reliable channels
    and never needs this; with message loss a single lost query could
    stall the round forever.  Note what the timer is and is not: it only
    re-transmits — no suspicion is ever raised from its expiry, so
    failure detection itself remains time-free.
    """

    grace: float = 1.0
    idle: float = 0.0
    retry: float | None = None

    def __post_init__(self) -> None:
        if self.grace < 0 or self.idle < 0:
            raise ConfigurationError(f"pacing delays must be >= 0: {self}")
        if self.retry is not None and self.retry <= 0:
            raise ConfigurationError(f"retry must be > 0 when set: {self}")


@runtime_checkable
class QueryDetectorCore(Protocol):
    """What :class:`QueryResponseDriver` needs from a detector core.

    Satisfied by :class:`repro.core.protocol.TimeFreeDetector` and
    :class:`repro.partial.protocol.PartialTimeFreeDetector`.

    Responder contract, shared by both cores: a round's responders live in
    one structure ordered by first arrival, the issuing process first (hence
    ``QueryRoundOutcome.responders`` and ``winners``, its first ``quorum``);
    duplicates and other rounds' responses do not count; :meth:`abort_round`
    empties it.  :meth:`on_response` never changes the suspect set (merging
    happens in :meth:`on_query` and :meth:`finish_round` only), so drivers and
    the runtime service skip suspicion-change detection on the response path.
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


@runtime_checkable
class TimedProtocolCore(Protocol):
    """What :class:`TimedDriver` needs from a timer-based detector core."""

    @property
    def process_id(self) -> ProcessId: ...

    def start(self, now: float) -> list[Effect]: ...

    def on_message(self, now: float, sender: ProcessId, message: object) -> list[Effect]: ...

    def on_wakeup(self, now: float) -> list[Effect]: ...

    def next_wakeup(self) -> float | None: ...

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
        if not isinstance(effects, list):
            effects = [effects]
        for effect in effects:
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


class QueryResponseDriver:
    """Task T1's infinite loop, executed on the simulator."""

    def __init__(
        self,
        process: SimProcess,
        detector: QueryDetectorCore,
        pacing: QueryPacing = QueryPacing(),
        *,
        elector: OmegaElector | None = None,
    ) -> None:
        self.process = process
        self.detector = detector
        self.pacing = pacing
        self.elector = elector
        self.suspicion_listeners: list[SuspicionListener] = []
        self.round_listeners: list[RoundListener] = []
        self._round_started_at: float | None = None
        self._quorum_at: float | None = None
        self._close_handle: EventHandle | None = None
        self._next_round_handle: EventHandle | None = None
        self._retry_handle: EventHandle | None = None
        self._current_broadcast: Broadcast | None = None
        self.retries_sent = 0

    # -- lifecycle ------------------------------------------------------------
    def on_start(self) -> None:
        self._begin_round()

    def on_crash(self) -> None:
        self._cancel_pending()

    def on_detach(self) -> None:
        # A moving node stops executing: drop the in-flight round entirely.
        self._cancel_pending()
        if self.detector.collecting:
            self.detector.abort_round()

    def on_attach(self) -> None:
        self._begin_round()

    def on_recover(self) -> None:
        # Persistent-state restart: whatever round was in flight at the
        # crash is stale — abort it and open a fresh one.
        self._cancel_pending()
        if self.detector.collecting:
            self.detector.abort_round()
        self._begin_round()

    def on_leave(self) -> None:
        self._cancel_pending()
        if self.detector.collecting:
            self.detector.abort_round()

    def suspects(self) -> frozenset:
        return self.detector.suspects()

    # -- round machinery --------------------------------------------------------
    def _begin_round(self) -> None:
        self._next_round_handle = None
        if not self.process.alive or not self.process.attached:
            return
        broadcast = self.detector.start_round()
        self._round_started_at = self.process.scheduler.now
        self._quorum_at = None
        self._current_broadcast = broadcast
        self.process.execute(broadcast)
        self._arm_retry()
        # Degenerate quorums (n - f == 1) are satisfied by the process's own
        # response alone.
        self._maybe_arm_close()

    def on_message(self, src: ProcessId, message: object) -> None:
        kind = type(message)
        if kind is Query or isinstance(message, Query):
            # Only queries can move the suspicion state (the batched T2
            # merge runs inside on_query), so the before/after snapshot is
            # taken on this branch alone.
            detector = self.detector
            process = self.process
            before = detector.suspects()
            response = detector.on_query(message)
            if response is not None and process.alive:
                # on_query returns a SendTo (or None); route it straight to
                # the network instead of through the generic effect walk.
                process.network.send(
                    process.pid, response.destination, response.message
                )
            self._note_suspicion_change(before)
        elif kind is Response or isinstance(message, Response):
            # Response accounting never touches the suspect set (a
            # QueryDetectorCore guarantee) — no snapshots, no comparison.
            self.detector.on_response(message)
            self._maybe_arm_close()
        else:
            raise SimulationError(
                f"{self.process.pid!r} received foreign message {message!r}"
            )

    def _maybe_arm_close(self) -> None:
        # `_quorum_at` first: after the quorum is armed, every further
        # response lands here and must leave on one attribute check.
        if (
            self._quorum_at is None
            and self.detector.collecting
            and self.detector.quorum_reached()
        ):
            self._quorum_at = self.process.scheduler.now
            self._cancel_retry()
            self._close_handle = self.process.scheduler.schedule_after(
                self.pacing.grace, self._close_round
            )

    # -- lossy-channel retransmission (extension; see QueryPacing.retry) ----
    def _arm_retry(self) -> None:
        if self.pacing.retry is None:
            return
        self._retry_handle = self.process.scheduler.schedule_after(
            self.pacing.retry, self._retry_query
        )

    def _retry_query(self) -> None:
        self._retry_handle = None
        if not self.process.alive or not self.process.attached:
            return
        if not self.detector.collecting or self.detector.quorum_reached():
            return
        if self._current_broadcast is not None:
            self.retries_sent += 1
            self.process.execute(self._current_broadcast)
        self._arm_retry()

    def _cancel_retry(self) -> None:
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None

    def _close_round(self) -> None:
        self._close_handle = None
        if not self.process.alive or not self.process.attached:
            return
        if not self.detector.collecting:
            return
        before = self.detector.suspects()
        outcome = self.detector.finish_round()
        now = self.process.scheduler.now
        self.process.trace.record_round(
            RoundRecord(
                querier=self.process.pid,
                round_id=outcome.round_id,
                started_at=self._round_started_at if self._round_started_at is not None else now,
                quorum_at=self._quorum_at if self._quorum_at is not None else now,
                finished_at=now,
                responders=outcome.responders,
                winners=outcome.winners,
            )
        )
        if self.elector is not None:
            self.elector.observe_round(outcome)
        for listener in self.round_listeners:
            listener(self.process.pid, outcome)
        self._note_suspicion_change(before)
        self._next_round_handle = self.process.scheduler.schedule_after(
            self.pacing.idle, self._begin_round
        )

    # -- bookkeeping ---------------------------------------------------------
    def _note_suspicion_change(self, before: frozenset) -> None:
        after = self.detector.suspects()
        # The suspect set is served from a mutation-invalidated cache, so an
        # unchanged state hands back the *identical* frozenset — the common
        # case is one pointer comparison, no set equality walk.
        if before is after or before == after:
            return
        self.process.trace.record_suspicion_change(
            self.process.scheduler.now, self.process.pid, before, after
        )
        for listener in self.suspicion_listeners:
            listener(self.process.pid, after)

    def _cancel_pending(self) -> None:
        for handle in (self._close_handle, self._next_round_handle, self._retry_handle):
            if handle is not None:
                handle.cancel()
        self._close_handle = None
        self._next_round_handle = None
        self._retry_handle = None


class TimedDriver:
    """Hosts timer-based baseline detectors (heartbeat family)."""

    def __init__(self, process: SimProcess, core: TimedProtocolCore) -> None:
        self.process = process
        self.core = core
        self.suspicion_listeners: list[SuspicionListener] = []
        self._timer: EventHandle | None = None

    def on_start(self) -> None:
        effects = self.core.start(self.process.scheduler.now)
        self.process.execute(effects)
        self._rearm()

    def on_crash(self) -> None:
        self._cancel_timer()

    def on_detach(self) -> None:
        # While moving the node stops executing; the timer is silenced.
        self._cancel_timer()

    def on_attach(self) -> None:
        # Catching up is a wake-up like any other: a peer whose timer ran
        # out while the node was away is recorded and announced now (no
        # later handler would: its `before` already holds the peer).
        self._wakeup()

    def on_recover(self) -> None:
        # Persistent-state restart: resume the timer loop where it stood.
        self.on_attach()

    def on_leave(self) -> None:
        self._cancel_timer()

    def suspects(self) -> frozenset:
        return self.core.suspects()

    def on_message(self, src: ProcessId, message: object) -> None:
        core = self.core
        before = core.suspects()
        effects = core.on_message(self.process.scheduler.now, src, message)
        if effects:
            self.process.execute(effects)
        self._rearm()
        # Cores may hand back the identical frozenset while nothing changed
        # (the built-in ones do): one pointer comparison per message.  A
        # core that builds a fresh set per call falls through to equality.
        after = core.suspects()
        if after is not before and after != before:
            self._record_suspicion_change(before, after)

    def _wakeup(self) -> None:
        self._timer = None
        if not self.process.alive or not self.process.attached:
            return
        core = self.core
        before = core.suspects()
        effects = core.on_wakeup(self.process.scheduler.now)
        if effects:
            self.process.execute(effects)
        self._rearm()
        after = core.suspects()
        if after is not before and after != before:
            self._record_suspicion_change(before, after)

    def _rearm(self) -> None:
        deadline = self.core.next_wakeup()
        if deadline is None:
            self._cancel_timer()
            return
        timer = self._timer
        live = timer is not None and not timer.cancelled
        if live and timer.time <= deadline:
            return  # nearly every message leaves here, the clock unread
        target = max(deadline, self.process.scheduler.now)
        if live:
            if timer.time <= target:
                return  # existing timer fires first; it will re-arm
            timer.cancel()
        self._timer = self.process.scheduler.schedule_at(target, self._wakeup)

    def _record_suspicion_change(self, before: frozenset, after: frozenset) -> None:
        self.process.trace.record_suspicion_change(
            self.process.scheduler.now, self.process.pid, before, after
        )
        for listener in self.suspicion_listeners:
            listener(self.process.pid, after)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
