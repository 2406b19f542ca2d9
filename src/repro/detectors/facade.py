"""One event-in/effects-out surface over both detector protocol styles.

The library has two core shapes: *query-response* cores
(:class:`~repro.sim.node.QueryDetectorCore` — the paper's time-free
algorithm and its partial-connectivity extension) and *timed* cores
(:class:`~repro.sim.node.TimedProtocolCore` — the heartbeat family).  The
timed interface is already a pure event-in/effects-out state machine:
``start``/``on_message``/``on_wakeup`` take the current time and return
:class:`~repro.core.effects.Effect` lists, and ``next_wakeup`` names the
next deadline the substrate must honour.  That interface is the
**unified facade**: :class:`DetectorCore` below.

:class:`QueryRoundFacade` adapts a query core (plus its
:class:`~repro.sim.node.QueryPacing`) to the same interface by running
task T1's round loop *sans-I/O*: starting a round returns the QUERY
broadcast, responses are fed through ``on_message``, and the pacing
delays (grace after quorum, idle between rounds, optional lossy-channel
retry) become ``next_wakeup`` deadlines instead of scheduler callbacks.
No timer ever produces a suspicion — deadlines only pace rounds and
retransmissions, exactly as in the driver/service implementations — so
wrapping the time-free detector in the facade keeps detection time-free.

With the facade, any substrate that can deliver messages and honour
wake-up deadlines (the simulator's :class:`~repro.sim.node.TimedDriver`,
the asyncio :class:`~repro.runtime.service.DetectorService` loop, a test
harness calling methods by hand) hosts *every* registered family through
one code path.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..core.effects import Broadcast, Effect
from ..core.messages import Query, Response
from ..core.omega import OmegaElector
from ..core.protocol import QueryRoundOutcome
from ..ids import ProcessId

__all__ = ["DetectorCore", "QueryRoundFacade"]


@runtime_checkable
class DetectorCore(Protocol):
    """The unified sans-I/O detector interface (event in, effects out).

    Identical to :class:`~repro.sim.node.TimedProtocolCore`; restated here
    as the registry's public facade type.  Substrate contract: call
    :meth:`start` once, route every delivered message through
    :meth:`on_message`, and call :meth:`on_wakeup` no earlier than
    :meth:`next_wakeup` (re-reading the deadline after every call —
    message handling may move it).  Returned effects must be executed
    (broadcast/send) by the substrate.
    """

    @property
    def process_id(self) -> ProcessId: ...

    def start(self, now: float) -> list[Effect]: ...

    def on_message(self, now: float, sender: ProcessId, message: object) -> list[Effect]: ...

    def on_wakeup(self, now: float) -> list[Effect]: ...

    def next_wakeup(self) -> float | None: ...

    def suspects(self) -> frozenset: ...


class QueryRoundFacade:
    """Task T1's round loop as a unified :class:`DetectorCore`.

    Wraps any :class:`~repro.sim.node.QueryDetectorCore`.  The pacing
    deadlines (``grace`` after the quorum, ``idle`` between rounds,
    optional ``retry`` rebroadcast) are exposed through ``next_wakeup``;
    the substrate decides *when* to call back, the facade decides *what*
    happens — so the adapter stays deterministic and testable without any
    scheduler.

    ``round_listeners`` receive ``(process_id, QueryRoundOutcome)`` after
    every completed round; an optional ``elector`` observes outcomes for
    Omega leader election, mirroring
    :class:`~repro.sim.node.QueryResponseDriver`.
    """

    def __init__(
        self,
        core,
        pacing=None,
        *,
        elector: OmegaElector | None = None,
    ) -> None:
        if pacing is None:
            from ..sim.node import QueryPacing

            pacing = QueryPacing()
        self.core = core
        self.pacing = pacing
        self.elector = elector
        self.round_listeners: list = []
        self.rounds_completed = 0
        self.retries_sent = 0
        self._close_at: float | None = None
        self._next_round_at: float | None = None
        self._retry_at: float | None = None
        self._current_broadcast: Broadcast | None = None

    # ------------------------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self.core.process_id

    @property
    def name(self) -> str:
        return getattr(self.core, "name", type(self.core).__name__)

    def suspects(self) -> frozenset:
        return self.core.suspects()

    # -- unified interface --------------------------------------------------
    def start(self, now: float) -> list[Effect]:
        return self._begin_round(now)

    def on_message(self, now: float, sender: ProcessId, message: object) -> list[Effect]:
        if isinstance(message, Query):
            # Delegates to the core's batched T2 merge (one fused pass over
            # both record streams; allocation-free when all records are
            # stale).
            response = self.core.on_query(message)
            return [response] if response is not None else []
        if isinstance(message, Response):
            self.core.on_response(message)
            self._maybe_arm_close(now)
        return []

    def on_wakeup(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        if self._retry_at is not None and now >= self._retry_at:
            self._retry_at = None
            if (
                self.core.collecting
                and not self.core.quorum_reached()
                and self._current_broadcast is not None
            ):
                self.retries_sent += 1
                effects.append(self._current_broadcast)
                self._arm_retry(now)
        if self._close_at is not None and now >= self._close_at:
            self._close_at = None
            if self.core.collecting:
                effects.extend(self._close_round(now))
        if self._next_round_at is not None and now >= self._next_round_at:
            effects.extend(self._begin_round(now))
        return effects

    def next_wakeup(self) -> float | None:
        earliest = None
        for t in (self._close_at, self._next_round_at, self._retry_at):
            if t is not None and (earliest is None or t < earliest):
                earliest = t
        return earliest

    # -- round machinery ----------------------------------------------------
    def _begin_round(self, now: float) -> list[Effect]:
        self._next_round_at = None
        broadcast = self.core.start_round()
        self._current_broadcast = broadcast
        self._arm_retry(now)
        # Degenerate quorums (n - f == 1) are satisfied by the process's
        # own response alone.
        self._maybe_arm_close(now)
        return [broadcast]

    def _close_round(self, now: float) -> list[Effect]:
        outcome: QueryRoundOutcome = self.core.finish_round()
        self.rounds_completed += 1
        if self.elector is not None:
            self.elector.observe_round(outcome)
        for listener in self.round_listeners:
            listener(self.core.process_id, outcome)
        if self.pacing.idle > 0:
            self._next_round_at = now + self.pacing.idle
            return []
        return self._begin_round(now)

    def _maybe_arm_close(self, now: float) -> None:
        if self.core.collecting and self._close_at is None and self.core.quorum_reached():
            self._retry_at = None
            self._close_at = now + self.pacing.grace

    def _arm_retry(self, now: float) -> None:
        if self.pacing.retry is not None:
            self._retry_at = now + self.pacing.retry
