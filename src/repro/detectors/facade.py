"""Task T1 written once: the event-in/effects-out surface every host drives.

The library has two core shapes: *query-response* cores
(:class:`~repro.sim.node.QueryDetectorCore` — the paper's time-free
algorithm and its partial-connectivity extension) and *timed* cores (the
heartbeat family).  The timed interface is already a pure
event-in/effects-out state machine: ``start``/``on_message``/``on_wakeup``
take the current time and return :class:`~repro.core.effects.Effect`
lists, and ``next_wakeup`` names the next deadline the substrate must
honour.  That interface is :class:`DetectorCore` below.

:class:`QueryRoundFacade` is task T1 on that interface, and the library's
only query-round loop: starting a round returns the QUERY broadcast,
responses are fed through ``on_message``, and the pacing delays (grace
after the quorum, idle between rounds, optional lossy-channel retry) are
``next_wakeup`` deadlines.  No deadline ever produces a suspicion — they
pace rounds and retransmissions only — so the time-free detector stays
time-free.

Two hosts drive every registered family through the same five calls
(``start``, ``on_message``, ``on_wakeup``, ``next_wakeup``, ``suspects``)
plus one optional attach hook (``on_attach``): the simulator's
:class:`~repro.sim.node.TimedDriver` and the asyncio
:class:`~repro.runtime.service.DetectorService`.  Their contract is in
``docs/architecture.md``, "Hosting a core: the contract".
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..core.effects import Broadcast, Effect
from ..core.messages import Query, Response
from ..core.omega import OmegaElector
from ..core.protocol import QueryPacing, QueryRoundOutcome
from ..ids import ProcessId

__all__ = ["DetectorCore", "QueryRoundFacade"]


@runtime_checkable
class DetectorCore(Protocol):
    """The unified sans-I/O detector interface (event in, effects out).

    Substrate contract: call :meth:`start` once, route every delivered
    message through :meth:`on_message`, and call :meth:`on_wakeup` no
    earlier than :meth:`next_wakeup` (re-reading the deadline after every
    call — message handling may move it).  Returned effects (a list, or
    one effect) must be executed (broadcast/send) by the substrate.
    ``on_message`` may return ``None``: no effects, no earlier deadline and
    no suspect-set change, so the host has nothing to look at.  A message
    the core does not speak is ignored.  A core may also define
    ``on_attach(now)``, called when a node comes back from a detach or a
    persistent-state restart; hosts call ``on_wakeup`` otherwise.
    """

    @property
    def process_id(self) -> ProcessId: ...

    def start(self, now: float) -> list[Effect]: ...

    def on_message(self, now: float, sender: ProcessId, message: object) -> list[Effect]: ...

    def on_wakeup(self, now: float) -> list[Effect]: ...

    def next_wakeup(self) -> float | None: ...

    def suspects(self) -> frozenset: ...


class QueryRoundFacade:
    """Task T1's round loop as a :class:`DetectorCore`.

    Wraps any :class:`~repro.sim.node.QueryDetectorCore`.  One deadline is
    pending at a time, and the round's state says what it is for: while
    the quorum is outstanding, the ``retry`` rebroadcast (or none); after
    the quorum, the close (``grace`` later); after the close, the next
    round (``idle`` later, *including* ``idle = 0``).  A wake-up handles
    the deadline that was due when it began and nothing it arms itself,
    so a closed round's successor always begins in a wake-up of its own.
    The substrate decides *when* to call back, the facade decides *what*
    happens, so the loop is deterministic and testable without a scheduler.

    ``round_listeners`` receive ``(process_id, QueryRoundOutcome)`` after
    every closed round, once the optional Omega ``elector`` has observed
    it.  ``started_at`` and ``quorum_at`` are the times of the current
    round's query and quorum (``quorum_at`` is ``None`` until it is in).
    """

    def __init__(
        self,
        core,
        pacing: QueryPacing = QueryPacing(),
        *,
        elector: OmegaElector | None = None,
    ) -> None:
        self.core = core
        self.pacing = pacing
        self.elector = elector
        self.round_listeners: list = []
        self.rounds_completed = 0
        self.retries_sent = 0
        self.started_at = 0.0
        self.quorum_at: float | None = None
        self._deadline: float | None = None
        self._broadcast: Broadcast | None = None
        # The core's own method: hosts read the suspect set after every
        # query, and a delegating method would cost a frame each time.
        self.suspects = core.suspects

    # ------------------------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self.core.process_id

    @property
    def name(self) -> str:
        return getattr(self.core, "name", type(self.core).__name__)

    # -- the host's calls ---------------------------------------------------
    def start(self, now: float) -> list[Effect]:
        """Open a round; one still in flight (a restart) is stale and aborted."""
        if self.core.collecting:
            self.core.abort_round()
        return self._begin_round(now)

    def on_attach(self, now: float) -> list[Effect]:
        """Back from a detach or a persistent-state restart: a fresh round."""
        return self.start(now)

    def on_message(self, now: float, sender: ProcessId, message: object):
        kind = type(message)
        if kind is Query or isinstance(message, Query):
            # T2, through the core's batched merge: the answer (None for the
            # node's own query) is the one effect.
            return self.core.on_query(message)
        if kind is Response or isinstance(message, Response):
            core = self.core
            core.on_response(message)
            # `quorum_at` first: once the quorum is in, every further
            # response leaves on one attribute check.
            if self.quorum_at is None and core.quorum_reached():
                self._arm_close(now)
                return []  # the deadline changed: retry -> close
        return None

    def on_wakeup(self, now: float) -> list[Effect]:
        deadline = self._deadline
        if deadline is None or now < deadline:
            return []
        self._deadline = None
        if self.quorum_at is None:
            # Still below the quorum: rebroadcast the same query.
            self.retries_sent += 1
            self._deadline = now + self.pacing.retry
            return [self._broadcast]
        if self.core.collecting:
            self._close_round(now)
            return []
        return self._begin_round(now)

    def next_wakeup(self) -> float | None:
        return self._deadline

    # -- round machinery ----------------------------------------------------
    def _begin_round(self, now: float) -> list[Effect]:
        broadcast = self._broadcast = self.core.start_round()
        self.started_at = now
        self.quorum_at = None
        retry = self.pacing.retry
        self._deadline = None if retry is None else now + retry
        # Degenerate quorums (n - f == 1) are satisfied by the process's
        # own response alone.
        if self.core.quorum_reached():
            self._arm_close(now)
        return [broadcast]

    def _arm_close(self, now: float) -> None:
        self.quorum_at = now
        self._deadline = now + self.pacing.grace

    def _close_round(self, now: float) -> None:
        outcome: QueryRoundOutcome = self.core.finish_round()
        self.rounds_completed += 1
        if self.elector is not None:
            self.elector.observe_round(outcome)
        for listener in self.round_listeners:
            listener(self.core.process_id, outcome)
        self._deadline = now + self.pacing.idle
