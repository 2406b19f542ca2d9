"""Reference model of task T1 on the simulator: the scheduler-callback driver.

This is ``repro.sim.node.QueryResponseDriver`` as it stood while the
simulator ran its own query-round loop: one scheduled event per pacing
step (``_close_round`` after the grace, ``_begin_round`` after the idle
pause, ``_retry_query`` per lossy-channel retransmission), the suspect set
snapshotted before and after every hand-off.  The class body is verbatim.
Production now hosts every query core on ``TimedDriver`` through
``repro.detectors.facade.QueryRoundFacade``; this class is the oracle that
host must match on the same cluster, change for change
(``tests/property/test_round_loop_differential.py``).

Its one policy that production does not share: a message that is neither
a ``Query`` nor a ``Response`` raises here, where the facade ignores it.
"""

from __future__ import annotations

from typing import Callable

from repro.core.effects import Broadcast
from repro.core.messages import Query, Response
from repro.core.omega import OmegaElector
from repro.core.protocol import QueryRoundOutcome
from repro.errors import SimulationError
from repro.ids import ProcessId
from repro.sim.engine import EventHandle
from repro.sim.node import QueryDetectorCore, QueryPacing, SimProcess
from repro.sim.trace import RoundRecord

__all__ = ["ReferenceQueryResponseDriver"]

SuspicionListener = Callable[[ProcessId, frozenset], None]
RoundListener = Callable[[ProcessId, QueryRoundOutcome], None]


class ReferenceQueryResponseDriver:
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
