"""Reference model of the trace recorder: the list-of-dataclasses recorder.

This is the recorder ``repro.sim.trace`` used before the columnar store:
every ``SuspicionChange`` / ``RoundRecord`` kept as an object in a plain
list (each change carrying a full ``suspects`` snapshot) with a lazily
built per-observer index, behind the recorder shell that delegated every
record and query to its two stores.  It is kept verbatim as the audited
oracle, a recorder of its own like the other reference models:
``tests/property/test_trace_backends.py``, the fault-plane differential
and the trace unit suites drive the production recorder and
:class:`ReferenceTraceRecorder` through identical scripts and require
equal query results; ``tests/unit/test_microbench.py`` measures the
memory the columnar store saves against it.

The shell's constructor installs the object stores and takes no
``checkpoint_interval`` (the object stores keep no checkpoints).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter

from repro.ids import ProcessId
from repro.sim.trace import (
    CrashEvent,
    MembershipEvent,
    MobilityEvent,
    RecoveryEvent,
    RoundRecord,
    SuspicionChange,
)

__all__ = ["ReferenceTraceRecorder"]

_EMPTY: frozenset = frozenset()


class _Timeline:
    """One observer's changes with a parallel time array for bisection."""

    __slots__ = ("times", "changes")

    def __init__(self) -> None:
        self.times: list[float] = []
        self.changes: list[SuspicionChange] = []


class _ObjectChanges:
    """The original list-of-objects store with a lazy per-observer index."""

    __slots__ = ("changes", "_index", "_indexed")

    def __init__(self) -> None:
        self.changes: list[SuspicionChange] = []
        #: lazy per-observer index over ``changes``
        self._index: dict[ProcessId, _Timeline] = {}
        self._indexed = 0

    def record(
        self,
        time: float,
        observer: ProcessId,
        before: frozenset[ProcessId],
        after: frozenset[ProcessId],
    ) -> SuspicionChange:
        change = SuspicionChange(
            time=time,
            observer=observer,
            added=after - before,
            removed=before - after,
            suspects=after,
        )
        self.changes.append(change)
        return change

    def view(self) -> tuple[SuspicionChange, ...]:
        return tuple(self.changes)

    def _ensure_index(self) -> dict[ProcessId, _Timeline]:
        index = self._index
        changes = self.changes
        count = len(changes)
        if count == self._indexed:
            return index
        for change in changes[self._indexed :]:
            timeline = index.get(change.observer)
            if timeline is None:
                timeline = index[change.observer] = _Timeline()
            timeline.times.append(change.time)
            timeline.changes.append(change)
        self._indexed = count
        return index

    def _timeline(self, observer: ProcessId) -> _Timeline | None:
        return self._ensure_index().get(observer)

    def changes_of(self, observer: ProcessId) -> list[SuspicionChange]:
        timeline = self._timeline(observer)
        return list(timeline.changes) if timeline is not None else []

    def suspects_at(self, observer: ProcessId, time: float) -> frozenset[ProcessId]:
        timeline = self._timeline(observer)
        if timeline is None:
            return frozenset()
        at = bisect_right(timeline.times, time)
        if at == 0:
            return frozenset()
        return timeline.changes[at - 1].suspects

    def first_suspicion_time(
        self, observer: ProcessId, target: ProcessId, *, after: float = 0.0
    ) -> float | None:
        timeline = self._timeline(observer)
        if timeline is None:
            return None
        changes = timeline.changes
        for at in range(bisect_left(timeline.times, after), len(changes)):
            change = changes[at]
            if target in change.added:
                return change.time
        return None

    def permanent_suspicion_time(
        self, observer: ProcessId, target: ProcessId
    ) -> float | None:
        timeline = self._timeline(observer)
        if timeline is None:
            return None
        start: float | None = None
        suspected = False
        for change in timeline.changes:
            if target in change.added and not suspected:
                suspected = True
                start = change.time
            elif target in change.removed and suspected:
                suspected = False
                start = None
        return start if suspected else None

    def suspicion_intervals(
        self, observer: ProcessId, target: ProcessId, *, horizon: float
    ) -> list[tuple[float, float]]:
        timeline = self._timeline(observer)
        intervals: list[tuple[float, float]] = []
        start: float | None = None
        if timeline is not None:
            for change in timeline.changes:
                if target in change.added and start is None:
                    start = change.time
                elif target in change.removed and start is not None:
                    intervals.append((start, change.time))
                    start = None
        if start is not None:
            intervals.append((start, horizon))
        return intervals

    def false_suspicion_count_at(
        self, time: float, crashed: frozenset[ProcessId]
    ) -> int:
        count = 0
        for timeline in self._ensure_index().values():
            at = bisect_right(timeline.times, time)
            if at == 0:
                continue
            suspects = timeline.changes[at - 1].suspects
            count += sum(1 for target in suspects if target not in crashed)
        return count

    def targets_of(self, observer: ProcessId) -> frozenset[ProcessId]:
        timeline = self._timeline(observer)
        if timeline is None:
            return _EMPTY
        targets: set[ProcessId] = set()
        for change in timeline.changes:
            targets.update(change.added)
        return frozenset(targets)


class _ObjectRounds:
    """The original round list with a lazy per-querier index."""

    __slots__ = ("rounds", "_index", "_indexed")

    def __init__(self) -> None:
        self.rounds: list[RoundRecord] = []
        self._index: dict[ProcessId, list[RoundRecord]] = {}
        self._indexed = 0

    def record(self, rec: RoundRecord) -> None:
        self.rounds.append(rec)

    def view(self) -> tuple[RoundRecord, ...]:
        return tuple(self.rounds)

    def _ensure_index(self) -> dict[ProcessId, list[RoundRecord]]:
        index = self._index
        rounds = self.rounds
        count = len(rounds)
        if count == self._indexed:
            return index
        for record in rounds[self._indexed :]:
            index.setdefault(record.querier, []).append(record)
        self._indexed = count
        return index

    def rounds_of(self, querier: ProcessId) -> list[RoundRecord]:
        return list(self._ensure_index().get(querier, ()))



class ReferenceTraceRecorder:
    """Append-only record store with indexed timeline queries.

    Suspicion changes and rounds go to the object stores, which answer
    the timeline queries; crash, mobility, recovery and membership events
    are plain lists and messages are counters.
    """

    __slots__ = (
        "crashes",
        "mobility",
        "recoveries",
        "membership_events",
        "messages_by_kind",
        "messages_by_sender",
        "messages_total",
        "messages_dropped",
        "_changes",
        "_rounds",
        "_crash_index",
        "_crash_indexed",
        "_crash_source",
    )

    def __init__(self) -> None:
        self._changes = _ObjectChanges()
        self._rounds = _ObjectRounds()
        self.crashes: list[CrashEvent] = []
        self.mobility: list[MobilityEvent] = []
        self.recoveries: list[RecoveryEvent] = []
        self.membership_events: list[MembershipEvent] = []
        self.messages_by_kind: Counter = Counter()
        self.messages_by_sender: Counter = Counter()
        self.messages_total = 0
        self.messages_dropped = 0
        #: lazy ``process -> first crash time`` map over ``crashes``,
        #: rebuilt when the list is replaced (identity) or shrinks
        self._crash_index: dict[ProcessId, float] = {}
        self._crash_indexed = 0
        self._crash_source: list = self.crashes

    # -- stored timelines --------------------------------------------------
    @property
    def suspicion_changes(self) -> tuple[SuspicionChange, ...]:
        """Every recorded change in order (read-only; see module doc)."""
        return self._changes.view()

    @property
    def rounds(self) -> tuple[RoundRecord, ...]:
        """Every recorded round in order (read-only; see module doc)."""
        return self._rounds.view()

    # -- recording ---------------------------------------------------------
    def record_suspicion_change(
        self,
        time: float,
        observer: ProcessId,
        before: frozenset[ProcessId],
        after: frozenset[ProcessId],
    ) -> SuspicionChange | None:
        """Record the delta between two suspect lists; no-op when equal."""
        if before == after:
            return None
        return self._changes.record(time, observer, before, after)

    def record_round(self, record: RoundRecord) -> None:
        self._rounds.record(record)

    def record_crash(self, time: float, process: ProcessId) -> None:
        self.crashes.append(CrashEvent(time, process))

    def record_mobility(self, time: float, process: ProcessId, kind: str) -> None:
        self.mobility.append(MobilityEvent(time, process, kind))

    def record_recovery(self, time: float, process: ProcessId, incarnation: int) -> None:
        self.recoveries.append(RecoveryEvent(time, process, incarnation))

    def record_membership(self, time: float, process: ProcessId, kind: str) -> None:
        self.membership_events.append(MembershipEvent(time, process, kind))

    def record_message(self, kind: str, sender: ProcessId) -> None:
        self.messages_total += 1
        self.messages_by_kind[kind] += 1
        self.messages_by_sender[sender] += 1

    def record_messages(self, kind: str, sender: ProcessId, count: int) -> None:
        """Bulk form of :meth:`record_message` (one broadcast, n-1 sends)."""
        self.messages_total += count
        self.messages_by_kind[kind] += count
        self.messages_by_sender[sender] += count

    def record_drop(self) -> None:
        self.messages_dropped += 1

    def record_drops(self, count: int) -> None:
        """Bulk form of :meth:`record_drop` (one lossy broadcast, k drops)."""
        self.messages_dropped += count

    # -- timeline queries ----------------------------------------------------
    def changes_of(self, observer: ProcessId) -> list[SuspicionChange]:
        return self._changes.changes_of(observer)

    def suspects_at(self, observer: ProcessId, time: float) -> frozenset[ProcessId]:
        """The observer's suspect list at ``time`` (empty before any change)."""
        return self._changes.suspects_at(observer, time)

    def first_suspicion_time(
        self,
        observer: ProcessId,
        target: ProcessId,
        *,
        after: float = 0.0,
    ) -> float | None:
        """First time >= ``after`` at which ``observer`` suspects ``target``."""
        return self._changes.first_suspicion_time(observer, target, after=after)

    def permanent_suspicion_time(
        self, observer: ProcessId, target: ProcessId
    ) -> float | None:
        """Start of the final, never-revoked suspicion interval.

        ``None`` if the observer does not suspect ``target`` at the end of
        the trace.  This is the quantity behind *strong completeness*
        detection times.
        """
        return self._changes.permanent_suspicion_time(observer, target)

    def suspicion_intervals(
        self, observer: ProcessId, target: ProcessId, *, horizon: float
    ) -> list[tuple[float, float]]:
        """All ``[start, end)`` intervals during which ``target`` was suspected.

        The final interval is closed at ``horizon`` when still open.
        """
        return self._changes.suspicion_intervals(observer, target, horizon=horizon)

    def false_suspicion_count_at(
        self, time: float, crashed: frozenset[ProcessId]
    ) -> int:
        """Total (observer, target) pairs wrongly suspected at ``time``.

        Counts every suspicion whose target had not crashed — the quantity in
        the mobility experiment's "# of false suspicions" axis.
        """
        return self._changes.false_suspicion_count_at(time, crashed)

    def targets_of(self, observer: ProcessId) -> frozenset[ProcessId]:
        """Every process the observer ever suspected (union of ``added``).

        Lets tabulation skip (observer, target) pairs with no suspicion
        history instead of scanning the observer's timeline per target —
        the dominant cost of ``mistake_stats`` on large-n grids.
        """
        return self._changes.targets_of(observer)

    # -- round queries --------------------------------------------------------
    def rounds_of(self, querier: ProcessId) -> list[RoundRecord]:
        return self._rounds.rounds_of(querier)

    def crash_time_of(self, process: ProcessId) -> float | None:
        crashes = self.crashes
        index = self._crash_index
        if crashes is not self._crash_source or len(crashes) < self._crash_indexed:
            index.clear()
            self._crash_indexed = 0
            self._crash_source = crashes
        count = len(crashes)
        if count > self._crash_indexed:
            for event in crashes[self._crash_indexed :]:
                # setdefault keeps the *first* crash, like the old linear scan
                index.setdefault(event.process, event.time)
            self._crash_indexed = count
        return index.get(process)

    def crashed_processes(self) -> frozenset[ProcessId]:
        return frozenset(event.process for event in self.crashes)
