"""Reference model of the trace stores: the list-of-dataclasses recorder.

These are the change and round stores ``repro.sim.trace`` used before the
columnar store: every ``SuspicionChange`` / ``RoundRecord`` kept as an
object in a plain list (each change carrying a full ``suspects`` snapshot)
with a lazily built per-observer index.  They are kept verbatim as the
audited oracle: ``tests/property/test_trace_backends.py``, the fault-plane
differential and the trace unit suites drive the production recorder and
:class:`ReferenceTraceRecorder` through identical scripts and require equal
query results; ``tests/unit/test_microbench.py`` measures the memory the
columnar store saves against it.

:class:`ReferenceTraceRecorder` is ``TraceRecorder`` with the two stores
swapped in: the recorder only ever talks to ``_changes`` / ``_rounds``, so
those two slots are the whole seam.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.ids import ProcessId
from repro.sim.trace import RoundRecord, SuspicionChange, TraceRecorder

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


class ReferenceTraceRecorder(TraceRecorder):
    """``TraceRecorder`` on the object stores (no ``checkpoint_interval``)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self._changes = _ObjectChanges()
        self._rounds = _ObjectRounds()
