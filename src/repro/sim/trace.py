"""Structured run traces: the single source of truth for every metric.

Nodes and drivers append typed records; :mod:`repro.metrics` computes
detection times, mistake statistics and message loads from them.  Message
records are aggregated (counters) by default to keep memory bounded on long
runs; suspicion changes and rounds are kept in full since every experiment
needs their timelines.

:class:`TraceRecorder` holds changes and rounds in columns of its own.
Process ids are interned to dense ints; the global change log is a pair of
parallel ``array('d')``/``array('i')`` time/observer columns, and each
observer's slice keeps its added/removed deltas as small tuples of dense
ints.  No per-change ``suspects`` snapshot is materialized — instead each
observer keeps periodic *checkpoints* of its suspect set (every
``checkpoint_interval`` changes, plus a forced checkpoint whenever a
record's ``before`` disagrees with the previous ``after``), so
``suspects_at`` costs O(log c + k) and a cell's trace memory is
O(changes) instead of O(n * changes).  Rounds are stored the same way:
scalar columns plus responders/winners flattened into shared int arrays
with offset columns.

The list-of-dataclasses recorder this replaced is the audited oracle in
``tests/reference_trace.py``, a standalone recorder: a hypothesis
differential (``test_columnar_matches_object_oracle`` under
``tests/property/``) drives both recorders through identical scripts and
asserts equal query results, the same pattern that pins the scheduler to
the reference heap scheduler.

``trace.suspicion_changes`` / ``trace.rounds`` are read-only tuples,
materialized on read and rebuilt only when the recorder has grown since
the last one; the ``record_*`` methods are the only way into a trace.  The
sim itself never reads the views, so runs never pay for materialization.
The columns assume what the simulator guarantees: records are appended in
non-decreasing time order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from ..ids import ProcessId

__all__ = [
    "SuspicionChange",
    "RoundRecord",
    "CrashEvent",
    "MobilityEvent",
    "RecoveryEvent",
    "MembershipEvent",
    "TraceRecorder",
]

_EMPTY: frozenset = frozenset()

#: how many changes an observer accumulates between suspect-set checkpoints
DEFAULT_CHECKPOINT_INTERVAL = 64


@dataclass(frozen=True, slots=True)
class SuspicionChange:
    """One observer's suspect list changed at ``time``."""

    time: float
    observer: ProcessId
    added: frozenset[ProcessId]
    removed: frozenset[ProcessId]
    suspects: frozenset[ProcessId]


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One completed query round (feeds the MP/RP property oracles)."""

    querier: ProcessId
    round_id: int
    started_at: float
    quorum_at: float
    finished_at: float
    responders: tuple[ProcessId, ...]
    winners: frozenset[ProcessId]


@dataclass(frozen=True, slots=True)
class CrashEvent:
    time: float
    process: ProcessId


@dataclass(frozen=True, slots=True)
class MobilityEvent:
    time: float
    process: ProcessId
    kind: str  # "detach" | "attach"


@dataclass(frozen=True, slots=True)
class RecoveryEvent:
    time: float
    process: ProcessId
    incarnation: int


@dataclass(frozen=True, slots=True)
class MembershipEvent:
    time: float
    process: ProcessId
    kind: str  # "join" | "leave"


class _ObserverColumn:
    """One observer's slice of the recorder's change log.

    ``times`` mirrors the global time column for bisection; ``added`` /
    ``removed`` hold the observer's delta tuples (the same tuple objects
    the global log orders, so per-pair scans pay no indirection).
    Checkpoints are (count, suspect-set) pairs meaning "after the first
    ``count`` changes of this observer the suspect set is exactly this";
    ``running`` is the live suspect set (dense ids) after all changes.
    """

    __slots__ = (
        "times",
        "added",
        "removed",
        "transitions",
        "trans_len",
        "ckpt_counts",
        "ckpt_sets",
        "running",
        "last_after",
        "targets",
        "memo_pos",
        "memo_state",
    )

    def __init__(self) -> None:
        self.times = array("d")
        self.added: list[tuple[int, ...]] = []
        self.removed: list[tuple[int, ...]] = []
        #: inverted per-target transition index: dense target id -> packed
        #: ``local_position << 2 | kind`` codes (kind bit 0 = added, bit 1
        #: = removed), so per-pair queries walk just that pair's history.
        #: Built lazily from the delta columns on first per-pair query and
        #: extended incrementally; ``trans_len`` is how many records it has
        #: absorbed.  The record path never pays for it.
        self.transitions: dict[int, array] = {}
        self.trans_len = 0
        self.ckpt_counts: list[int] = []
        self.ckpt_sets: list[frozenset[int]] = []
        self.running: set[int] = set()
        self.last_after: frozenset[ProcessId] = _EMPTY
        self.targets: set[int] = set()
        #: last state materialized by ``_state_dense`` — time-increasing
        #: query sweeps (the plotting pattern) resume the delta replay here
        #: instead of from the latest checkpoint, amortizing a sweep to one
        #: pass over the log
        self.memo_pos = 0
        self.memo_state: set[int] = set()


class TraceRecorder:
    """Append-only record store with indexed timeline queries.

    Suspicion changes and rounds live in the recorder's own columns (see
    module doc), which answer the timeline queries; crash, mobility,
    recovery and membership events are plain lists and messages are
    counters.  Public methods never call each other: shared work lives in
    the private helpers, so a wrapper around one public method sees each
    query once.
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
        # process-id interning: dense id -> pid and back
        "_dense",
        "_pids",
        # the change log: global time/observer columns, per-observer slices
        "_ckpt_every",
        "_times",
        "_observers",
        "_obs",
        "_changes_view",
        # the round log: scalar columns, flattened responders/winners
        "_querier",
        "_round_id",
        "_started",
        "_quorum",
        "_finished",
        "_resp",
        "_resp_off",
        "_win",
        "_win_off",
        "_by_querier",
        "_rounds_view",
    )

    def __init__(
        self, *, checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    ) -> None:
        self.crashes: list[CrashEvent] = []
        self.mobility: list[MobilityEvent] = []
        self.recoveries: list[RecoveryEvent] = []
        self.membership_events: list[MembershipEvent] = []
        self.messages_by_kind: Counter = Counter()
        self.messages_by_sender: Counter = Counter()
        self.messages_total = 0
        self.messages_dropped = 0
        self._dense: dict[ProcessId, int] = {}
        self._pids: list[ProcessId] = []
        self._ckpt_every = max(1, checkpoint_interval)
        self._times = array("d")
        self._observers = array("i")
        self._obs: list[_ObserverColumn] = []
        #: the last tuple served as ``suspicion_changes``
        self._changes_view: tuple[SuspicionChange, ...] = ()
        self._querier = array("i")
        self._round_id = array("q")
        self._started = array("d")
        self._quorum = array("d")
        self._finished = array("d")
        self._resp = array("i")
        self._resp_off = array("q", [0])
        self._win = array("i")
        self._win_off = array("q", [0])
        self._by_querier: dict[int, list[int]] = {}
        #: the last tuple served as ``rounds``
        self._rounds_view: tuple[RoundRecord, ...] = ()

    # -- stored timelines --------------------------------------------------
    @property
    def suspicion_changes(self) -> tuple[SuspicionChange, ...]:
        """Every recorded change in order (read-only; see module doc)."""
        if len(self._changes_view) != len(self._times):
            pids = self._pids
            replays = [self._replay(col, pids[d]) for d, col in enumerate(self._obs)]
            self._changes_view = tuple(next(replays[d]) for d in self._observers)
        return self._changes_view

    @property
    def rounds(self) -> tuple[RoundRecord, ...]:
        """Every recorded round in order (read-only; see module doc)."""
        if len(self._rounds_view) != len(self._round_id):
            self._rounds_view = tuple(map(self._round, range(len(self._round_id))))
        return self._rounds_view

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
        intern = self._intern
        dense = intern(observer)
        obs = self._obs
        while len(obs) <= dense:
            obs.append(_ObserverColumn())
        col = obs[dense]
        added = after - before
        removed = before - after
        last = col.last_after
        consistent = before is last or before == last
        added_t = tuple(map(intern, added)) if added else ()
        removed_t = tuple(map(intern, removed)) if removed else ()
        self._times.append(time)
        self._observers.append(dense)
        col.times.append(time)
        col.added.append(added_t)
        col.removed.append(removed_t)
        running = col.running
        if consistent:
            running.difference_update(removed_t)
            running.update(added_t)
        else:
            # ``before`` is not the last ``after`` (a volatile restart records
            # from an empty set): the delta replay would diverge from
            # ``after``, so pin the state with a forced checkpoint.
            running.clear()
            running.update(map(intern, after))
        col.targets.update(added_t)
        count = len(col.times)
        if not consistent or count % self._ckpt_every == 0:
            col.ckpt_counts.append(count)
            col.ckpt_sets.append(frozenset(running))
        col.last_after = after
        return SuspicionChange(
            time=time, observer=observer, added=added, removed=removed, suspects=after
        )

    def record_round(self, record: RoundRecord) -> None:
        intern = self._intern
        dense = intern(record.querier)
        self._by_querier.setdefault(dense, []).append(len(self._round_id))
        self._querier.append(dense)
        self._round_id.append(record.round_id)
        self._started.append(record.started_at)
        self._quorum.append(record.quorum_at)
        self._finished.append(record.finished_at)
        resp = self._resp
        resp.extend(map(intern, record.responders))
        self._resp_off.append(len(resp))
        win = self._win
        win.extend(map(intern, record.winners))
        self._win_off.append(len(win))

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
        col = self._column(observer)
        return [] if col is None else list(self._replay(col, observer))

    def suspects_at(self, observer: ProcessId, time: float) -> frozenset[ProcessId]:
        """The observer's suspect list at ``time`` (empty before any change)."""
        col = self._column(observer)
        if col is None:
            return _EMPTY
        pos = bisect_right(col.times, time)
        if pos == 0:
            return _EMPTY
        pids = self._pids
        return frozenset(pids[d] for d in self._state_dense(col, pos))

    def first_suspicion_time(
        self,
        observer: ProcessId,
        target: ProcessId,
        *,
        after: float = 0.0,
    ) -> float | None:
        """First time >= ``after`` at which ``observer`` suspects ``target``."""
        pair = self._pair(observer, target)
        if pair is not None:
            times, codes = pair
            for code in codes:
                if code & 1 and times[code >> 2] >= after:
                    return times[code >> 2]
        return None

    def permanent_suspicion_time(
        self, observer: ProcessId, target: ProcessId
    ) -> float | None:
        """Start of the final, never-revoked suspicion interval.

        ``None`` if the observer does not suspect ``target`` at the end of
        the trace.  This is the quantity behind *strong completeness*
        detection times.
        """
        return self._walk(self._pair(observer, target), None)

    def suspicion_intervals(
        self, observer: ProcessId, target: ProcessId, *, horizon: float
    ) -> list[tuple[float, float]]:
        """All ``[start, end)`` intervals during which ``target`` was suspected.

        The final interval is closed at ``horizon`` when still open.
        """
        intervals: list[tuple[float, float]] = []
        start = self._walk(self._pair(observer, target), intervals)
        if start is not None:
            intervals.append((start, horizon))
        return intervals

    def false_suspicion_count_at(
        self, time: float, crashed: frozenset[ProcessId]
    ) -> int:
        """Total (observer, target) pairs wrongly suspected at ``time``.

        Counts every suspicion whose target had not crashed — the quantity in
        the mobility experiment's "# of false suspicions" axis.
        """
        pids = self._pids
        count = 0
        for col in self._obs:
            pos = bisect_right(col.times, time)
            if pos:
                state = self._state_dense(col, pos)
                count += sum(1 for d in state if pids[d] not in crashed)
        return count

    def targets_of(self, observer: ProcessId) -> frozenset[ProcessId]:
        """Every process the observer ever suspected (union of ``added``).

        Lets tabulation skip (observer, target) pairs with no suspicion
        history instead of scanning the observer's timeline per target —
        the dominant cost of ``mistake_stats`` on large-n grids.
        """
        col = self._column(observer)
        if col is None:
            return _EMPTY
        pids = self._pids
        return frozenset(pids[d] for d in col.targets)

    # -- round queries --------------------------------------------------------
    def rounds_of(self, querier: ProcessId) -> list[RoundRecord]:
        dense = self._dense.get(querier)
        if dense is None:
            return []
        return [self._round(i) for i in self._by_querier.get(dense, ())]

    def crash_time_of(self, process: ProcessId) -> float | None:
        """When ``process`` first crashed, or ``None`` if it never did."""
        return next((e.time for e in self.crashes if e.process == process), None)

    def crashed_processes(self) -> frozenset[ProcessId]:
        return frozenset(event.process for event in self.crashes)

    # -- private helpers -----------------------------------------------------
    def _intern(self, pid: ProcessId) -> int:
        d = self._dense.get(pid)
        if d is None:
            d = self._dense[pid] = len(self._pids)
            self._pids.append(pid)
        return d

    def _round(self, index: int) -> RoundRecord:
        pids = self._pids
        r0, r1 = self._resp_off[index], self._resp_off[index + 1]
        w0, w1 = self._win_off[index], self._win_off[index + 1]
        return RoundRecord(
            querier=pids[self._querier[index]],
            round_id=self._round_id[index],
            started_at=self._started[index],
            quorum_at=self._quorum[index],
            finished_at=self._finished[index],
            responders=tuple(pids[d] for d in self._resp[r0:r1]),
            winners=frozenset(pids[d] for d in self._win[w0:w1]),
        )

    def _column(self, observer: ProcessId) -> _ObserverColumn | None:
        """The observer's column, or ``None`` if it recorded no change."""
        dense = self._dense.get(observer)
        if dense is None or dense >= len(self._obs):
            return None
        col = self._obs[dense]
        return col if col.times else None

    def _replay(self, col: _ObserverColumn, observer: ProcessId):
        """Yield the observer's changes, rebuilt from its deltas in order.

        The running suspect set is corrected at every checkpoint, since a
        forced checkpoint marks a record the deltas alone do not reach.
        """
        pids = self._pids
        ckpt_counts = col.ckpt_counts
        ckpt_sets = col.ckpt_sets
        state: set[int] = set()
        ci = 0
        for local, (added_t, removed_t) in enumerate(zip(col.added, col.removed)):
            state.difference_update(removed_t)
            state.update(added_t)
            if ci < len(ckpt_counts) and ckpt_counts[ci] == local + 1:
                snap = ckpt_sets[ci]
                ci += 1
                if snap != state:
                    state = set(snap)
            yield SuspicionChange(
                time=col.times[local],
                observer=observer,
                added=frozenset(pids[d] for d in added_t),
                removed=frozenset(pids[d] for d in removed_t),
                suspects=frozenset(pids[d] for d in state),
            )

    @staticmethod
    def _state_dense(col: _ObserverColumn, pos: int):
        """Dense suspect set after ``pos`` changes of ``col`` (do not mutate)."""
        if pos == len(col.times):
            return col.running
        ckpt_counts = col.ckpt_counts
        at = bisect_right(ckpt_counts, pos) - 1
        if at >= 0:
            base = ckpt_counts[at]
            if base == pos:
                return col.ckpt_sets[at]
            snap = col.ckpt_sets[at]
        else:
            base = 0
            snap = ()
        # Every record in (base, pos] is delta-consistent: inconsistent
        # records force a checkpoint at their own position, so the latest
        # checkpoint <= pos can never precede one.  The memoized state from
        # the previous call is therefore a valid replay base whenever it
        # lies in [base, pos] — no checkpoint (hence no inconsistent record)
        # sits between it and ``pos`` — which turns a time-increasing query
        # sweep into a single amortized pass over the log.
        start = col.memo_pos
        if base <= start <= pos:
            state = col.memo_state
            if start == pos:
                return state
        else:
            state = set(snap)
            start = base
        added = col.added
        removed = col.removed
        for local in range(start, pos):
            state.difference_update(removed[local])
            state.update(added[local])
        col.memo_pos = pos
        col.memo_state = state
        return state

    def _pair(self, observer: ProcessId, target: ProcessId):
        """``(times, codes)`` of one pair's transitions, or ``None`` if none.

        ``codes`` pack ``local_position << 2 | kind`` (kind 1 = added,
        2 = removed; a record's ``added`` and ``removed`` are disjoint, so
        each code is one kind); the per-target index is extended to cover
        every record first.  ``array('i')`` bounds local positions at 2**29
        records per observer.
        """
        col = self._column(observer)
        if col is None:
            return None
        target_dense = self._dense.get(target)
        if target_dense is None:
            return None
        trans = col.transitions
        count = len(col.added)
        if col.trans_len != count:
            for local in range(col.trans_len, count):
                code = local << 2
                for d in col.added[local]:
                    arr = trans.get(d)
                    if arr is None:
                        arr = trans[d] = array("i")
                    arr.append(code | 1)
                for d in col.removed[local]:
                    arr = trans.get(d)
                    if arr is None:
                        arr = trans[d] = array("i")
                    arr.append(code | 2)
            col.trans_len = count
        codes = trans.get(target_dense)
        return None if codes is None else (col.times, codes)

    @staticmethod
    def _walk(pair, closed: list | None) -> float | None:
        """Run one pair's add/remove state machine; the open interval's start.

        An add opens an interval unless one is open, a remove closes the
        open one.  Closed intervals are appended to ``closed`` when given:
        ``suspicion_intervals`` keeps them, ``permanent_suspicion_time``
        wants only the open start.
        """
        start: float | None = None
        if pair is not None:
            times, codes = pair
            for code in codes:
                if code & 1 and start is None:
                    start = times[code >> 2]
                elif code & 2 and start is not None:
                    if closed is not None:
                        closed.append((start, times[code >> 2]))
                    start = None
        return start
