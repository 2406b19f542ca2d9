"""Structured run traces: the single source of truth for every metric.

Nodes and drivers append typed records; :mod:`repro.metrics` computes
detection times, mistake statistics and message loads from them.  Message
records are aggregated (counters) by default to keep memory bounded on long
runs; suspicion changes and rounds are kept in full since every experiment
needs their timelines.

Changes and rounds live in a compact columnar store.  Process ids are
interned to dense ints; the global change log is a pair of parallel
``array('d')``/``array('i')`` time/observer columns plus per-change
added/removed deltas stored as small tuples of dense ints.  No per-change
``suspects`` snapshot is materialized — instead each observer keeps
periodic *checkpoints* of its suspect set (every ``checkpoint_interval``
changes, plus a forced checkpoint whenever a record's ``before`` disagrees
with the previous ``after``), so ``suspects_at`` costs O(log c + k) and a
cell's trace memory is O(changes) instead of O(n * changes).  Rounds are
stored the same way: scalar columns plus responders/winners flattened into
shared int arrays with offset columns.

The list-of-dataclasses recorder this replaced is the audited oracle in
``tests/reference_trace.py``: a hypothesis differential
(``test_columnar_matches_object_oracle`` under ``tests/property/``) drives
both through identical scripts and asserts equal query results, the same
pattern that pins the timer wheel to the reference heap scheduler.

``trace.suspicion_changes`` / ``trace.rounds`` are served as plain lists:
a cached view materialized on first access and re-ingested when callers
replace or truncate it in place (test fixtures do both) — the sim itself
never touches the views, so runs never pay for materialization.  The
columns assume what the simulator guarantees: records are appended in
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


class _Interner:
    """Process-id interning table shared by a recorder's columnar stores."""

    __slots__ = ("dense", "pids")

    def __init__(self) -> None:
        self.dense: dict[ProcessId, int] = {}
        self.pids: list[ProcessId] = []

    def intern(self, pid: ProcessId) -> int:
        d = self.dense.get(pid)
        if d is None:
            d = self.dense[pid] = len(self.pids)
            self.pids.append(pid)
        return d


class _ObserverColumn:
    """One observer's slice of the columnar change log.

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


class _ColumnarChanges:
    """Delta-encoded suspicion-change store (see module doc)."""

    __slots__ = (
        "_interner",
        "_ckpt_every",
        "_times",
        "_observers",
        "_obs",
        "_view",
        "_view_len",
    )

    def __init__(self, interner: _Interner, checkpoint_interval: int) -> None:
        self._interner = interner
        self._ckpt_every = max(1, checkpoint_interval)
        self._times = array("d")
        self._observers = array("i")
        self._obs: list[_ObserverColumn] = []
        #: cached materialized list served as ``trace.suspicion_changes``;
        #: kept append-consistent so held references behave like a live
        #: list, re-ingested when its length drifts (in-place truncation)
        #: or it is replaced wholesale
        self._view: list[SuspicionChange] | None = None
        self._view_len = 0

    # -- store maintenance -------------------------------------------------
    def _col_of(self, dense: int) -> _ObserverColumn:
        obs = self._obs
        while len(obs) <= dense:
            obs.append(_ObserverColumn())
        return obs[dense]

    def _lookup(self, observer: ProcessId) -> _ObserverColumn | None:
        dense = self._interner.dense.get(observer)
        if dense is None or dense >= len(self._obs):
            return None
        col = self._obs[dense]
        return col if col.times else None

    def _sync(self) -> None:
        view = self._view
        if view is not None and len(view) != self._view_len:
            self._reingest(view)
            self._view_len = len(view)

    def _clear(self) -> None:
        self._times = array("d")
        self._observers = array("i")
        self._obs = []

    def _reingest(self, changes: list[SuspicionChange]) -> None:
        self._clear()
        for change in changes:
            self._ingest_literal(change)

    # -- recording ---------------------------------------------------------
    def record(
        self,
        time: float,
        observer: ProcessId,
        before: frozenset[ProcessId],
        after: frozenset[ProcessId],
    ) -> SuspicionChange:
        self._sync()
        intern = self._interner.intern
        dense = intern(observer)
        col = self._col_of(dense)
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
            # A test-authored jump: the delta replay would diverge from the
            # literal ``after``, so pin the state with a forced checkpoint.
            running.clear()
            running.update(map(intern, after))
        col.targets.update(added_t)
        count = len(col.times)
        if not consistent or count % self._ckpt_every == 0:
            col.ckpt_counts.append(count)
            col.ckpt_sets.append(frozenset(running))
        col.last_after = after
        change = SuspicionChange(
            time=time, observer=observer, added=added, removed=removed, suspects=after
        )
        view = self._view
        if view is not None:
            view.append(change)
            self._view_len += 1
        return change

    def _ingest_literal(self, change: SuspicionChange) -> None:
        """Re-ingest a materialized change, trusting its literal fields."""
        intern = self._interner.intern
        dense = intern(change.observer)
        col = self._col_of(dense)
        added_t = tuple(map(intern, change.added)) if change.added else ()
        removed_t = tuple(map(intern, change.removed)) if change.removed else ()
        self._times.append(change.time)
        self._observers.append(dense)
        col.times.append(change.time)
        col.added.append(added_t)
        col.removed.append(removed_t)
        running = col.running
        running.difference_update(removed_t)
        running.update(added_t)
        suspects_dense = frozenset(map(intern, change.suspects))
        consistent = running == suspects_dense
        if not consistent:
            running.clear()
            running.update(suspects_dense)
        col.targets.update(added_t)
        count = len(col.times)
        if not consistent or count % self._ckpt_every == 0:
            col.ckpt_counts.append(count)
            col.ckpt_sets.append(frozenset(running))
        col.last_after = change.suspects

    # -- view --------------------------------------------------------------
    def view(self) -> list[SuspicionChange]:
        self._sync()
        if self._view is None:
            self._view = self._materialize()
            self._view_len = len(self._view)
        return self._view

    def replace(self, value: list[SuspicionChange]) -> None:
        self._reingest(value)
        self._view = value
        self._view_len = len(value)

    def _materialize(self) -> list[SuspicionChange]:
        pids = self._interner.pids
        times = self._times
        observers = self._observers
        cols = self._obs
        states: list[set[int]] = [set() for _ in cols]
        counts = [0] * len(cols)
        ckpt_at = [0] * len(cols)
        out: list[SuspicionChange] = []
        for g in range(len(times)):
            dense = observers[g]
            col = cols[dense]
            local = counts[dense]
            added_t = col.added[local]
            removed_t = col.removed[local]
            state = states[dense]
            state.difference_update(removed_t)
            state.update(added_t)
            counts[dense] += 1
            ci = ckpt_at[dense]
            if ci < len(col.ckpt_counts) and col.ckpt_counts[ci] == counts[dense]:
                ckpt_at[dense] = ci + 1
                snap = col.ckpt_sets[ci]
                if snap != state:
                    states[dense] = state = set(snap)
            out.append(
                SuspicionChange(
                    time=times[g],
                    observer=pids[dense],
                    added=frozenset(pids[d] for d in added_t),
                    removed=frozenset(pids[d] for d in removed_t),
                    suspects=frozenset(pids[d] for d in state),
                )
            )
        return out

    # -- queries -----------------------------------------------------------
    def _state_dense(self, col: _ObserverColumn, pos: int):
        """Dense suspect set after ``pos`` changes of ``col`` (do not mutate)."""
        if pos == 0:
            return ()
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

    def changes_of(self, observer: ProcessId) -> list[SuspicionChange]:
        self._sync()
        col = self._lookup(observer)
        if col is None:
            return []
        pids = self._interner.pids
        ckpt_counts = col.ckpt_counts
        ckpt_sets = col.ckpt_sets
        out: list[SuspicionChange] = []
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
            out.append(
                SuspicionChange(
                    time=col.times[local],
                    observer=observer,
                    added=frozenset(pids[d] for d in added_t),
                    removed=frozenset(pids[d] for d in removed_t),
                    suspects=frozenset(pids[d] for d in state),
                )
            )
        return out

    def suspects_at(self, observer: ProcessId, time: float) -> frozenset[ProcessId]:
        self._sync()
        col = self._lookup(observer)
        if col is None:
            return _EMPTY
        pos = bisect_right(col.times, time)
        if pos == 0:
            return _EMPTY
        pids = self._interner.pids
        return frozenset(pids[d] for d in self._state_dense(col, pos))

    @staticmethod
    def _transitions(col: _ObserverColumn) -> dict[int, array]:
        """Per-target transition index, extended to cover every record.

        Codes pack ``local_position << 2 | kind``.  A literal (test-authored)
        change may list a target as both added and removed; that folds into
        one kind-3 code so replay visits the record once, exactly like
        added/removed membership tests over a list of change objects.
        ``array('i')`` bounds local positions at 2**29 records per observer.
        """
        trans = col.transitions
        start = col.trans_len
        count = len(col.added)
        if start != count:
            added = col.added
            removed = col.removed
            for local in range(start, count):
                added_t = added[local]
                removed_t = removed[local]
                code = local << 2
                for d in added_t:
                    arr = trans.get(d)
                    if arr is None:
                        arr = trans[d] = array("i")
                    arr.append(code | (3 if d in removed_t else 1))
                for d in removed_t:
                    if d in added_t:
                        continue
                    arr = trans.get(d)
                    if arr is None:
                        arr = trans[d] = array("i")
                    arr.append(code | 2)
            col.trans_len = count
        return trans

    def first_suspicion_time(
        self, observer: ProcessId, target: ProcessId, *, after: float = 0.0
    ) -> float | None:
        self._sync()
        col = self._lookup(observer)
        if col is None:
            return None
        td = self._interner.dense.get(target)
        if td is None:
            return None
        trans = self._transitions(col).get(td)
        if trans is None:
            return None
        times = col.times
        for code in trans:
            if code & 1 and times[code >> 2] >= after:
                return times[code >> 2]
        return None

    def permanent_suspicion_time(
        self, observer: ProcessId, target: ProcessId
    ) -> float | None:
        self._sync()
        col = self._lookup(observer)
        if col is None:
            return None
        td = self._interner.dense.get(target)
        if td is None:
            return None
        trans = self._transitions(col).get(td)
        if trans is None:
            return None
        times = col.times
        start: float | None = None
        suspected = False
        for code in trans:
            if code & 1 and not suspected:
                suspected = True
                start = times[code >> 2]
            elif code & 2 and suspected:
                suspected = False
                start = None
        return start if suspected else None

    def suspicion_intervals(
        self, observer: ProcessId, target: ProcessId, *, horizon: float
    ) -> list[tuple[float, float]]:
        self._sync()
        intervals: list[tuple[float, float]] = []
        start: float | None = None
        col = self._lookup(observer)
        td = self._interner.dense.get(target) if col is not None else None
        trans = (
            self._transitions(col).get(td)
            if col is not None and td is not None
            else None
        )
        if trans is not None:
            times = col.times
            for code in trans:
                if code & 1 and start is None:
                    start = times[code >> 2]
                elif code & 2 and start is not None:
                    intervals.append((start, times[code >> 2]))
                    start = None
        if start is not None:
            intervals.append((start, horizon))
        return intervals

    def false_suspicion_count_at(
        self, time: float, crashed: frozenset[ProcessId]
    ) -> int:
        self._sync()
        pids = self._interner.pids
        count = 0
        for col in self._obs:
            if not col.times:
                continue
            pos = bisect_right(col.times, time)
            if pos == 0:
                continue
            state = self._state_dense(col, pos)
            count += sum(1 for d in state if pids[d] not in crashed)
        return count

    def targets_of(self, observer: ProcessId) -> frozenset[ProcessId]:
        self._sync()
        col = self._lookup(observer)
        if col is None:
            return _EMPTY
        pids = self._interner.pids
        return frozenset(pids[d] for d in col.targets)


class _ColumnarRounds:
    """Round records decomposed into scalar + flattened membership columns."""

    __slots__ = (
        "_interner",
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
        "_view",
        "_view_len",
    )

    def __init__(self, interner: _Interner) -> None:
        self._interner = interner
        self._clear()
        self._view: list[RoundRecord] | None = None
        self._view_len = 0

    def _clear(self) -> None:
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

    def _sync(self) -> None:
        view = self._view
        if view is not None and len(view) != self._view_len:
            self._clear()
            for rec in view:
                self._ingest(rec)
            self._view_len = len(view)

    def _ingest(self, rec: RoundRecord) -> None:
        intern = self._interner.intern
        dense = intern(rec.querier)
        index = len(self._round_id)
        self._querier.append(dense)
        self._round_id.append(rec.round_id)
        self._started.append(rec.started_at)
        self._quorum.append(rec.quorum_at)
        self._finished.append(rec.finished_at)
        resp = self._resp
        for pid in rec.responders:
            resp.append(intern(pid))
        self._resp_off.append(len(resp))
        win = self._win
        for pid in rec.winners:
            win.append(intern(pid))
        self._win_off.append(len(win))
        self._by_querier.setdefault(dense, []).append(index)

    def record(self, rec: RoundRecord) -> None:
        self._sync()
        self._ingest(rec)
        view = self._view
        if view is not None:
            view.append(rec)
            self._view_len += 1

    def _round(self, index: int) -> RoundRecord:
        pids = self._interner.pids
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

    def view(self) -> list[RoundRecord]:
        self._sync()
        if self._view is None:
            self._view = [self._round(i) for i in range(len(self._round_id))]
            self._view_len = len(self._view)
        return self._view

    def replace(self, value: list[RoundRecord]) -> None:
        self._clear()
        for rec in value:
            self._ingest(rec)
        self._view = value
        self._view_len = len(value)

    def rounds_of(self, querier: ProcessId) -> list[RoundRecord]:
        self._sync()
        dense = self._interner.dense.get(querier)
        if dense is None:
            return []
        return [self._round(i) for i in self._by_querier.get(dense, ())]


class TraceRecorder:
    """Append-only record store with indexed timeline queries.

    Suspicion changes and rounds go to the columnar stores (see module
    doc), which answer the timeline queries; crash, mobility, recovery and
    membership events are plain lists and messages are counters.
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

    def __init__(
        self, *, checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    ) -> None:
        interner = _Interner()
        self._changes = _ColumnarChanges(interner, checkpoint_interval)
        self._rounds = _ColumnarRounds(interner)
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
    def suspicion_changes(self) -> list[SuspicionChange]:
        return self._changes.view()

    @suspicion_changes.setter
    def suspicion_changes(self, value: list[SuspicionChange]) -> None:
        self._changes.replace(value)

    @property
    def rounds(self) -> list[RoundRecord]:
        return self._rounds.view()

    @rounds.setter
    def rounds(self, value: list[RoundRecord]) -> None:
        self._rounds.replace(value)

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
