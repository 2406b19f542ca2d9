"""The columnar trace store pinned to the object recorder, its oracle.

``tests/reference_trace.py`` holds the audited reference implementation
kept for differential debugging (see docs/trace.md) — the same pattern as
the scheduler's reference heap loop in ``test_wheel_vs_heap``.  Hypothesis
drives both recorders through identical operation scripts — interleaved
``record_suspicion_change`` appends (including *inconsistent* jumps whose
``before`` is not the previous ``after``, which force checkpoints in the
columnar store), wholesale ``suspicion_changes`` / ``rounds`` list
replacement with test-authored literals (overlapping added/removed sets,
delta-inconsistent ``suspects`` snapshots), in-place truncation of a held
view list, and round records — and every query observable must match:
``suspicion_changes``, ``changes_of``, ``suspects_at``, ``targets_of``,
``first_suspicion_time`` (several ``after`` cuts), ``permanent_suspicion_time``,
``suspicion_intervals``, ``false_suspicion_count_at``, ``rounds`` and
``rounds_of``.

Scripts keep times globally non-decreasing — that is the recording
contract both stores bisect under; unsorted hand-built lists have no
defined query semantics on either store.

Checkpoint intervals of 1/2/64 run the same scripts so both the
"checkpoint at every record" and "long delta replay" extremes are
exercised against the oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import RoundRecord, SuspicionChange, TraceRecorder
from tests.reference_trace import ReferenceTraceRecorder

OBSERVERS = tuple(range(1, 6))
TARGETS = tuple(range(1, 9))

_SET = st.frozensets(st.sampled_from(TARGETS), max_size=4)
_DT = st.sampled_from((0.0, 0.25, 1.0))

_OPS = st.lists(
    st.one_of(
        # append via the recording path: before is the tracked current set
        st.tuples(st.just("record"), st.sampled_from(OBSERVERS), _DT, _SET),
        # inconsistent jump: arbitrary before, exercises forced checkpoints
        st.tuples(st.just("jump"), st.sampled_from(OBSERVERS), _DT, _SET, _SET),
        # wholesale replacement with literal (possibly delta-inconsistent,
        # possibly added/removed-overlapping) changes
        st.tuples(
            st.just("replace"),
            st.lists(
                st.tuples(st.sampled_from(OBSERVERS), _DT, _SET, _SET, _SET),
                max_size=6,
            ),
        ),
        # in-place truncation of the held view list
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=16)),
        st.tuples(
            st.just("round"),
            st.sampled_from(OBSERVERS),
            _DT,
            st.lists(st.sampled_from(TARGETS), max_size=3),
            _SET,
        ),
        st.tuples(
            st.just("replace_rounds"),
            st.lists(
                st.tuples(
                    st.sampled_from(OBSERVERS),
                    _DT,
                    st.lists(st.sampled_from(TARGETS), max_size=3),
                ),
                max_size=4,
            ),
        ),
    ),
    min_size=1,
    max_size=20,
)


def _apply(trace: TraceRecorder, ops) -> None:
    """Drive one recorder through an operation script."""
    now = 0.0
    current: dict[int, frozenset] = {pid: frozenset() for pid in OBSERVERS}
    round_id = 0
    for op in ops:
        kind = op[0]
        if kind == "record":
            _, observer, dt, after = op
            now += dt
            trace.record_suspicion_change(now, observer, current[observer], after)
            current[observer] = after
        elif kind == "jump":
            _, observer, dt, before, after = op
            now += dt
            trace.record_suspicion_change(now, observer, before, after)
            current[observer] = after
        elif kind == "replace":
            _, rows = op
            changes = []
            t = 0.0
            for observer, dt, added, removed, suspects in rows:
                t += dt
                changes.append(
                    SuspicionChange(
                        time=t,
                        observer=observer,
                        added=added,
                        removed=removed,
                        suspects=suspects,
                    )
                )
            trace.suspicion_changes = changes
            now = max(now, t)
            current = {pid: frozenset() for pid in OBSERVERS}
            for change in changes:
                current[change.observer] = change.suspects
        elif kind == "truncate":
            _, keep = op
            view = trace.suspicion_changes
            del view[keep:]
            current = {pid: frozenset() for pid in OBSERVERS}
            for change in view:
                current[change.observer] = change.suspects
        elif kind == "round":
            _, querier, dt, responders, winners = op
            now += dt
            round_id += 1
            trace.record_round(
                RoundRecord(
                    querier=querier,
                    round_id=round_id,
                    started_at=now,
                    quorum_at=now + 0.1,
                    finished_at=now + 0.2,
                    responders=tuple(responders),
                    winners=frozenset(winners),
                )
            )
        elif kind == "replace_rounds":
            _, rows = op
            rounds = []
            t = 0.0
            for querier, dt, responders in rows:
                t += dt
                rounds.append(
                    RoundRecord(
                        querier=querier,
                        round_id=len(rounds),
                        started_at=t,
                        quorum_at=t,
                        finished_at=t + 0.5,
                        responders=tuple(responders),
                        winners=frozenset(responders),
                    )
                )
            trace.rounds = rounds


def _observe(trace: TraceRecorder) -> list:
    """Every query observable, in a comparable structure."""
    times = (0.0, 0.1, 0.75, 2.0, 5.0, 100.0)
    out: list = [list(trace.suspicion_changes), list(trace.rounds)]
    for observer in OBSERVERS:
        out.append(trace.changes_of(observer))
        out.append(trace.targets_of(observer))
        out.append(trace.rounds_of(observer))
        out.append([trace.suspects_at(observer, t) for t in times])
        for target in TARGETS:
            out.append(
                [
                    trace.first_suspicion_time(observer, target),
                    trace.first_suspicion_time(observer, target, after=0.5),
                    trace.first_suspicion_time(observer, target, after=3.0),
                    trace.permanent_suspicion_time(observer, target),
                    trace.suspicion_intervals(observer, target, horizon=100.0),
                ]
            )
    for t in times:
        out.append(trace.false_suspicion_count_at(t, frozenset()))
        out.append(trace.false_suspicion_count_at(t, frozenset({1, 3})))
    return out


@settings(max_examples=120, deadline=None)
@given(ops=_OPS, interval=st.sampled_from((1, 2, 64)))
def test_columnar_matches_object_oracle(ops, interval):
    columnar = TraceRecorder(checkpoint_interval=interval)
    oracle = ReferenceTraceRecorder()
    _apply(columnar, ops)
    _apply(oracle, ops)
    assert _observe(columnar) == _observe(oracle)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, interval=st.sampled_from((1, 2, 64)))
def test_columnar_view_survives_reobservation(ops, interval):
    """Observing twice (views materialized, caches warm) changes nothing."""
    columnar = TraceRecorder(checkpoint_interval=interval)
    oracle = ReferenceTraceRecorder()
    _apply(columnar, ops)
    _apply(oracle, ops)
    first = _observe(columnar)
    assert _observe(columnar) == first == _observe(oracle)
