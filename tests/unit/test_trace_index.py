"""Property tests: indexed timeline queries == the old linear-scan results.

The per-observer trace index must be observationally invisible: for every
query and every (time-ordered, as the scheduler guarantees) trace, the
indexed implementation returns results identical to the pre-index
full-trace scans.  The originals are kept here verbatim as private
reference oracles and both are run over randomized traces.

Every test runs under both the columnar store and the object-recorder
oracle (``tests/reference_trace.py``) — the reference scans read the
materialized ``suspicion_changes`` view, which both must serve identically.
"""

import random

import pytest

from repro.sim.trace import TraceRecorder
from tests.reference_trace import ReferenceTraceRecorder


@pytest.fixture(params=[TraceRecorder, ReferenceTraceRecorder], ids=["columnar", "object"])
def recorder(request):
    return request.param

# ---------------------------------------------------------------------------
# reference oracles: the pre-index linear-scan implementations, verbatim
# ---------------------------------------------------------------------------


def _ref_changes_of(trace, observer):
    return [c for c in trace.suspicion_changes if c.observer == observer]


def _ref_suspects_at(trace, observer, time):
    result = frozenset()
    for change in trace.suspicion_changes:
        if change.time > time:
            break
        if change.observer == observer:
            result = change.suspects
    return result


def _ref_first_suspicion_time(trace, observer, target, *, after=0.0):
    for change in trace.suspicion_changes:
        if change.time < after or change.observer != observer:
            continue
        if target in change.added:
            return change.time
    return None


def _ref_permanent_suspicion_time(trace, observer, target):
    start = None
    suspected = False
    for change in trace.suspicion_changes:
        if change.observer != observer:
            continue
        if target in change.added and not suspected:
            suspected = True
            start = change.time
        elif target in change.removed and suspected:
            suspected = False
            start = None
    return start if suspected else None


def _ref_suspicion_intervals(trace, observer, target, *, horizon):
    intervals = []
    start = None
    for change in trace.suspicion_changes:
        if change.observer != observer:
            continue
        if target in change.added and start is None:
            start = change.time
        elif target in change.removed and start is not None:
            intervals.append((start, change.time))
            start = None
    if start is not None:
        intervals.append((start, horizon))
    return intervals


def _ref_false_suspicion_count_at(trace, time, crashed):
    count = 0
    per_observer = {}
    for change in trace.suspicion_changes:
        if change.time > time:
            break
        per_observer[change.observer] = change.suspects
    for suspects in per_observer.values():
        count += sum(1 for target in suspects if target not in crashed)
    return count


def _ref_rounds_of(trace, querier):
    return [r for r in trace.rounds if r.querier == querier]


# ---------------------------------------------------------------------------
# randomized traces
# ---------------------------------------------------------------------------


def random_trace(seed, *, observers=6, changes=120, recorder=TraceRecorder):
    """A time-ordered random trace, as the simulator would record it."""
    rng = random.Random(seed)
    ids = list(range(1, observers + 1))
    trace = recorder()
    current = {pid: frozenset() for pid in ids}
    now = 0.0
    for _ in range(changes):
        now += rng.choice([0.0, rng.random()])  # duplicate timestamps too
        observer = rng.choice(ids)
        after = frozenset(rng.sample(ids, rng.randrange(0, observers)))
        trace.record_suspicion_change(now, observer, current[observer], after)
        current[observer] = after
    return trace, ids, now


QUERY_TIMES = [0.0, 0.5, 3.7, 1e9]


@pytest.mark.parametrize("seed", range(12))
def test_indexed_queries_match_linear_scan_oracles(seed, recorder):
    trace, ids, end = random_trace(seed, recorder=recorder)
    horizon = end + 1.0
    sample_times = QUERY_TIMES + [end * f for f in (0.25, 0.5, 0.75, 1.0)]
    for observer in ids:
        assert trace.changes_of(observer) == _ref_changes_of(trace, observer)
        for t in sample_times:
            assert trace.suspects_at(observer, t) == _ref_suspects_at(
                trace, observer, t
            )
        for target in ids:
            assert trace.first_suspicion_time(observer, target) == (
                _ref_first_suspicion_time(trace, observer, target)
            )
            for after in sample_times:
                assert trace.first_suspicion_time(
                    observer, target, after=after
                ) == _ref_first_suspicion_time(trace, observer, target, after=after)
            assert trace.permanent_suspicion_time(observer, target) == (
                _ref_permanent_suspicion_time(trace, observer, target)
            )
            assert trace.suspicion_intervals(
                observer, target, horizon=horizon
            ) == _ref_suspicion_intervals(trace, observer, target, horizon=horizon)
    crash_sets = [frozenset(), frozenset(ids[:2]), frozenset(ids)]
    for t in sample_times:
        for crashed in crash_sets:
            assert trace.false_suspicion_count_at(t, crashed) == (
                _ref_false_suspicion_count_at(trace, t, crashed)
            )


@pytest.mark.parametrize("seed", range(4))
def test_index_stays_correct_across_interleaved_appends_and_reads(seed, recorder):
    """Reads may interleave with appends: the index must pick up new tail."""
    rng = random.Random(seed)
    ids = [1, 2, 3]
    trace = recorder()
    current = {pid: frozenset() for pid in ids}
    now = 0.0
    for step in range(60):
        now += rng.random()
        observer = rng.choice(ids)
        after = frozenset(rng.sample(ids, rng.randrange(0, 3)))
        trace.record_suspicion_change(now, observer, current[observer], after)
        current[observer] = after
        if step % 7 == 0:  # read mid-append: index must extend incrementally
            for obs in ids:
                assert trace.suspects_at(obs, now) == _ref_suspects_at(
                    trace, obs, now
                )
                assert trace.changes_of(obs) == _ref_changes_of(trace, obs)
    for obs in ids:
        for target in ids:
            assert trace.permanent_suspicion_time(obs, target) == (
                _ref_permanent_suspicion_time(trace, obs, target)
            )


def test_rounds_index_matches_linear_scan(recorder):
    from repro.sim.trace import RoundRecord

    rng = random.Random(7)
    trace = recorder()
    for i in range(40):
        querier = rng.choice([1, 2, 3])
        trace.record_round(
            RoundRecord(querier, i, float(i), i + 0.1, i + 0.2, (1, 2), frozenset())
        )
        if i % 9 == 0:
            for q in (1, 2, 3):
                assert trace.rounds_of(q) == _ref_rounds_of(trace, q)
    for q in (1, 2, 3, 4):
        assert trace.rounds_of(q) == _ref_rounds_of(trace, q)
