"""Unit tests for trace recording and timeline queries.

Every query test runs against both stores — the production columnar
recorder and the object-recorder oracle in ``tests/reference_trace.py`` —
via the ``trace`` fixture, so the two can never drift on the documented
semantics.
"""

import pytest

from repro.sim.trace import TraceRecorder
from tests.reference_trace import ReferenceTraceRecorder


@pytest.fixture(params=[TraceRecorder, ReferenceTraceRecorder], ids=["columnar", "object"])
def trace(request):
    return request.param()


def record_seq(trace, observer, *events):
    """events: (time, suspects_after) pairs; deltas are derived."""
    previous = frozenset()
    for time, suspects in events:
        suspects = frozenset(suspects)
        trace.record_suspicion_change(time, observer, previous, suspects)
        previous = suspects


class TestSuspicionChanges:
    def test_no_op_change_is_dropped(self, trace):
        result = trace.record_suspicion_change(1.0, 1, frozenset({2}), frozenset({2}))
        assert result is None
        assert trace.suspicion_changes == ()

    def test_delta_computation(self, trace):
        change = trace.record_suspicion_change(
            1.0, 1, frozenset({2}), frozenset({3})
        )
        assert change.added == frozenset({3})
        assert change.removed == frozenset({2})

    def test_suspects_at_interpolates(self, trace):
        record_seq(trace, 1, (1.0, {5}), (2.0, set()), (3.0, {5, 6}))
        assert trace.suspects_at(1, 0.5) == frozenset()
        assert trace.suspects_at(1, 1.5) == frozenset({5})
        assert trace.suspects_at(1, 2.5) == frozenset()
        assert trace.suspects_at(1, 99.0) == frozenset({5, 6})

    def test_suspects_at_is_per_observer(self, trace):
        record_seq(trace, 1, (1.0, {5}))
        record_seq(trace, 2, (1.0, {6}))
        assert trace.suspects_at(1, 2.0) == frozenset({5})
        assert trace.suspects_at(2, 2.0) == frozenset({6})

    def test_first_suspicion_time(self, trace):
        record_seq(trace, 1, (1.0, {5}), (2.0, set()), (3.0, {5}))
        assert trace.first_suspicion_time(1, 5) == 1.0
        assert trace.first_suspicion_time(1, 5, after=1.5) == 3.0
        assert trace.first_suspicion_time(1, 9) is None

    def test_targets_of_unions_added(self, trace):
        record_seq(trace, 1, (1.0, {5}), (2.0, {5, 6}), (3.0, set()))
        assert trace.targets_of(1) == frozenset({5, 6})
        assert trace.targets_of(2) == frozenset()

    @pytest.mark.parametrize("view", ["suspicion_changes", "rounds"])
    def test_views_are_read_only_tuples(self, trace, view):
        """``record_*`` is the only way in: a view cannot be assigned."""
        record_seq(trace, 1, (1.0, {5}))
        assert isinstance(getattr(trace, view), tuple)
        with pytest.raises(AttributeError):
            setattr(trace, view, [])

    def test_view_grows_with_the_store(self, trace):
        record_seq(trace, 1, (1.0, {5}))
        first = trace.suspicion_changes
        trace.record_suspicion_change(2.0, 1, frozenset({5}), frozenset())
        assert trace.suspicion_changes[:1] == first
        assert len(first) == 1 and len(trace.suspicion_changes) == 2


def test_columnar_view_is_rebuilt_only_after_growth():
    trace = TraceRecorder()
    record_seq(trace, 1, (1.0, {5}))
    first = trace.suspicion_changes
    assert trace.suspicion_changes is first
    trace.record_suspicion_change(2.0, 1, frozenset({5}), frozenset())
    assert trace.suspicion_changes is not first


class TestPermanentSuspicion:
    def test_unrevoked_suspicion_is_permanent(self, trace):
        record_seq(trace, 1, (2.0, {5}))
        assert trace.permanent_suspicion_time(1, 5) == 2.0

    def test_revoked_suspicion_is_not_permanent(self, trace):
        record_seq(trace, 1, (2.0, {5}), (3.0, set()))
        assert trace.permanent_suspicion_time(1, 5) is None

    def test_final_interval_wins(self, trace):
        record_seq(trace, 1, (2.0, {5}), (3.0, set()), (7.0, {5}))
        assert trace.permanent_suspicion_time(1, 5) == 7.0


class TestIntervals:
    def test_closed_and_open_intervals(self, trace):
        record_seq(trace, 1, (1.0, {5}), (2.0, set()), (4.0, {5}))
        intervals = trace.suspicion_intervals(1, 5, horizon=10.0)
        assert intervals == [(1.0, 2.0), (4.0, 10.0)]

    def test_no_suspicion_no_intervals(self, trace):
        assert trace.suspicion_intervals(1, 5, horizon=10.0) == []


class TestFalseSuspicionCount:
    def test_counts_only_live_targets(self, trace):
        record_seq(trace, 1, (1.0, {5, 6}))
        record_seq(trace, 2, (1.0, {5}))
        assert trace.false_suspicion_count_at(2.0, crashed=frozenset()) == 3
        assert trace.false_suspicion_count_at(2.0, crashed=frozenset({5})) == 1

    def test_respects_sample_time(self, trace):
        record_seq(trace, 1, (5.0, {9}))
        assert trace.false_suspicion_count_at(4.0, crashed=frozenset()) == 0
        assert trace.false_suspicion_count_at(5.0, crashed=frozenset()) == 1


class TestMessagesAndEvents:
    def test_message_counters(self, trace):
        trace.record_message("fd.query", 1)
        trace.record_message("fd.query", 2)
        trace.record_message("fd.response", 1)
        assert trace.messages_total == 3
        assert trace.messages_by_kind["fd.query"] == 2
        assert trace.messages_by_sender[1] == 2

    def test_drop_counters(self, trace):
        trace.record_drop()
        trace.record_drops(3)
        assert trace.messages_dropped == 4

    def test_crash_queries(self, trace):
        trace.record_crash(4.0, 7)
        assert trace.crash_time_of(7) == 4.0
        assert trace.crash_time_of(8) is None
        assert trace.crashed_processes() == frozenset({7})

    def test_crash_index_tracks_later_records(self, trace):
        """A crash recorded after a query is seen by the next query."""
        trace.record_crash(4.0, 7)
        assert trace.crash_time_of(7) == 4.0  # a query before the later records
        trace.record_crash(6.0, 8)
        assert trace.crash_time_of(8) == 6.0
        # First crash of a process wins, matching the linear-scan semantics.
        trace.record_crash(9.0, 7)
        assert trace.crash_time_of(7) == 4.0

    def test_rounds_of_filters_querier(self, trace):
        from repro.sim.trace import RoundRecord

        trace.record_round(
            RoundRecord(1, 1, 0.0, 0.1, 0.2, (1, 2), frozenset({1, 2}))
        )
        trace.record_round(
            RoundRecord(2, 1, 0.0, 0.1, 0.2, (2, 1), frozenset({2, 1}))
        )
        assert len(trace.rounds_of(1)) == 1
