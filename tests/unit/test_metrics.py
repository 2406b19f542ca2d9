"""Unit tests for the QoS metrics over hand-built traces."""

import pytest

from repro.errors import ExperimentError
from repro.metrics import (
    accuracy_stabilization,
    detection_stats,
    false_suspicion_series,
    message_load,
    mistake_stats,
)
from repro.sim.faults import CrashFault, FaultPlan
from repro.sim.trace import TraceRecorder


def trace_with(observer_events):
    """observer_events: {observer: [(time, suspects_after), ...]}"""
    trace = TraceRecorder()
    for observer, events in observer_events.items():
        previous = frozenset()
        for time, suspects in events:
            suspects = frozenset(suspects)
            trace.record_suspicion_change(time, observer, previous, suspects)
            previous = suspects
    return trace


def windows_of(trace, crashes, members, horizon=20.0):
    plan = FaultPlan.of(crashes=[CrashFault(pid, at) for pid, at in crashes])
    return detection_stats(trace, plan, members, horizon=horizon)


class TestDetectionStats:
    def test_latencies_per_observer(self):
        trace = trace_with({1: [(12.0, {9})], 2: [(13.5, {9})]})
        [stats] = windows_of(trace, [(9, 10.0)], [1, 2, 9])
        assert stats.latencies == {1: 2.0, 2: 3.5}
        assert stats.detected_by_all
        assert stats.min_latency == 2.0
        assert stats.mean_latency == pytest.approx(2.75)
        assert stats.max_latency == 3.5

    def test_undetected_observer_is_reported(self):
        trace = trace_with({1: [(12.0, {9})]})
        [stats] = windows_of(trace, [(9, 10.0)], [1, 2, 9])
        assert stats.undetected == frozenset({2})
        assert not stats.detected_by_all

    def test_revoked_suspicion_does_not_count(self):
        trace = trace_with({1: [(12.0, {9}), (13.0, set())]})
        [stats] = windows_of(trace, [(9, 10.0)], [1, 9])
        assert stats.undetected == frozenset({1})

    def test_pre_crash_suspicion_floors_latency_at_zero(self):
        # Observer suspected 9 before it actually crashed and never revoked.
        trace = trace_with({1: [(8.0, {9})]})
        [stats] = windows_of(trace, [(9, 10.0)], [1, 9])
        assert stats.latencies[1] == 0.0

    def test_crashed_observer_is_skipped(self):
        trace = trace_with({1: [(12.0, {9})]})
        [stats] = windows_of(trace, [(9, 10.0)], [1, 9])
        assert 9 not in stats.latencies
        assert 9 not in stats.undetected

    def test_every_crash_gets_a_window(self):
        trace = trace_with(
            {
                1: [(12.0, {9}), (22.0, {9, 8})],
                8: [(12.5, {9})],
            }
        )
        stats = windows_of(trace, [(9, 10.0), (8, 20.0)], [1, 8, 9], horizon=30.0)
        assert len(stats) == 2
        assert stats[0].crashed == 9
        # Only process 1 is correct for the second crash.
        assert set(stats[1].latencies) == {1}


class TestMistakeStats:
    def test_counts_and_durations(self):
        trace = trace_with(
            {
                1: [(1.0, {2}), (3.0, set())],  # one 2-second mistake
                2: [(5.0, {1})],  # open until horizon
            }
        )
        stats = mistake_stats(trace, FaultPlan.none(), [1, 2], horizon=10.0)
        assert stats.count == 2
        assert stats.total_duration == pytest.approx(2.0 + 5.0)
        assert stats.mean_duration == pytest.approx(3.5)
        assert stats.unresolved == 1
        assert stats.rate == pytest.approx(0.2)

    def test_crashed_targets_are_excluded(self):
        trace = trace_with({1: [(1.0, {9})]})
        plan = FaultPlan.of(crashes=[CrashFault(9, 0.5)])
        stats = mistake_stats(trace, plan, [1, 2, 9], horizon=10.0)
        assert stats.count == 0

    def test_no_mistakes(self):
        stats = mistake_stats(TraceRecorder(), FaultPlan.none(), [1, 2], horizon=10.0)
        assert stats.count == 0
        assert stats.mean_duration is None


class TestPairQoS:
    """One monitored pair's QoS, read off the two scorers."""

    def test_mistakes_only_before_crash(self):
        trace = trace_with({1: [(1.0, {9}), (2.0, set()), (12.0, {9})]})
        plan = FaultPlan.of(crashes=[CrashFault(9, 10.0)])
        mistakes = mistake_stats(trace, plan, [1, 9], horizon=20.0)
        assert mistakes.count == 1
        assert mistakes.total_duration == pytest.approx(1.0)
        [window] = detection_stats(trace, plan, [1, 9], horizon=20.0)
        assert window.latencies == {1: pytest.approx(2.0)}

    def test_no_crash_means_no_detection_time(self):
        trace = trace_with({1: [(1.0, {9}), (2.0, set())]})
        assert detection_stats(trace, FaultPlan.none(), [1, 9], horizon=20.0) == []
        mistakes = mistake_stats(trace, FaultPlan.none(), [1, 9], horizon=20.0)
        assert mistakes.rate == pytest.approx(1 / 20.0)

    def test_query_accuracy_probability(self):
        # Two ordered pairs over 10 s; 1 wrongly suspects 9 for half of it.
        trace = trace_with({1: [(0.0, {9}), (5.0, set())]})
        mistakes = mistake_stats(trace, FaultPlan.none(), [1, 9], horizon=10.0)
        assert mistakes.query_accuracy_probability == pytest.approx(0.75)

    def test_invalid_horizon(self):
        with pytest.raises(ExperimentError):
            mistake_stats(TraceRecorder(), FaultPlan.none(), [1, 2], horizon=0.0)
        with pytest.raises(ExperimentError):
            detection_stats(TraceRecorder(), FaultPlan.none(), [1, 2], horizon=0.0)


class TestAccuracyStabilization:
    def test_never_suspected_process_stabilizes_at_zero(self):
        trace = trace_with({1: [(1.0, {2})], 2: []})
        result = accuracy_stabilization(trace, correct=[1, 2, 3], horizon=10.0)
        assert result[3] == 0.0

    def test_resolved_suspicion_stabilizes_at_interval_end(self):
        trace = trace_with({1: [(1.0, {2}), (4.0, set())]})
        result = accuracy_stabilization(trace, correct=[1, 2], horizon=10.0)
        assert result[2] == 4.0

    def test_open_suspicion_never_stabilizes(self):
        trace = trace_with({1: [(1.0, {2})]})
        result = accuracy_stabilization(trace, correct=[1, 2], horizon=10.0)
        assert result[2] is None


class TestSeriesAndLoad:
    def test_false_suspicion_series(self):
        trace = trace_with({1: [(5.0, {2}), (8.0, set())]})
        plan = FaultPlan.none()
        series = false_suspicion_series(trace, [4.0, 6.0, 9.0], plan)
        assert series == [(4.0, 0), (6.0, 1), (9.0, 0)]

    def test_series_accounts_for_crashes_becoming_true(self):
        trace = trace_with({1: [(5.0, {2})]})
        plan = FaultPlan.of(crashes=[CrashFault(2, 7.0)])
        series = false_suspicion_series(trace, [6.0, 8.0], plan)
        assert series == [(6.0, 1), (8.0, 0)]

    def test_message_load(self):
        trace = TraceRecorder()
        for _ in range(100):
            trace.record_message("fd.query", 1)
        for _ in range(50):
            trace.record_message("fd.response", 2)
        load = message_load(trace, horizon=10.0, n=5)
        assert load["fd.query"] == pytest.approx(2.0)
        assert load["fd.response"] == pytest.approx(1.0)
        assert load["total"] == pytest.approx(3.0)

    def test_message_load_validation(self):
        with pytest.raises(ExperimentError):
            message_load(TraceRecorder(), horizon=0.0, n=5)
