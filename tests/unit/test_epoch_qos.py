"""Unit tests for epoch-aware QoS scoring: suspicion intervals are judged
against the fault plan's alive intervals, so suspecting a node that is
down-but-will-recover is *correct* until the recovery instant."""

import pytest

from repro.metrics import (
    MistakeStats,
    detection_stats,
    mistake_stats,
)
from repro.sim.faults import (
    CrashFault,
    FaultPlan,
    LeaveFault,
    RecoveryFault,
)
from repro.sim.trace import TraceRecorder

MEMBERS = (1, 2, 3)
EMPTY = frozenset()


def record_suspicion(trace, observer, target, start, end=None):
    trace.record_suspicion_change(start, observer, EMPTY, frozenset({target}))
    if end is not None:
        trace.record_suspicion_change(end, observer, frozenset({target}), EMPTY)


class TestEpochMistakeStats:
    def test_no_suspicions_is_perfect(self):
        trace = TraceRecorder()
        stats = mistake_stats(
            trace, FaultPlan.none(), MEMBERS, horizon=10.0
        )
        assert isinstance(stats, MistakeStats)
        assert stats.count == 0
        assert stats.total_duration == 0.0
        assert stats.query_accuracy_probability == 1.0
        # 6 ordered pairs alive the whole horizon
        assert stats.alive_pair_time == pytest.approx(60.0)

    def test_false_suspicion_counts(self):
        trace = TraceRecorder()
        record_suspicion(trace, 1, 2, 2.0, 5.0)
        stats = mistake_stats(
            trace, FaultPlan.none(), MEMBERS, horizon=10.0
        )
        assert stats.count == 1
        assert stats.total_duration == pytest.approx(3.0)
        assert stats.query_accuracy_probability == pytest.approx(1.0 - 3.0 / 60.0)

    def test_suspicion_of_down_node_is_not_a_mistake(self):
        plan = FaultPlan.of(recoveries=[RecoveryFault(2, crash=3.0, recover=7.0)])
        trace = TraceRecorder()
        # Suspected exactly while down: zero mistake time.
        record_suspicion(trace, 1, 2, 3.0, 7.0)
        stats = mistake_stats(trace, plan, MEMBERS, horizon=10.0)
        assert stats.count == 0
        assert stats.total_duration == 0.0

    def test_suspicion_overhanging_recovery_is_partially_wrong(self):
        plan = FaultPlan.of(recoveries=[RecoveryFault(2, crash=3.0, recover=7.0)])
        trace = TraceRecorder()
        # Suspicion [3, 9): wrong only on [7, 9) after the recovery.
        record_suspicion(trace, 1, 2, 3.0, 9.0)
        stats = mistake_stats(trace, plan, MEMBERS, horizon=10.0)
        assert stats.count == 1
        assert stats.total_duration == pytest.approx(2.0)

    def test_dead_observer_cannot_be_wrong(self):
        plan = FaultPlan.of(crashes=[CrashFault(1, 4.0)])
        trace = TraceRecorder()
        # Observer 1 is down from t=4; its lingering suspicion stops counting.
        record_suspicion(trace, 1, 2, 2.0)  # never withdrawn
        stats = mistake_stats(trace, plan, MEMBERS, horizon=10.0)
        assert stats.total_duration == pytest.approx(2.0)  # only [2, 4)

    def test_alive_pair_time_shrinks_with_downtime(self):
        plan = FaultPlan.of(crashes=[CrashFault(3, 5.0)])
        trace = TraceRecorder()
        stats = mistake_stats(trace, plan, MEMBERS, horizon=10.0)
        # Pairs within {1,2}: 2 * 10.  Pairs touching 3: 4 * 5.
        assert stats.alive_pair_time == pytest.approx(20.0 + 20.0)


class TestEpochDetectionStats:
    def test_terminal_crash_uses_permanent_suspicion(self):
        plan = FaultPlan.of(crashes=[CrashFault(3, 4.0)])
        trace = TraceRecorder()
        record_suspicion(trace, 1, 3, 5.0)
        record_suspicion(trace, 2, 3, 6.0)
        windows = detection_stats(trace, plan, MEMBERS, horizon=10.0)
        assert len(windows) == 1
        window = windows[0]
        assert window.crashed == 3
        assert window.crash_time == 4.0
        assert window.latencies == {1: pytest.approx(1.0), 2: pytest.approx(2.0)}
        assert window.mean_latency == pytest.approx(1.5)
        assert window.detected_by_all

    def test_terminal_crash_ignores_withdrawn_suspicion(self):
        plan = FaultPlan.of(crashes=[CrashFault(3, 4.0)])
        trace = TraceRecorder()
        record_suspicion(trace, 1, 3, 5.0, 6.0)  # withdrawn: not permanent
        record_suspicion(trace, 2, 3, 6.0)
        windows = detection_stats(trace, plan, MEMBERS, horizon=10.0)
        window = windows[0]
        assert window.undetected == frozenset({1})
        assert not window.detected_by_all

    def test_transient_window_uses_first_overlapping_suspicion(self):
        plan = FaultPlan.of(recoveries=[RecoveryFault(3, crash=4.0, recover=8.0)])
        trace = TraceRecorder()
        # Flickered before the crash, then genuinely detected at 5.5 —
        # withdrawal after the recovery still counts as a detection.
        record_suspicion(trace, 1, 3, 1.0, 2.0)
        record_suspicion(trace, 1, 3, 5.5, 8.2)
        windows = detection_stats(trace, plan, MEMBERS, horizon=10.0)
        assert len(windows) == 1
        window = windows[0]
        assert window.crash_time == 4.0
        assert window.latencies == {1: pytest.approx(1.5)}
        assert window.undetected == frozenset({2})

    def test_undetected_transient_window(self):
        plan = FaultPlan.of(recoveries=[RecoveryFault(3, crash=4.0, recover=8.0)])
        trace = TraceRecorder()
        windows = detection_stats(trace, plan, MEMBERS, horizon=10.0)
        assert windows[0].latencies == {}
        assert windows[0].undetected == frozenset({1, 2})

    def test_observer_set_excludes_the_departed(self):
        plan = FaultPlan.of(
            crashes=[CrashFault(3, 4.0)], leaves=[LeaveFault(2, 1.0)]
        )
        trace = TraceRecorder()
        record_suspicion(trace, 1, 3, 5.0)
        windows = detection_stats(trace, plan, MEMBERS, horizon=10.0)
        crash_window = next(w for w in windows if w.crashed == 3)
        # Only 1 is a correct observer at the end of 3's window.
        assert set(crash_window.latencies) | crash_window.undetected == {1}
        assert crash_window.latencies == {1: pytest.approx(1.0)}

    def test_one_window_per_down_interval(self):
        plan = FaultPlan.of(
            recoveries=[
                RecoveryFault(3, crash=2.0, recover=4.0),
                RecoveryFault(3, crash=6.0, recover=8.0),
            ]
        )
        trace = TraceRecorder()
        windows = detection_stats(trace, plan, MEMBERS, horizon=10.0)
        assert [(w.crashed, w.crash_time) for w in windows] == [(3, 2.0), (3, 6.0)]


class TestEpochEdgeCases:
    def test_everything_down_means_perfect_accuracy(self):
        plan = FaultPlan.of(crashes=[CrashFault(pid, 0.0) for pid in MEMBERS])
        trace = TraceRecorder()
        stats = mistake_stats(trace, plan, MEMBERS, horizon=10.0)
        assert stats.alive_pair_time == 0.0
        assert stats.query_accuracy_probability == 1.0

    def test_unresolved_suspicion_clips_to_horizon(self):
        trace = TraceRecorder()
        record_suspicion(trace, 1, 2, 8.0)  # never withdrawn
        stats = mistake_stats(trace, FaultPlan.none(), MEMBERS, horizon=10.0)
        assert stats.total_duration == pytest.approx(2.0)
        assert stats.unresolved == 1

    def test_rate_is_per_horizon_second(self):
        trace = TraceRecorder()
        record_suspicion(trace, 1, 2, 1.0, 2.0)
        record_suspicion(trace, 1, 2, 4.0, 5.0)
        stats = mistake_stats(trace, FaultPlan.none(), MEMBERS, horizon=10.0)
        assert stats.count == 2
        assert stats.rate == pytest.approx(0.2)
        assert stats.mean_duration == pytest.approx(1.0)

    def test_crash_only_plan_matches_legacy_down_at(self):
        plan = FaultPlan.of(crashes=[CrashFault(2, 5.0)])
        for t in (0.0, 4.999):
            assert plan.down_at(t) == frozenset()
        for t in (5.0, 7.5, 1e9):
            assert plan.down_at(t) == frozenset({2})

    def test_instant_suspicion_of_an_up_target_is_a_mistake(self):
        # Suspected and withdrawn at one instant: one mistake of length 0.
        trace = TraceRecorder()
        record_suspicion(trace, 1, 2, 3.0, 3.0)
        stats = mistake_stats(trace, FaultPlan.none(), MEMBERS, horizon=10.0)
        assert (stats.count, stats.total_duration, stats.unresolved) == (1, 0.0, 0)

    def test_instant_suspicion_of_a_down_target_is_not(self):
        plan = FaultPlan.of(recoveries=[RecoveryFault(2, crash=3.0, recover=7.0)])
        trace = TraceRecorder()
        record_suspicion(trace, 1, 2, 3.0, 3.0)
        record_suspicion(trace, 1, 2, 7.0, 7.0)  # up again at its recovery
        stats = mistake_stats(trace, plan, MEMBERS, horizon=10.0)
        assert stats.count == 1

    def test_suspicion_begun_at_the_horizon_is_unresolved(self):
        trace = TraceRecorder()
        record_suspicion(trace, 1, 2, 10.0)
        stats = mistake_stats(trace, FaultPlan.none(), MEMBERS, horizon=10.0)
        assert (stats.count, stats.total_duration, stats.unresolved) == (1, 0.0, 1)


class TestWindowOrder:
    def test_processes_in_the_order_the_plan_names_them(self):
        plan = FaultPlan.of(
            crashes=[CrashFault(3, 6.0), CrashFault(1, 2.0)],
            recoveries=[
                RecoveryFault(2, crash=5.0, recover=6.0),
                RecoveryFault(2, crash=1.0, recover=2.0),
            ],
        )
        windows = detection_stats(TraceRecorder(), plan, (1, 2, 3, 4), horizon=10.0)
        assert [(w.crashed, w.crash_time) for w in windows] == [
            (3, 6.0), (1, 2.0), (2, 1.0), (2, 5.0)
        ]

    def test_processes_outside_the_membership_are_not_scored(self):
        plan = FaultPlan.of(crashes=[CrashFault(9, 1.0), CrashFault(3, 2.0)])
        windows = detection_stats(TraceRecorder(), plan, MEMBERS, horizon=10.0)
        assert [w.crashed for w in windows] == [3]
