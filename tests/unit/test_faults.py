"""Unit tests for fault plans."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.faults import (
    CrashFault,
    FaultPlan,
    JoinFault,
    LeaveFault,
    LossBurst,
    MobilityFault,
    PartitionFault,
    RecoveryFault,
    uniform_crashes,
)


class TestCrashFault:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            CrashFault(1, -1.0)

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.of(crashes=[CrashFault(1, 1.0), CrashFault(1, 2.0)])


class TestMobilityFault:
    def test_arrival_must_follow_departure(self):
        with pytest.raises(ConfigurationError):
            MobilityFault(1, depart=5.0, arrive=5.0)

    def test_never_returning_is_allowed(self):
        fault = MobilityFault(1, depart=5.0, arrive=None)
        assert fault.arrive is None


class TestGroundTruth:
    def test_correct_processes(self):
        plan = FaultPlan.of(crashes=[CrashFault(2, 1.0)])
        assert plan.correct_processes([1, 2, 3]) == frozenset({1, 3})

    def test_a_crash_is_a_down_window_that_never_closes(self):
        plan = FaultPlan.of(crashes=[CrashFault(2, 1.5)])
        assert plan.down_intervals(2) == ((1.5, math.inf),)
        assert plan.down_intervals(1) == ()

    def test_empty_plan(self):
        plan = FaultPlan.none()
        assert plan.crashed_processes() == frozenset()


class TestValidation:
    def test_too_many_crashes_for_f(self):
        plan = FaultPlan.of(crashes=[CrashFault(1, 1.0), CrashFault(2, 2.0)])
        with pytest.raises(ConfigurationError):
            plan.validate_against([1, 2, 3], f=1)

    def test_non_member_crash(self):
        plan = FaultPlan.of(crashes=[CrashFault(9, 1.0)])
        with pytest.raises(ConfigurationError):
            plan.validate_against([1, 2, 3], f=1)

    def test_non_member_move(self):
        plan = FaultPlan.of(moves=[MobilityFault(9, 1.0, 2.0)])
        with pytest.raises(ConfigurationError):
            plan.validate_against([1, 2, 3], f=1)

    def test_valid_plan_passes(self):
        plan = FaultPlan.of(crashes=[CrashFault(1, 1.0)])
        plan.validate_against([1, 2, 3], f=1)


class TestMobilityAfterCrash:
    """Regression: a move scheduled at/after the mover's crash is nonsense."""

    def test_depart_after_crash_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot move"):
            FaultPlan.of(
                crashes=[CrashFault(1, 5.0)],
                moves=[MobilityFault(1, depart=7.0, arrive=9.0)],
            )

    def test_depart_at_crash_instant_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot move"):
            FaultPlan.of(
                crashes=[CrashFault(1, 5.0)],
                moves=[MobilityFault(1, depart=5.0, arrive=9.0)],
            )

    def test_move_before_crash_allowed(self):
        plan = FaultPlan.of(
            crashes=[CrashFault(1, 5.0)],
            moves=[MobilityFault(1, depart=1.0, arrive=3.0)],
        )
        assert plan.moves[0].depart == 1.0

    def test_other_processes_unaffected(self):
        plan = FaultPlan.of(
            crashes=[CrashFault(1, 5.0)],
            moves=[MobilityFault(2, depart=7.0, arrive=9.0)],
        )
        assert plan.moves[0].process == 2


class TestPartitionFault:
    def test_needs_two_sides(self):
        with pytest.raises(ConfigurationError):
            PartitionFault(sides=((1, 2),), start=1.0, end=2.0)

    def test_sides_must_be_disjoint(self):
        with pytest.raises(ConfigurationError):
            PartitionFault(sides=((1, 2), (2, 3)), start=1.0, end=2.0)

    def test_empty_side_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionFault(sides=((1, 2), ()), start=1.0, end=2.0)

    def test_end_must_follow_start(self):
        with pytest.raises(ConfigurationError):
            PartitionFault(sides=((1,), (2,)), start=2.0, end=2.0)

    def test_never_healing_allowed(self):
        fault = PartitionFault(sides=((1,), (2,)), start=2.0, end=None)
        assert fault.end is None

    def test_side_of(self):
        fault = PartitionFault(sides=((1, 2), (3,)), start=1.0, end=2.0)
        assert fault.side_of() == {1: 0, 2: 0, 3: 1}
        assert fault.members() == frozenset({1, 2, 3})


class TestRecoveryFault:
    def test_recover_must_follow_crash(self):
        with pytest.raises(ConfigurationError):
            RecoveryFault(1, crash=3.0, recover=3.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.of(
                recoveries=[
                    RecoveryFault(1, crash=1.0, recover=5.0),
                    RecoveryFault(1, crash=4.0, recover=8.0),
                ]
            )

    def test_sequential_windows_allowed(self):
        plan = FaultPlan.of(
            recoveries=[
                RecoveryFault(1, crash=4.0, recover=8.0),
                RecoveryFault(1, crash=1.0, recover=3.0),
            ]
        )
        assert len(plan.recoveries) == 2

    def test_recovery_after_permanent_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.of(
                crashes=[CrashFault(1, 5.0)],
                recoveries=[RecoveryFault(1, crash=6.0, recover=8.0)],
            )

    def test_recovery_before_permanent_crash_allowed(self):
        plan = FaultPlan.of(
            crashes=[CrashFault(1, 10.0)],
            recoveries=[RecoveryFault(1, crash=2.0, recover=4.0)],
        )
        assert plan.down_intervals(1) == ((2.0, 4.0), (10.0, math.inf))


class TestMembershipFaults:
    def test_duplicate_join_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.of(joins=[JoinFault(1, 1.0), JoinFault(1, 2.0)])

    def test_duplicate_leave_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.of(leaves=[LeaveFault(1, 1.0), LeaveFault(1, 2.0)])

    def test_leave_and_crash_conflict(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.of(crashes=[CrashFault(1, 3.0)], leaves=[LeaveFault(1, 5.0)])

    def test_join_must_precede_other_faults(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.of(
                crashes=[CrashFault(1, 3.0)], joins=[JoinFault(1, 5.0)]
            )

    def test_join_then_crash_allowed(self):
        plan = FaultPlan.of(
            crashes=[CrashFault(1, 8.0)], joins=[JoinFault(1, 2.0)]
        )
        assert plan.joins[0].time == 2.0

    def test_leavers_are_not_correct(self):
        plan = FaultPlan.of(leaves=[LeaveFault(2, 5.0)])
        assert plan.correct_processes([1, 2, 3]) == frozenset({1, 3})


class TestLossBurst:
    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LossBurst(start=1.0, end=2.0, rate=0.0)

    def test_rate_above_one_rejected(self):
        with pytest.raises(ConfigurationError):
            LossBurst(start=1.0, end=2.0, rate=1.5)

    def test_window_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            LossBurst(start=2.0, end=2.0, rate=0.5)

    def test_link_scoped(self):
        burst = LossBurst(start=1.0, end=2.0, rate=0.5, links=((1, 2),))
        assert burst.links == ((1, 2),)


class TestEpochQueries:
    def plan(self):
        return FaultPlan.of(
            crashes=[CrashFault(4, 8.0)],
            recoveries=[RecoveryFault(1, crash=2.0, recover=5.0)],
            joins=[JoinFault(2, 3.0)],
            leaves=[LeaveFault(3, 6.0)],
        )

    def test_down_intervals(self):
        plan = self.plan()
        assert plan.down_intervals(1, horizon=10.0) == ((2.0, 5.0),)
        assert plan.down_intervals(2, horizon=10.0) == ((0.0, 3.0),)
        assert plan.down_intervals(3, horizon=10.0) == ((6.0, 10.0),)
        assert plan.down_intervals(4, horizon=10.0) == ((8.0, 10.0),)
        assert plan.down_intervals(5, horizon=10.0) == ()

    def test_alive_at_boundaries(self):
        plan = self.plan()
        # Down intervals are [start, end): down at the crash instant,
        # alive again at the recovery instant.
        assert plan.alive_at(1, 2.0) is False
        assert plan.alive_at(1, 5.0) is True
        assert plan.alive_at(2, 3.0) is True
        assert plan.alive_at(3, 6.0) is False
        assert plan.alive_at(4, 8.0) is False
        assert plan.alive_at(4, 1e9) is False

    def test_alive_intervals_complement(self):
        plan = self.plan()
        assert plan.alive_intervals(1, horizon=10.0) == ((0.0, 2.0), (5.0, 10.0))
        assert plan.alive_intervals(2, horizon=10.0) == ((3.0, 10.0),)
        assert plan.alive_intervals(5, horizon=10.0) == ((0.0, 10.0),)

    def test_incarnation_of(self):
        plan = self.plan()
        assert plan.incarnation_of(1, 1.0) == 0
        assert plan.incarnation_of(1, 4.9) == 0
        assert plan.incarnation_of(1, 5.0) == 1
        assert plan.incarnation_of(5, 100.0) == 0

    def test_down_at(self):
        plan = self.plan()
        assert plan.down_at(0.0) == frozenset({2})
        assert plan.down_at(2.5) == frozenset({1, 2})
        assert plan.down_at(4.0) == frozenset({1})
        assert plan.down_at(9.0) == frozenset({3, 4})

    def test_down_at_of_crash_only_plans(self):
        plan = FaultPlan.of(crashes=[CrashFault(2, 1.0), CrashFault(3, 5.0)])
        expected = {0.0: set(), 1.0: {2}, 3.0: {2}, 5.0: {2, 3}, 9.0: {2, 3}}
        for t, down in expected.items():
            assert plan.down_at(t) == frozenset(down)

    def test_correct_at(self):
        plan = self.plan()
        assert plan.correct_at(2.5, [1, 2, 3, 4, 5]) == frozenset({3, 4, 5})
        assert plan.correct_at(9.0, [1, 2, 3, 4, 5]) == frozenset({1, 2, 5})

    def test_epoch_times(self):
        plan = self.plan()
        assert plan.epoch_times() == (2.0, 3.0, 5.0, 6.0, 8.0)

    def test_unclipped_terminal_interval(self):
        plan = FaultPlan.of(crashes=[CrashFault(1, 3.0)])
        assert plan.down_intervals(1) == ((3.0, math.inf),)


class TestMerged:
    def test_merges_all_kinds(self):
        base = FaultPlan.of(crashes=[CrashFault(1, 5.0)])
        extra = FaultPlan.of(
            partitions=[PartitionFault(sides=((2,), (3,)), start=1.0, end=2.0)],
            bursts=[LossBurst(start=1.0, end=2.0, rate=0.5)],
        )
        merged = base.merged(extra)
        assert merged.crashes == base.crashes
        assert merged.partitions == extra.partitions
        assert merged.bursts == extra.bursts

    def test_merge_revalidates(self):
        base = FaultPlan.of(crashes=[CrashFault(1, 5.0)])
        extra = FaultPlan.of(leaves=[LeaveFault(1, 8.0)])
        with pytest.raises(ConfigurationError):
            base.merged(extra)


class TestExtendedValidation:
    def test_non_member_recovery(self):
        plan = FaultPlan.of(recoveries=[RecoveryFault(9, crash=1.0, recover=2.0)])
        with pytest.raises(ConfigurationError):
            plan.validate_against([1, 2, 3], f=1)

    def test_non_member_partition_side(self):
        plan = FaultPlan.of(
            partitions=[PartitionFault(sides=((1,), (9,)), start=1.0, end=2.0)]
        )
        with pytest.raises(ConfigurationError):
            plan.validate_against([1, 2, 3], f=1)

    def test_recoveries_do_not_count_toward_f(self):
        plan = FaultPlan.of(
            crashes=[CrashFault(1, 9.0)],
            recoveries=[
                RecoveryFault(2, crash=1.0, recover=2.0),
                RecoveryFault(3, crash=1.0, recover=2.0),
            ],
        )
        plan.validate_against([1, 2, 3], f=1)


class TestUniformCrashes:
    def test_times_within_window(self):
        plan = uniform_crashes([1, 2, 3], random.Random(4), start=5.0, end=10.0)
        assert all(5.0 <= fault.time <= 10.0 for fault in plan.crashes)
        assert plan.crashed_processes() == frozenset({1, 2, 3})

    def test_inverted_window_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_crashes([1], random.Random(4), start=10.0, end=5.0)
