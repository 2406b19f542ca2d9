"""Unit tests for the online MP monitor."""

import pytest

from repro.core.protocol import QueryRoundOutcome
from repro.errors import ConfigurationError
from repro.sim.monitors import MessagePatternMonitor


def outcome(responders, winners=None, round_id=1):
    responders = tuple(responders)
    winners = frozenset(winners if winners is not None else responders)
    return QueryRoundOutcome(
        round_id=round_id,
        responders=responders,
        winners=winners,
        newly_suspected=(),
        counter_after=round_id,
        suspects_after=frozenset(),
    )


def feed_streak(monitor, responder, queriers, rounds):
    for round_id in range(1, rounds + 1):
        for querier in queriers:
            monitor.observe(querier, outcome([querier, responder], round_id=round_id))


class TestStreaks:
    def test_consecutive_wins_accumulate(self):
        monitor = MessagePatternMonitor([1, 2, 3, 4], f=1, min_streak=3)
        feed_streak(monitor, 4, [1], 5)
        assert monitor.snapshot(4).streaks[1] == 5

    def test_a_loss_resets_the_streak(self):
        monitor = MessagePatternMonitor([1, 2, 3, 4], f=1, min_streak=3)
        feed_streak(monitor, 4, [1], 5)
        monitor.observe(1, outcome([1, 2]))  # 4 missing
        assert monitor.snapshot(4).streaks[1] == 0

    def test_streaks_are_per_querier(self):
        monitor = MessagePatternMonitor([1, 2, 3, 4], f=1, min_streak=3)
        feed_streak(monitor, 4, [1], 4)
        feed_streak(monitor, 4, [2], 2)
        snap = monitor.snapshot(4)
        assert snap.streaks[1] == 4
        assert snap.streaks[2] == 2
        assert snap.queriers_with_streak(3) == frozenset({1})


class TestWitness:
    def test_witness_needs_f_plus_one_streaking_queriers(self):
        monitor = MessagePatternMonitor([1, 2, 3, 4], f=1, min_streak=3)
        feed_streak(monitor, 4, [1], 3)
        assert monitor.current_witness() is None  # only one querier
        feed_streak(monitor, 4, [2], 3)
        witness = monitor.current_witness()
        assert witness is not None
        assert witness.responder == 4
        assert witness.queriers >= frozenset({1, 2})

    def test_crashed_candidates_are_excluded(self):
        monitor = MessagePatternMonitor([1, 2, 3, 4], f=1, min_streak=2)
        feed_streak(monitor, 4, [1, 2], 3)
        assert monitor.holds()
        assert not monitor.holds(crashed=frozenset({4, 1, 2, 3}))
        witness = monitor.current_witness(crashed=frozenset({4}))
        assert witness is None or witness.responder != 4

    def test_non_strict_counts_grace_extras(self):
        strict = MessagePatternMonitor([1, 2, 3, 4], f=1, min_streak=1, strict=True)
        loose = MessagePatternMonitor([1, 2, 3, 4], f=1, min_streak=1, strict=False)
        # 4 responded but outside the first-quorum winner set.
        event = outcome([1, 2, 4], winners={1, 2})
        strict.observe(1, event)
        loose.observe(1, event)
        assert strict.snapshot(4).streaks[1] == 0
        assert loose.snapshot(4).streaks[1] == 1

    def test_min_streak_validation(self):
        with pytest.raises(ConfigurationError):
            MessagePatternMonitor([1, 2], f=0, min_streak=0)


class TestClusterAttachment:
    def test_mp_since_is_stamped_on_a_live_run(self):
        from repro.detectors import sim_driver_factory
        from repro.sim import SimCluster, UniformLatency
        from repro.sim.latency import BiasedLatency

        latency = BiasedLatency(
            UniformLatency(0.001, 0.02), frozenset({1}), speedup=8.0, bidirectional=True
        )
        cluster = SimCluster(
            n=6,
            driver_factory=sim_driver_factory("time-free", 2, grace=0.01, idle=0.05),
            latency=latency,
            seed=3,
            start_stagger=0.05,
        )
        monitor = MessagePatternMonitor(
            cluster.membership, f=2, min_streak=5
        ).attach_to_cluster(cluster)
        cluster.run(until=10.0)
        assert monitor.rounds_observed > 50
        assert monitor.holds()
        witness = monitor.current_witness()
        assert witness.responder == 1
        assert monitor.mp_since is not None
        assert 0.0 < monitor.mp_since < 2.0
