"""Retransmission under loss, and the ◇P-like regime under global RP."""

import asyncio

import pytest

from repro.core.properties import responsive_processes
from repro.errors import ConfigurationError
from repro.metrics import detection_stats, mistake_stats
from repro.runtime import LocalCluster, ServicePacing
from repro.sim import ExponentialLatency, QueryPacing, SimCluster, UniformLatency
from repro.detectors import sim_driver_factory
from repro.sim.faults import CrashFault, FaultPlan


class TestRetryOnSimulator:
    def build(self, *, loss_rate, retry, seed=5):
        return SimCluster(
            n=8,
            driver_factory=sim_driver_factory("time-free", 2, grace=0.1, idle=0.05, retry=retry),
            latency=ExponentialLatency(0.001),
            seed=seed,
            fault_plan=FaultPlan.of(crashes=[CrashFault(8, 10.0)]),
            loss_rate=loss_rate,
            start_stagger=0.1,
        )

    def test_no_retries_on_reliable_channels(self):
        cluster = self.build(loss_rate=0.0, retry=0.5)
        cluster.run(until=20.0)
        assert all(driver.core.retries_sent == 0 for driver in cluster.drivers.values())

    def test_rounds_stall_under_loss_without_retry(self):
        cluster = self.build(loss_rate=0.25, retry=None)
        cluster.run(until=30.0)
        late = [r for r in cluster.trace.rounds if r.finished_at > 22.5]
        stalled = cluster.correct_processes() - {r.querier for r in late}
        assert stalled, "expected at least one process to wedge below quorum"

    def test_retry_restores_liveness_and_completeness(self):
        cluster = self.build(loss_rate=0.25, retry=0.3)
        cluster.run(until=30.0)
        late = [r for r in cluster.trace.rounds if r.finished_at > 22.5]
        assert {r.querier for r in late} == cluster.correct_processes()
        stats = detection_stats(cluster.trace, 8, 10.0, cluster.correct_processes())
        assert stats.detected_by_all
        assert any(driver.core.retries_sent > 0 for driver in cluster.drivers.values())

    def test_retry_validation(self):
        with pytest.raises(ConfigurationError):
            QueryPacing(retry=0.0)
        with pytest.raises(ConfigurationError):
            ServicePacing(retry=-1.0)


class TestRetryOnAsyncioRuntime:
    def test_lossy_hub_with_retry_still_detects(self):
        async def scenario():
            from repro.sim.latency import ConstantLatency

            cluster = LocalCluster(
                n=4,
                f=1,
                latency=ConstantLatency(0.001),
                loss_rate=0.2,
                pacing=ServicePacing(grace=0.02, retry=0.1),
                seed=9,
            )
            await cluster.start()
            await asyncio.sleep(0.2)
            cluster.crash(4)
            await cluster.until_all_suspect(4, timeout=20.0)
            suspects = {pid: cluster.suspects_of(pid) for pid in (1, 2, 3)}
            await cluster.stop()
            return suspects

        suspects = asyncio.run(scenario())
        assert all(4 in s for s in suspects.values())


class TestDiamondPRegime:
    """When *every* correct process satisfies RP, accuracy strengthens:
    eventually no correct process is suspected at all (◇P behavior)."""

    def build(self, fault_plan=None):
        # Bounded delays well inside the grace window: every response
        # always arrives in time, so RP holds for every correct process.
        return SimCluster(
            n=8,
            driver_factory=sim_driver_factory("time-free", 3, grace=0.5),
            latency=UniformLatency(0.001, 0.05),
            seed=11,
            fault_plan=fault_plan,
            start_stagger=0.5,
        )

    def test_no_correct_process_is_ever_suspected(self):
        cluster = self.build()
        cluster.run(until=20.0)
        stats = mistake_stats(cluster.trace, cluster.correct_processes(), horizon=20.0)
        assert stats.count == 0

    def test_oracle_certifies_every_correct_process_responsive(self):
        cluster = self.build()
        cluster.run(until=20.0)
        # strict=False: the accuracy-relevant notion of "winning" is making
        # it into the terminated query's rec_from (incl. grace extras) —
        # that is the set suspicions are raised from.
        responsive = responsive_processes(
            cluster.trace.rounds,
            correct=cluster.correct_processes(),
            min_suffix=3,
            strict=False,
        )
        assert responsive == cluster.correct_processes()

    def test_strict_first_quorum_membership_rotates_under_uniform_delays(self):
        # Sanity of the strict/non-strict distinction: with i.i.d. uniform
        # delays nobody wins the strict first-(n-f) set forever.
        cluster = self.build()
        cluster.run(until=20.0)
        strict = responsive_processes(
            cluster.trace.rounds,
            correct=cluster.correct_processes(),
            min_suffix=10,
            strict=True,
        )
        assert strict == frozenset()

    def test_crashes_are_still_the_only_suspicions(self):
        plan = FaultPlan.of(crashes=[CrashFault(7, 5.0), CrashFault(8, 8.0)])
        cluster = self.build(fault_plan=plan)
        cluster.run(until=25.0)
        for pid in cluster.correct_processes():
            assert cluster.suspects_of(pid) == frozenset({7, 8})
