"""End-to-end runs of the timer-based baselines on the simulator."""

from repro.detectors import sim_driver_factory
from repro.metrics import detection_stats, mistake_stats
from repro.sim import ExponentialLatency, SimCluster
from repro.sim.faults import CrashFault, FaultPlan
from repro.sim.latency import RegimeShiftLatency
from repro.sim.topology import ring


def build_heartbeat(n, *, period=0.5, timeout=1.0, fault_plan=None, latency=None,
                    topology=None, seed=1):
    kwargs = {"topology": topology} if topology is not None else {"n": n}
    return SimCluster(
        driver_factory=sim_driver_factory("heartbeat", 1, period=period, timeout=timeout),
        latency=latency if latency is not None else ExponentialLatency(0.001),
        seed=seed,
        fault_plan=fault_plan,
        start_stagger=period,
        **kwargs,
    )


class TestHeartbeatEndToEnd:
    def test_crash_detected_within_timeout_band(self):
        plan = FaultPlan.of(crashes=[CrashFault(4, 5.0)])
        cluster = build_heartbeat(5, fault_plan=plan)
        cluster.run(until=15.0)
        stats = detection_stats(cluster.trace, 4, 5.0, cluster.correct_processes())
        assert stats.detected_by_all
        # Θ = 1.0, Δ = 0.5: detection inside [Θ - Δ, Θ] (+ small network δ).
        assert all(0.4 <= lat <= 1.1 for lat in stats.latencies.values())

    def test_no_false_suspicions_with_calm_network(self):
        cluster = build_heartbeat(5)
        cluster.run(until=15.0)
        stats = mistake_stats(cluster.trace, cluster.correct_processes(), horizon=15.0)
        assert stats.count == 0

    def test_regime_shift_causes_false_suspicions(self):
        # The core negative result for timeouts: delays inflated past Θ.
        latency = RegimeShiftLatency(
            ExponentialLatency(0.001), shift_at=5.0, factor=2000.0
        )
        cluster = build_heartbeat(5, latency=latency)
        cluster.run(until=25.0)
        stats = mistake_stats(cluster.trace, cluster.correct_processes(), horizon=25.0)
        assert stats.count > 0


class TestGossipEndToEnd:
    def gossip_factory(self, period=0.5, timeout=1.5):
        return sim_driver_factory("gossip", 1, period=period, timeout=timeout)

    def test_detects_crash_across_multiple_hops(self):
        # On a ring, node 1 only hears about node 4 via relayed vectors.
        topology = ring(range(1, 8))
        plan = FaultPlan.of(crashes=[CrashFault(4, 5.0)])
        cluster = SimCluster(
            topology=topology,
            driver_factory=self.gossip_factory(),
            latency=ExponentialLatency(0.001),
            seed=1,
            fault_plan=plan,
            start_stagger=0.5,
        )
        cluster.run(until=20.0)
        for pid in cluster.correct_processes():
            assert 4 in cluster.suspects_of(pid)

    def test_relaying_keeps_distant_nodes_unsuspected(self):
        topology = ring(range(1, 8))
        cluster = SimCluster(
            topology=topology,
            driver_factory=self.gossip_factory(),
            latency=ExponentialLatency(0.001),
            seed=1,
            start_stagger=0.5,
        )
        cluster.run(until=20.0)
        stats = mistake_stats(cluster.trace, cluster.correct_processes(), horizon=20.0)
        # Fresh heartbeats flood around the ring well inside Θ = 1.5 s.
        assert stats.unresolved == 0


class TestPhiEndToEnd:
    def phi_factory(self, threshold=8.0):
        return sim_driver_factory("phi", 1, period=0.5, threshold=threshold)

    def test_detects_crash(self):
        plan = FaultPlan.of(crashes=[CrashFault(4, 10.0)])
        cluster = SimCluster(
            n=5,
            driver_factory=self.phi_factory(),
            latency=ExponentialLatency(0.001),
            seed=1,
            fault_plan=plan,
            start_stagger=0.5,
        )
        cluster.run(until=30.0)
        stats = detection_stats(cluster.trace, 4, 10.0, cluster.correct_processes())
        assert stats.detected_by_all

    def test_adapts_to_slow_but_steady_cadence(self):
        # A uniformly slower network after warm-up: phi re-learns and does
        # not flap forever (unlike a fixed timeout tuned to the old regime).
        latency = RegimeShiftLatency(
            ExponentialLatency(0.001), shift_at=15.0, factor=100.0
        )
        cluster = SimCluster(
            n=5,
            driver_factory=self.phi_factory(),
            latency=latency,
            seed=1,
            start_stagger=0.5,
        )
        cluster.run(until=60.0)
        stats = mistake_stats(cluster.trace, cluster.correct_processes(), horizon=60.0)
        assert stats.unresolved == 0
