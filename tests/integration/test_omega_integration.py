"""Leader election (Omega) on full simulated runs."""

from repro.detectors import sim_driver_factory
from repro.sim import ExponentialLatency, SimCluster
from repro.sim.faults import CrashFault, FaultPlan
from repro.sim.latency import BiasedLatency, UniformLatency


def build(n, f, *, fault_plan=None, seed=1, latency=None):
    return SimCluster(
        n=n,
        driver_factory=sim_driver_factory(
            "time-free", f, grace=0.05, with_omega=True
        ),
        latency=latency if latency is not None else ExponentialLatency(0.001),
        seed=seed,
        fault_plan=fault_plan,
        start_stagger=0.05,
    )


def leaders_of(cluster, exclude=()):
    return {
        pid: elector.leader()
        for pid, elector in cluster.electors().items()
        if pid not in exclude
    }


class TestLeaderElection:
    def test_fault_free_run_converges_to_common_leader(self):
        cluster = build(6, 2)
        cluster.run(until=10.0)
        leaders = leaders_of(cluster)
        assert len(set(leaders.values())) == 1

    def test_leader_is_correct_process(self):
        plan = FaultPlan.of(crashes=[CrashFault(1, 2.0)])
        cluster = build(6, 2, fault_plan=plan)
        cluster.run(until=20.0)
        leaders = leaders_of(cluster, exclude={1})
        assert len(set(leaders.values())) == 1
        leader = next(iter(leaders.values()))
        assert leader in cluster.correct_processes()

    def test_crashed_initial_leader_is_replaced(self):
        # Process 1 starts as everyone's leader (min id, zero accusations);
        # after it crashes its accusations grow every round, so the common
        # choice must move on.
        plan = FaultPlan.of(crashes=[CrashFault(1, 2.0)])
        cluster = build(6, 2, fault_plan=plan)
        cluster.run(until=20.0)
        for pid, leader in leaders_of(cluster, exclude={1}).items():
            assert leader != 1

    def test_accusations_are_shared_via_gossip(self):
        plan = FaultPlan.of(crashes=[CrashFault(3, 2.0)])
        cluster = build(5, 1, fault_plan=plan)
        cluster.run(until=20.0)
        counts = {
            pid: elector.accusations()[3]
            for pid, elector in cluster.electors().items()
            if pid != 3
        }
        # Everyone has a large, and close-to-identical, accusation count.
        assert all(count > 5 for count in counts.values())
        assert max(counts.values()) - min(counts.values()) <= 3

    def test_responsive_process_becomes_leader_despite_higher_id(self):
        # Sabotage p1 and p2 (slow links) while p3 is fast: accusations pile
        # on the slow pair and the stable leader is the responsive p3.
        latency = BiasedLatency(
            UniformLatency(0.001, 0.004),
            favored=frozenset({1, 2}),
            speedup=0.05,  # 20x slowdown
            bidirectional=True,
        )
        cluster = build(6, 2, latency=latency, seed=4)
        cluster.run(until=30.0)
        leaders = leaders_of(cluster)
        assert len(set(leaders.values())) == 1
        assert next(iter(leaders.values())) not in {1, 2}
