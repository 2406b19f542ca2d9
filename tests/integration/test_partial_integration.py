"""End-to-end runs of the partial-connectivity detector (extension).

Exercises the flooding machinery on multi-hop topologies, the f-covering
assumption, and the full mobility scenario with and without Algorithm 2's
eviction rule.
"""

import random

from repro.detectors import sim_driver_factory
from repro.experiments.scenarios import victim_window
from repro.partial import validate_f_covering
from repro.sim import ExponentialLatency, SimCluster
from repro.sim.faults import CrashFault, FaultPlan, MobilityFault
from repro.sim.topology import grid, manet_topology, ring


def build(topology, f, *, fault_plan=None, seed=1, grace=0.2, mobility=True):
    return SimCluster(
        topology=topology,
        driver_factory=sim_driver_factory("partial", f, grace=grace, mobility=mobility),
        latency=ExponentialLatency(0.001),
        seed=seed,
        fault_plan=fault_plan,
        start_stagger=grace,
    )


class TestFloodingCompleteness:
    def test_ring_crash_detected_many_hops_away(self):
        # Ring: d = 3, f = 1, quorum 2 (self + one neighbor).  Node 5's
        # crash is only *observable* by nodes 4 and 6; everyone else must
        # learn it through suspicion flooding.
        topology = ring(range(1, 10))
        plan = FaultPlan.of(crashes=[CrashFault(5, 3.0)])
        cluster = build(topology, f=1, fault_plan=plan)
        cluster.run(until=20.0)
        for pid in cluster.correct_processes():
            assert 5 in cluster.suspects_of(pid), f"{pid} never learned of the crash"

    def test_grid_crash_detected_everywhere(self):
        topology = grid(4, 4)  # d = 3 (corners have degree 2)
        plan = FaultPlan.of(crashes=[CrashFault(6, 3.0)])
        cluster = build(topology, f=1, fault_plan=plan)
        cluster.run(until=20.0)
        for pid in cluster.correct_processes():
            assert 6 in cluster.suspects_of(pid)

    def test_manet_topology_with_multiple_crashes(self):
        rng = random.Random(3)
        topology = manet_topology(30, f=2, rng=rng, min_neighbors=5)
        validate_f_covering(topology, 2)
        d = topology.range_density()
        plan = FaultPlan.of(crashes=[CrashFault(7, 3.0), CrashFault(21, 5.0)])
        cluster = build(topology, f=2, fault_plan=plan)
        cluster.run(until=25.0)
        for crash in plan.crashes:
            stats = victim_window(cluster, crash.process, 25.0)
            assert stats.detected_by_all, f"crash of {crash.process} missed"

    def test_membership_is_learned_not_configured(self):
        topology = ring(range(1, 6))
        cluster = build(topology, f=1)
        cluster.run(until=10.0)
        for pid, driver in cluster.drivers.items():
            known = driver.detector.known()
            # Exactly the 1-hop neighbors speak to us via queries.
            assert known == topology.neighbors(pid)


class TestMobilityScenario:
    def build_mobility_run(self, *, mobility, arrive=30.0):
        rng = random.Random(8)
        topology = manet_topology(25, f=1, rng=rng, min_neighbors=6)
        d = topology.range_density()
        mover = next(
            pid
            for pid in sorted(topology.ids())
            if all(
                len(topology.neighbors(nb) - {pid}) >= d - 1
                for nb in topology.neighbors(pid)
            )
        )
        # Land on the farthest node's position: a genuinely new range.
        import math

        origin = topology.positions[mover]
        landing = max(
            (pid for pid in topology.ids() if pid != mover),
            key=lambda pid: math.hypot(
                topology.positions[pid][0] - origin[0],
                topology.positions[pid][1] - origin[1],
            ),
        )
        plan = FaultPlan.of(
            moves=[
                MobilityFault(
                    mover,
                    depart=10.0,
                    arrive=arrive,
                    new_position=topology.positions[landing],
                )
            ]
        )
        cluster = build(topology, f=1, fault_plan=plan, mobility=mobility, grace=0.5)
        return cluster, mover

    def test_moving_node_is_suspected_while_away(self):
        cluster, mover = self.build_mobility_run(mobility=True)
        cluster.run(until=25.0)
        suspecting = sum(
            1 for pid in cluster.membership if pid != mover and mover in cluster.suspects_of(pid)
        )
        assert suspecting == len(cluster.membership) - 1

    def test_reconnection_clears_all_false_suspicions(self):
        cluster, mover = self.build_mobility_run(mobility=True)
        cluster.run(until=70.0)
        crashed = frozenset()
        assert cluster.trace.false_suspicion_count_at(70.0, crashed) == 0

    def test_without_eviction_the_ping_pong_persists(self):
        cluster, mover = self.build_mobility_run(mobility=False)
        cluster.run(until=70.0)
        crashed = frozenset()
        # Algorithm 1 alone cannot settle: the mover keeps re-suspecting its
        # old neighborhood (or vice versa).
        assert cluster.trace.false_suspicion_count_at(70.0, crashed) > 0

    def test_mover_keeps_state_while_detached(self):
        cluster, mover = self.build_mobility_run(mobility=True)
        cluster.run(until=25.0)
        counter_away = cluster.drivers[mover].detector.counter
        assert counter_away > 0  # accumulated before departure, kept during
