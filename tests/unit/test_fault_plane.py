"""Unit tests for the fault-injection plane: partitions, loss bursts,
crash-recovery, and dynamic membership, enforced end-to-end through
``SimNetwork`` / ``SimProcess`` / ``SimCluster``."""

import pytest

from repro.detectors import sim_driver_factory
from repro.sim.cluster import SimCluster
from repro.sim.engine import Scheduler
from repro.sim.faults import (
    CrashFault,
    FaultPlan,
    JoinFault,
    LeaveFault,
    LossBurst,
    PartitionFault,
    RecoveryFault,
)
from repro.sim.latency import ConstantLatency
from repro.sim.network import SimNetwork
from repro.sim.rng import RngStreams
from repro.sim.topology import full_mesh


def make_network(n=4, bursts=()):
    scheduler = Scheduler()
    topology = full_mesh(range(1, n + 1))
    network = SimNetwork(
        scheduler,
        topology,
        ConstantLatency(0.001),
        RngStreams(7),
        bursts=tuple(bursts),
    )
    return scheduler, topology, network


class TestNetworkPartition:
    def setup_method(self):
        self.scheduler, self.topology, self.network = make_network()
        self.delivered = []
        for pid in (1, 2, 3, 4):
            self.network.register(
                pid, lambda src, msg, pid=pid: self.delivered.append((src, pid, msg))
            )

    def test_cross_side_send_dropped(self):
        fault = PartitionFault(sides=((1, 2), (3, 4)), start=0.0, end=None)
        self.network.begin_partition(fault)
        assert self.network.send(1, 3, "x") is False
        assert self.network.send(1, 2, "y") is True
        self.scheduler.run(until=1.0)
        assert self.delivered == [(1, 2, "y")]

    def test_heal_restores_all_links(self):
        fault = PartitionFault(sides=((1, 2), (3, 4)), start=0.0, end=None)
        self.network.begin_partition(fault)
        assert self.network.is_separated(1, 3)
        self.network.end_partition(fault)
        assert not self.network.is_separated(1, 3)
        assert self.network.send(1, 3, "x") is True
        self.scheduler.run(until=1.0)
        assert self.delivered == [(1, 3, "x")]

    def test_unlisted_nodes_unaffected(self):
        fault = PartitionFault(sides=((1,), (3,)), start=0.0, end=None)
        self.network.begin_partition(fault)
        # 2 is in no side: it reaches both 1 and 3.
        assert self.network.send(2, 1, "a") is True
        assert self.network.send(2, 3, "b") is True
        assert self.network.send(1, 3, "c") is False

    def test_broadcast_filters_cross_side(self):
        fault = PartitionFault(sides=((1, 2), (3, 4)), start=0.0, end=None)
        self.network.begin_partition(fault)
        sent = self.network.broadcast(1, "q")
        assert sent == 1  # only 2 is same-side
        self.scheduler.run(until=1.0)
        assert self.delivered == [(1, 2, "q")]

    def test_in_flight_message_dies_at_partition_start(self):
        assert self.network.send(1, 3, "x") is True  # in flight, 1ms away
        fault = PartitionFault(sides=((1, 2), (3, 4)), start=0.0, end=None)
        self.network.begin_partition(fault)
        dropped_before = self.network.trace.messages_dropped
        self.scheduler.run(until=1.0)
        assert self.delivered == []
        assert self.network.trace.messages_dropped == dropped_before + 1

    def test_three_sided_partition(self):
        fault = PartitionFault(sides=((1,), (2,), (3, 4)), start=0.0, end=None)
        self.network.begin_partition(fault)
        assert self.network.is_separated(1, 2)
        assert self.network.is_separated(2, 3)
        assert not self.network.is_separated(3, 4)


class TestLossBurst:
    def test_burst_drops_only_inside_window(self):
        burst = LossBurst(start=1.0, end=2.0, rate=1.0)
        scheduler, _topology, network = make_network(bursts=[burst])
        got = []
        for pid in (1, 2, 3, 4):
            network.register(pid, lambda src, msg, pid=pid: got.append(pid))
        assert network.send(1, 2, "before") is True  # t=0 < start
        scheduler.run(until=1.5)  # now inside the window
        assert network.send(1, 2, "during") is False
        scheduler.run(until=2.5)  # window over
        assert network.send(1, 2, "after") is True

    def test_link_scoped_burst(self):
        burst = LossBurst(start=0.0, end=10.0, rate=1.0, links=((1, 2),))
        _scheduler, _topology, network = make_network(bursts=[burst])
        for pid in (1, 2, 3, 4):
            network.register(pid, lambda src, msg: None)
        assert network.send(1, 2, "x") is False  # covered link (either direction)
        assert network.send(2, 1, "x") is False
        assert network.send(1, 3, "x") is True  # uncovered link

    def test_no_burst_stream_without_bursts(self):
        _scheduler, _topology, network = make_network()
        assert network._burst_rng is None


class TestClusterRecovery:
    def run_cluster(self, persistent):
        plan = FaultPlan.of(
            recoveries=[RecoveryFault(2, crash=4.0, recover=8.0, persistent=persistent)]
        )
        cluster = SimCluster(
            n=4,
            driver_factory=sim_driver_factory("heartbeat", 1, period=0.5, timeout=1.5),
            latency=ConstantLatency(0.001),
            seed=3,
            fault_plan=plan,
        )
        cluster.run(until=20.0)
        return cluster

    @pytest.mark.parametrize("persistent", [False, True])
    def test_process_comes_back(self, persistent):
        cluster = self.run_cluster(persistent)
        process = cluster.processes[2]
        assert process.alive and process.attached
        assert process.incarnation == 1
        assert [e.process for e in cluster.trace.recoveries] == [2]
        assert cluster.trace.recoveries[0].time == 8.0

    def test_volatile_restart_swaps_driver(self):
        plan = FaultPlan.of(recoveries=[RecoveryFault(2, crash=4.0, recover=8.0)])
        cluster = SimCluster(
            n=4,
            driver_factory=sim_driver_factory("heartbeat", 1, period=0.5, timeout=1.5),
            latency=ConstantLatency(0.001),
            seed=3,
            fault_plan=plan,
        )
        original = cluster.drivers[2]
        cluster.run(until=20.0)
        assert cluster.drivers[2] is not original
        assert cluster.processes[2].driver is cluster.drivers[2]

    def test_persistent_restart_keeps_driver(self):
        cluster = self.run_cluster(persistent=True)
        assert cluster.processes[2].driver is cluster.drivers[2]

    @pytest.mark.parametrize("persistent", [False, True])
    def test_peers_unsuspect_after_recovery(self, persistent):
        cluster = self.run_cluster(persistent)
        # During the outage peers suspect 2; after recovery heartbeats
        # resume and the suspicion is withdrawn.
        assert all(2 not in cluster.suspects_of(pid) for pid in (1, 3, 4))

    def test_time_free_recovery(self):
        plan = FaultPlan.of(recoveries=[RecoveryFault(2, crash=4.0, recover=8.0)])
        cluster = SimCluster(
            n=4,
            driver_factory=sim_driver_factory("time-free", 1),
            latency=ConstantLatency(0.001),
            seed=3,
            fault_plan=plan,
        )
        cluster.run(until=20.0)
        assert cluster.processes[2].alive
        # The recovered node resumes querying: rounds recorded after t=8.
        assert any(
            record.querier == 2 and record.finished_at > 8.0
            for record in cluster.trace.rounds
        )


class TestClusterChurn:
    def test_join_starts_late(self):
        plan = FaultPlan.of(joins=[JoinFault(4, time=5.0)])
        cluster = SimCluster(
            n=4,
            driver_factory=sim_driver_factory("heartbeat", 1, period=0.5, timeout=1.5),
            latency=ConstantLatency(0.001),
            seed=3,
            fault_plan=plan,
        )
        assert not cluster.processes[4].alive
        cluster.run(until=15.0)
        process = cluster.processes[4]
        assert process.alive and process.attached
        events = [(e.process, e.kind) for e in cluster.trace.membership_events]
        assert (4, "join") in events
        # No message bears 4 as sender before the join instant: its first
        # heartbeat broadcast happens at t >= 5.
        assert cluster.trace.messages_by_sender[4] > 0

    def test_join_rewires_topology(self):
        plan = FaultPlan.of(joins=[JoinFault(4, time=5.0, connect_to=(1, 2))])
        cluster = SimCluster(
            n=4,
            driver_factory=sim_driver_factory("heartbeat", 1, period=0.5, timeout=1.5),
            latency=ConstantLatency(0.001),
            seed=3,
            fault_plan=plan,
        )
        assert cluster.topology.neighbors(4) == frozenset()
        cluster.run(until=15.0)
        assert cluster.topology.neighbors(4) == frozenset({1, 2})

    def test_leave_is_terminal(self):
        plan = FaultPlan.of(leaves=[LeaveFault(3, time=5.0)])
        cluster = SimCluster(
            n=4,
            driver_factory=sim_driver_factory("heartbeat", 1, period=0.5, timeout=1.5),
            latency=ConstantLatency(0.001),
            seed=3,
            fault_plan=plan,
        )
        cluster.run(until=15.0)
        process = cluster.processes[3]
        assert not process.alive
        assert cluster.topology.neighbors(3) == frozenset()
        assert (3, "leave") in [
            (e.process, e.kind) for e in cluster.trace.membership_events
        ]
        # Correctness excludes the departed node.
        assert cluster.correct_processes() == frozenset({1, 2, 4})
        # Peers eventually suspect the leaver (correctly, per epoch truth).
        assert all(3 in cluster.suspects_of(pid) for pid in (1, 2, 4))

    def test_partition_stalls_time_free_and_heals(self):
        plan = FaultPlan.of(
            partitions=[PartitionFault(sides=((1, 2), (3, 4)), start=4.0, end=8.0)]
        )
        cluster = SimCluster(
            n=4,
            driver_factory=sim_driver_factory("time-free", 1, retry=1.0),
            latency=ConstantLatency(0.001),
            seed=3,
            fault_plan=plan,
        )
        cluster.run(until=20.0)
        # n - f = 3 > 2: no side can reach a quorum during the split, so
        # every round stalls; the retry rebroadcast crosses the healed
        # network and rounds resume.
        assert any(r.finished_at > 8.0 for r in cluster.trace.rounds)
        assert all(not cluster.suspects_of(pid) for pid in (1, 2, 3, 4))

    def test_crash_inside_partition_window(self):
        plan = FaultPlan.of(
            crashes=[CrashFault(4, 5.0)],
            partitions=[PartitionFault(sides=((1, 2), (3, 4)), start=4.0, end=8.0)],
        )
        cluster = SimCluster(
            n=4,
            driver_factory=sim_driver_factory("heartbeat", 1, period=0.5, timeout=1.5),
            latency=ConstantLatency(0.001),
            seed=3,
            fault_plan=plan,
        )
        cluster.run(until=20.0)
        assert all(4 in cluster.suspects_of(pid) for pid in (1, 2, 3))
