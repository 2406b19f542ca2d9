"""Unknown membership on a partially-connected MANET (the extension).

Builds an f-covering radio topology with the paper's gradual construction,
runs the partial-connectivity time-free detector on it (nobody knows the
membership; each node learns its neighbors from the queries it hears),
injects crashes, and shows suspicion records flooding hop by hop.  A
second act sends one node on a journey across the field and watches the
false suspicions rise and collapse (Algorithm 2's mobility handling).

Run with::

    python examples/manet_density_study.py
"""

import math
import random

from repro.detectors import sim_driver_factory
from repro.metrics import detection_stats, false_suspicion_series
from repro.partial import validate_f_covering
from repro.sim import ExponentialLatency, SimCluster
from repro.sim.faults import CrashFault, FaultPlan, MobilityFault
from repro.sim.topology import manet_topology


def act_one_crash_detection() -> None:
    print("=" * 64)
    print("act 1: crash detection with unknown membership, f = 2")
    print("=" * 64)
    rng = random.Random(11)
    topology = manet_topology(
        40, f=2, rng=rng, area=700.0, transmission_range=100.0, min_neighbors=5
    )
    validate_f_covering(topology, 2)
    d = topology.range_density()
    diameter_hint = len(topology) / d
    print(f"  nodes: {len(topology)}, range density d = {d}, quorum d - f = {d - 2}")

    plan = FaultPlan.of(crashes=[CrashFault(13, 5.0), CrashFault(27, 8.0)])
    cluster = SimCluster(
        topology=topology,
        driver_factory=sim_driver_factory("partial", 2, grace=1.0),
        latency=ExponentialLatency(0.001),
        seed=11,
        fault_plan=plan,
        start_stagger=1.0,
    )
    cluster.run(until=30.0)
    for stats in detection_stats(cluster.trace, plan, cluster.membership, horizon=30.0):
        print(
            f"  crash of node {stats.crashed} at t={stats.crash_time:.0f}s: detected by all "
            f"{len(stats.latencies)} correct nodes, mean {stats.mean_latency:.3f}s, "
            f"max {stats.max_latency:.3f}s (multi-hop flooding)"
        )
    sample = sorted(cluster.membership)[0]
    known = cluster.drivers[sample].detector.known()
    print(
        f"  node {sample} never saw a membership list; it learned "
        f"{len(known)} neighbors from queries alone"
    )


def act_two_mobility() -> None:
    print()
    print("=" * 64)
    print("act 2: one node journeys across the field (no crashes)")
    print("=" * 64)
    rng = random.Random(8)
    topology = manet_topology(30, f=1, rng=rng, min_neighbors=6)
    d = topology.range_density()
    mover = next(
        pid
        for pid in sorted(topology.ids())
        if all(
            len(topology.neighbors(nb) - {pid}) >= d - 1
            for nb in topology.neighbors(pid)
        )
    )
    origin = topology.positions[mover]
    landing = max(
        (pid for pid in topology.ids() if pid != mover),
        key=lambda pid: math.hypot(
            topology.positions[pid][0] - origin[0],
            topology.positions[pid][1] - origin[1],
        ),
    )
    print(f"  node {mover} departs at t=20s and reconnects near node {landing} at t=60s")
    plan = FaultPlan.of(
        moves=[
            MobilityFault(
                mover, depart=20.0, arrive=60.0, new_position=topology.positions[landing]
            )
        ]
    )
    cluster = SimCluster(
        topology=topology,
        driver_factory=sim_driver_factory("partial", 1, grace=1.0),
        latency=ExponentialLatency(0.001),
        seed=8,
        fault_plan=plan,
        start_stagger=1.0,
    )
    cluster.run(until=100.0)
    series = false_suspicion_series(
        cluster.trace, [float(t) for t in range(15, 101, 5)], plan
    )
    print("  false suspicions over time (all of them target live nodes):")
    for t, count in series:
        bar = "#" * count
        print(f"    t={t:5.0f}s  {count:3d} {bar}")
    final = series[-1][1]
    assert final == 0, "Algorithm 2 must clear every false suspicion"
    print("  all false suspicions corrected after reconnection ✓")


if __name__ == "__main__":
    act_one_crash_detection()
    act_two_mobility()
