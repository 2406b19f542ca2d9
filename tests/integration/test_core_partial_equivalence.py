"""A learned membership view collapses to the given one on a full mesh with d = n.

The DSN 2003 core is recovered exactly by running the detector over a
learned view on a full mesh with ``d = n``.  These tests check the
observable equivalence: same quorum, same suspicions, same detection
behavior — with the one structural difference that the learned view
must first *learn* the membership from queries.
"""

from repro.detectors import sim_driver_factory
from repro.experiments.scenarios import victim_window
from repro.sim import ExponentialLatency, SimCluster
from repro.sim.faults import CrashFault, FaultPlan

N = 6
F = 2
PACING = {"grace": 0.1, "idle": 0.0}


def run_core(plan, seed=13, horizon=15.0):
    cluster = SimCluster(
        n=N,
        driver_factory=sim_driver_factory("time-free", F, **PACING),
        latency=ExponentialLatency(0.001),
        seed=seed,
        fault_plan=plan,
        start_stagger=0.1,
    )
    cluster.run(until=horizon)
    return cluster

def run_partial(plan, seed=13, horizon=15.0):
    cluster = SimCluster(
        n=N,  # full mesh
        driver_factory=sim_driver_factory("partial", F, **PACING),
        latency=ExponentialLatency(0.001),
        seed=seed,
        fault_plan=plan,
        start_stagger=0.1,
    )
    cluster.run(until=horizon)
    return cluster


class TestEquivalenceOnFullMesh:
    def test_same_quorum(self):
        core = run_core(FaultPlan.none(), horizon=1.0)
        partial = run_partial(FaultPlan.none(), horizon=1.0)
        core_detector = core.drivers[1].detector
        partial_detector = partial.drivers[1].detector
        assert core_detector.config.quorum == partial_detector.config.quorum == N - F

    def test_partial_learns_the_full_membership(self):
        partial = run_partial(FaultPlan.none(), horizon=5.0)
        for pid, driver in partial.drivers.items():
            assert driver.detector.known() == partial.membership - {pid}

    def test_identical_final_suspect_sets_after_crashes(self):
        plan = FaultPlan.of(crashes=[CrashFault(5, 3.0), CrashFault(6, 5.0)])
        core = run_core(plan)
        partial = run_partial(plan)
        for pid in core.correct_processes():
            assert core.suspects_of(pid) == partial.suspects_of(pid) == frozenset({5, 6})

    def test_comparable_detection_latency(self):
        plan = FaultPlan.of(crashes=[CrashFault(6, 5.0)])
        core = run_core(plan)
        partial = run_partial(plan)
        core_stats = victim_window(core, 6, 15.0)
        partial_stats = victim_window(partial, 6, 15.0)
        assert core_stats.detected_by_all and partial_stats.detected_by_all
        # Same pacing, same network, same quorum: latencies within a round.
        assert abs(core_stats.mean_latency - partial_stats.mean_latency) < 0.2

    def test_no_false_suspicions_either_way(self):
        core = run_core(FaultPlan.none())
        partial = run_partial(FaultPlan.none())
        for cluster in (core, partial):
            for pid in cluster.membership:
                assert cluster.suspects_of(pid) == frozenset()
