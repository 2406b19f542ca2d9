"""Registry-parametrized conformance battery.

Every family registered in :mod:`repro.detectors` — whatever its protocol
style — must pass the same black-box battery on the simulator:

* **lifecycle**: a crash-free run raises no (lasting) suspicions under a
  calm network;
* **strong completeness**: after a crash, every correct process eventually
  suspects the victim;
* **output discipline**: suspect sets are frozensets over the membership,
  never containing the local process.

Every family runs on the one simulator host, ``TimedDriver`` (query
families behind ``QueryRoundFacade``); that this host runs task T1 exactly
as the scheduler-callback driver it replaced did is the differential in
``tests/property/test_round_loop_differential.py``.

The battery runs each family twice: ``native`` builds the host the way
``sim_driver_factory`` does (query families as a ``QueryResponseDriver``,
which adds round records, Omega observation and retry accounting), and
``unified`` puts the bare ``BuiltDetector.unified()`` facade on a plain
``TimedDriver``, with no round listener and no elector observation.  Both
must converge alike.

New families registered by plugins are picked up automatically (the
parametrization reads the registry).
"""

import pytest

from repro.detectors import (
    DetectorContext,
    all_detectors,
    build_detector,
    sim_driver_factory,
)
from repro.sim.cluster import SimCluster
from repro.sim.faults import CrashFault, FaultPlan
from repro.sim.latency import ConstantLatency
from repro.sim.node import TimedDriver

N = 6
F = 1
VICTIM = N
CRASH_AT = 6.0
HORIZON = 25.0


def unified_driver_factory(key: str):
    def factory(process, cluster):
        # Full mesh: range density d = n recovers the DSN 2003 core exactly.
        context = DetectorContext(
            process_id=process.pid, membership=cluster.membership, f=F, range_density=N
        )
        built = build_detector(key, context)
        return TimedDriver(process, built.unified())

    return factory


def build_cluster(key: str, *, unified: bool, fault_plan=None) -> SimCluster:
    if unified:
        driver_factory = unified_driver_factory(key)
    else:
        driver_factory = sim_driver_factory(key, F)
    return SimCluster(
        n=N,
        driver_factory=driver_factory,
        latency=ConstantLatency(0.001),
        seed=11,
        fault_plan=fault_plan,
        start_stagger=1.0,
    )


def detector_keys():
    return sorted(all_detectors())


@pytest.fixture(params=detector_keys())
def key(request):
    return request.param


@pytest.fixture(params=[False, True], ids=["native", "unified"])
def unified(request):
    return request.param


class TestConformance:
    def test_calm_run_raises_no_lasting_suspicions(self, key, unified):
        cluster = build_cluster(key, unified=unified)
        cluster.run(until=HORIZON)
        for pid in cluster.membership:
            assert cluster.suspects_of(pid) == frozenset(), (key, unified, pid)

    def test_crash_is_eventually_suspected_by_every_correct_process(self, key, unified):
        plan = FaultPlan.of(crashes=[CrashFault(VICTIM, CRASH_AT)])
        cluster = build_cluster(key, unified=unified, fault_plan=plan)
        cluster.run(until=HORIZON)
        for pid in cluster.correct_processes():
            assert VICTIM in cluster.suspects_of(pid), (key, unified, pid)

    def test_suspect_sets_are_wellformed(self, key, unified):
        plan = FaultPlan.of(crashes=[CrashFault(VICTIM, CRASH_AT)])
        cluster = build_cluster(key, unified=unified, fault_plan=plan)
        cluster.run(until=HORIZON)
        for pid in cluster.correct_processes():
            suspects = cluster.suspects_of(pid)
            assert isinstance(suspects, frozenset)
            assert pid not in suspects
            assert suspects <= cluster.membership


class TestConvergenceTime:
    """Detection-latency sanity: each family's well-known bound holds."""

    def first_detection(self, key, unified) -> float:
        plan = FaultPlan.of(crashes=[CrashFault(VICTIM, CRASH_AT)])
        cluster = build_cluster(key, unified=unified, fault_plan=plan)
        cluster.run(until=HORIZON)
        times = [
            change.time
            for change in cluster.trace.suspicion_changes
            if VICTIM in change.added
        ]
        assert times, (key, unified)
        return min(times) - CRASH_AT

    def test_timer_families_sit_in_the_timeout_band(self, unified):
        for key in ("heartbeat", "heartbeat-adaptive", "gossip"):
            latency = self.first_detection(key, unified)
            # [Θ - Δ, Θ] = [1, 2] s, plus stagger slack.
            assert 0.9 <= latency <= 3.1, (key, latency)

    def test_query_families_track_the_grace(self, unified):
        for key in ("time-free", "partial"):
            latency = self.first_detection(key, unified)
            assert latency <= 2.5, (key, latency)
