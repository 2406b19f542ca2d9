"""End-to-end ◇S behavior of the time-free detector on the simulator.

These tests exercise the actual theorem statements: strong completeness
(Lemma 2), eventual weak accuracy under MP (Lemma 3), and the supporting
propagation machinery (Lemma 1) — on full runs with real (simulated)
latencies, pacing and fault injection.
"""


from repro.core.properties import find_mp_witness
from repro.detectors import sim_driver_factory
from repro.metrics import accuracy_stabilization, detection_stats, mistake_stats
from repro.sim import BiasedLatency, ExponentialLatency, LogNormalLatency, SimCluster
from repro.sim.faults import CrashFault, FaultPlan


def build(n, f, *, fault_plan=None, latency=None, seed=1, grace=0.05, idle=0.0,
          stagger=0.05):
    return SimCluster(
        n=n,
        driver_factory=sim_driver_factory("time-free", f, grace=grace, idle=idle),
        latency=latency if latency is not None else ExponentialLatency(0.001),
        seed=seed,
        fault_plan=fault_plan,
        start_stagger=stagger,
    )


class TestStrongCompleteness:
    def test_single_crash_is_permanently_suspected_by_all(self):
        plan = FaultPlan.of(crashes=[CrashFault(4, 2.0)])
        cluster = build(6, 2, fault_plan=plan)
        cluster.run(until=10.0)
        for pid in cluster.correct_processes():
            assert 4 in cluster.suspects_of(pid)
            assert cluster.trace.permanent_suspicion_time(pid, 4) is not None

    def test_f_simultaneous_crashes(self):
        plan = FaultPlan.of(crashes=[CrashFault(5, 2.0), CrashFault(6, 2.0)])
        cluster = build(6, 2, fault_plan=plan)
        cluster.run(until=10.0)
        for pid in cluster.correct_processes():
            assert cluster.suspects_of(pid) >= frozenset({5, 6})

    def test_crash_at_time_zero(self):
        plan = FaultPlan.of(crashes=[CrashFault(3, 0.0)])
        cluster = build(5, 1, fault_plan=plan)
        cluster.run(until=10.0)
        for pid in cluster.correct_processes():
            assert 3 in cluster.suspects_of(pid)

    def test_staggered_crashes(self):
        plan = FaultPlan.of(
            crashes=[CrashFault(7, 1.0), CrashFault(8, 3.0), CrashFault(9, 5.0)]
        )
        cluster = build(9, 3, fault_plan=plan)
        cluster.run(until=15.0)
        for pid in cluster.correct_processes():
            assert cluster.suspects_of(pid) == frozenset({7, 8, 9})

    def test_detection_latency_tracks_grace(self):
        # Detection time ≈ pacing grace + δ, not some multiple of it.
        plan = FaultPlan.of(crashes=[CrashFault(4, 5.0)])
        cluster = build(6, 2, fault_plan=plan, grace=0.2)
        cluster.run(until=15.0)
        stats = detection_stats(cluster.trace, 4, 5.0, cluster.correct_processes())
        assert stats.detected_by_all
        assert stats.max_latency < 1.0

    def test_rounds_keep_terminating_after_f_crashes(self):
        plan = FaultPlan.of(crashes=[CrashFault(5, 1.0), CrashFault(6, 1.0)])
        cluster = build(6, 2, fault_plan=plan)
        cluster.run(until=10.0)
        late_rounds = [r for r in cluster.trace.rounds if r.finished_at > 2.0]
        live = cluster.correct_processes()
        assert {r.querier for r in late_rounds} == live


class TestQuorumStarvation:
    def test_more_crashes_than_f_wedges_rounds_not_the_simulator(self):
        # Model violation: 3 crashes with f = 2.  Survivors' queries can
        # never gather n - f = 4 responses from the 3 live processes; the
        # protocol blocks (by design) and the run simply drains.
        plan = FaultPlan.of(
            crashes=[CrashFault(4, 1.0), CrashFault(5, 1.0), CrashFault(6, 1.0)]
        )
        cluster = build(6, 2, fault_plan=plan)
        cluster.run(until=10.0)
        late_rounds = [r for r in cluster.trace.rounds if r.finished_at > 2.0]
        assert late_rounds == []


class TestEventualWeakAccuracy:
    # The accuracy guarantee is *conditional on RP actually holding*: some
    # process's communication must genuinely be faster than its neighbors'.
    # A bounded-but-highly-variable base delay with an 8x faster favored
    # process realises RP deterministically (under unbounded i.i.d. heavy
    # tails RP fails with positive probability each round — see F2b, which
    # measures exactly that).
    def _rp_latency(self):
        from repro.sim.latency import UniformLatency

        return BiasedLatency(
            UniformLatency(0.001, 0.02),
            favored=frozenset({1}),
            speedup=8.0,
            bidirectional=True,
        )

    def test_responsive_process_is_never_suspected(self):
        cluster = build(8, 3, latency=self._rp_latency(), grace=0.01, idle=0.05)
        cluster.run(until=30.0)
        for pid in cluster.correct_processes():
            intervals = cluster.trace.suspicion_intervals(pid, 1, horizon=30.0)
            assert intervals == [], f"observer {pid} wrongly suspected the RP process"

    def test_mp_oracle_certifies_the_biased_run(self):
        cluster = build(8, 3, latency=self._rp_latency(), grace=0.01, idle=0.05)
        cluster.run(until=30.0)
        witness = find_mp_witness(
            cluster.trace.rounds, f=3, correct=cluster.correct_processes(), min_suffix=5
        )
        assert witness is not None
        assert witness.responder == 1

    def test_false_suspicions_self_correct(self):
        # Without bias and with a tight grace, transient false suspicions
        # happen — and every one must be corrected by the mistake machinery
        # (no pair may remain wrongly suspected once delays quiet down).
        cluster = build(8, 3, latency=LogNormalLatency(0.005, 1.5), grace=0.01, idle=0.05)
        cluster.run(until=30.0)
        stats = mistake_stats(cluster.trace, cluster.correct_processes(), horizon=30.0)
        if stats.count:
            stabilization = accuracy_stabilization(
                cluster.trace, cluster.correct_processes(), horizon=30.0
            )
            # Some process stabilized (EWA) even in the unbiased run.
            assert any(v is not None for v in stabilization.values())

    def test_crash_of_the_favored_process_does_not_break_completeness(self):
        latency = BiasedLatency(
            ExponentialLatency(0.001),
            favored=frozenset({1}),
            speedup=8.0,
            bidirectional=True,
        )
        plan = FaultPlan.of(crashes=[CrashFault(1, 3.0)])
        cluster = build(6, 2, fault_plan=plan, latency=latency)
        cluster.run(until=15.0)
        for pid in cluster.correct_processes():
            assert 1 in cluster.suspects_of(pid)


class TestPropagationMachinery:
    def test_mistake_information_spreads_to_everyone(self):
        # Force one false suspicion by pausing a process's responses via a
        # one-shot mobility-style detach, then verify every node clears it.
        from repro.sim.faults import MobilityFault

        plan = FaultPlan.of(moves=[MobilityFault(3, depart=2.0, arrive=4.0)])
        cluster = build(6, 2, fault_plan=plan, grace=0.2)
        cluster.run(until=3.9)
        suspected_somewhere = any(
            3 in cluster.suspects_of(pid) for pid in cluster.membership if pid != 3
        )
        assert suspected_somewhere
        cluster.run(until=15.0)
        for pid in cluster.membership:
            if pid == 3:
                continue
            assert 3 not in cluster.suspects_of(pid)

    def test_counters_increase_monotonically_per_process(self):
        cluster = build(5, 2)
        cluster.run(until=5.0)
        for driver in cluster.drivers.values():
            detector = driver.detector
            assert detector.counter >= detector.rounds_completed

    def test_suspicion_state_invariants_hold_at_end(self):
        plan = FaultPlan.of(crashes=[CrashFault(5, 2.0)])
        cluster = build(6, 2, fault_plan=plan, latency=LogNormalLatency(0.003, 1.0))
        cluster.run(until=10.0)
        for pid, driver in cluster.drivers.items():
            assert driver.detector.state.invariant_violations() == []
