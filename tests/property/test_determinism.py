"""Simulator determinism: same seed in, identical trace out.

Reproducibility is the simulator's core contract — every experiment table
(README, "Experiments"; docs/scenarios.md) depends on it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import sim_driver_factory
from repro.sim import LogNormalLatency, SimCluster
from repro.sim.faults import CrashFault, FaultPlan


def run_once(seed, n, f, crash_time, *, detector="time-free", horizon=6.0):
    if detector == "time-free":
        factory = sim_driver_factory("time-free", f, grace=0.05)
    else:
        factory = sim_driver_factory("heartbeat", f, period=0.3, timeout=0.7)
    cluster = SimCluster(
        n=n,
        driver_factory=factory,
        latency=LogNormalLatency(0.002, 1.0),
        seed=seed,
        fault_plan=FaultPlan.of(crashes=[CrashFault(n, crash_time)]),
        start_stagger=0.1,
    )
    cluster.run(until=horizon)
    return cluster


def trace_fingerprint(cluster):
    trace = cluster.trace
    return (
        tuple(trace.suspicion_changes),
        tuple(trace.rounds),
        trace.messages_total,
        tuple(sorted(trace.messages_by_kind.items())),
    )


class TestDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=3, max_value=7),
        crash_time=st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_time_free_trace_is_reproducible(self, seed, n, crash_time):
        f = max(1, n // 3)
        first = run_once(seed, n, f, crash_time)
        second = run_once(seed, n, f, crash_time)
        assert trace_fingerprint(first) == trace_fingerprint(second)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_heartbeat_trace_is_reproducible(self, seed):
        first = run_once(seed, 5, 1, 1.0, detector="heartbeat")
        second = run_once(seed, 5, 1, 1.0, detector="heartbeat")
        assert trace_fingerprint(first) == trace_fingerprint(second)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        other=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=5, deadline=None)
    def test_different_seeds_give_different_message_timings(self, seed, other):
        if seed == other:
            return
        first = run_once(seed, 5, 1, 1.0)
        second = run_once(other, 5, 1, 1.0)
        # Suspicion *logic* may coincide, but the exact round timings of a
        # seeded lognormal delay model essentially never do.
        assert trace_fingerprint(first) != trace_fingerprint(second)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_final_suspect_sets_are_reproducible(self, seed):
        first = run_once(seed, 6, 2, 1.5)
        second = run_once(seed, 6, 2, 1.5)
        for pid in first.membership:
            if pid in first.correct_processes():
                assert first.suspects_of(pid) == second.suspects_of(pid)
