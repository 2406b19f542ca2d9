"""Consensus over real (simulated) failure detectors, end to end."""

import pytest

from repro.consensus import ConsensusHarness
from repro.errors import ConfigurationError, SimulationError
from repro.sim import ExponentialLatency
from repro.sim.faults import CrashFault, FaultPlan


def harness(
    n=5, f=2, *, detector="time-free", detector_params=None,
    fault_plan=None, seed=1, proposals=None,
):
    if detector_params is None:
        detector_params = {"grace": 0.05}
    return ConsensusHarness(
        n=n,
        f=f,
        detector=detector,
        detector_params=detector_params,
        latency=ExponentialLatency(0.001),
        seed=seed,
        fault_plan=fault_plan,
        proposals=proposals,
        propose_at=0.01,
    )


class TestFaultFree:
    def test_all_decide_quickly_with_agreement_and_validity(self):
        result = harness().run(until=30.0)
        assert result.all_correct_decided
        assert result.agreement_holds
        assert result.validity_holds
        assert result.last_decision_time < 1.0

    def test_custom_proposals_respected(self):
        proposals = {pid: pid * 100 for pid in range(1, 6)}
        result = harness(proposals=proposals).run(until=30.0)
        assert set(result.decisions.values()) <= set(proposals.values())

    def test_single_round_suffices(self):
        result = harness().run(until=30.0)
        assert max(result.rounds_executed.values()) <= 2


class TestCoordinatorCrash:
    def test_crash_before_proposing(self):
        plan = FaultPlan.of(crashes=[CrashFault(1, 0.001)])
        result = harness(fault_plan=plan).run(until=60.0)
        assert result.all_correct_decided
        assert result.agreement_holds
        assert result.validity_holds

    def test_two_consecutive_coordinators_crash(self):
        plan = FaultPlan.of(crashes=[CrashFault(1, 0.001), CrashFault(2, 0.001)])
        result = harness(fault_plan=plan).run(until=60.0)
        assert result.all_correct_decided
        assert result.agreement_holds
        # Rounds 1 and 2 both stall on dead coordinators; round 3 decides.
        assert max(
            r for pid, r in result.rounds_executed.items() if pid in result.correct
        ) >= 2

    def test_crash_mid_run_of_non_coordinator(self):
        plan = FaultPlan.of(crashes=[CrashFault(4, 0.05)])
        result = harness(fault_plan=plan).run(until=60.0)
        assert result.all_correct_decided
        assert result.agreement_holds

    def test_decision_faster_than_heartbeat_timeout(self):
        # The motivating comparison: recovery speed is one query round for
        # the time-free detector vs a full Θ for the heartbeat detector.
        plan = FaultPlan.of(crashes=[CrashFault(1, 0.001)])
        tf = harness(fault_plan=plan, seed=2).run(until=60.0)
        hb = harness(
            detector="heartbeat",
            detector_params={"period": 0.5, "timeout": 1.0},
            fault_plan=plan,
            seed=2,
        ).run(until=60.0)
        assert tf.all_correct_decided and hb.all_correct_decided
        assert tf.last_decision_time < hb.last_decision_time


class TestSafetyUnderBadDetectors:
    def test_agreement_even_with_wildly_wrong_suspicions(self):
        # Safety must not depend on detector quality: use a heartbeat with
        # an absurdly aggressive timeout (constant false suspicions).
        result = harness(
            detector="heartbeat", detector_params={"period": 0.5, "timeout": 0.0001}
        ).run(until=60.0)
        assert result.agreement_holds
        assert result.validity_holds
        # Termination is *not* asserted: ◇S accuracy is genuinely violated.


class TestConfigValidation:
    def test_majority_requirement(self):
        with pytest.raises(ConfigurationError):
            harness(n=4, f=2)

    def test_missing_proposits_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsensusHarness(n=3, f=1, proposals={1: "a"})


class TestTeardown:
    def test_a_harness_runs_once(self):
        runner = harness()
        result = runner.run(until=5.0)
        assert result.all_correct_decided
        assert runner.cluster.trace.messages_total > 0
        with pytest.raises(SimulationError, match="closed"):
            runner.run(until=10.0)

    def test_every_node_driver_is_released(self):
        runner = harness()
        runner.run(until=5.0)
        for driver in runner.cluster.drivers.values():
            assert driver.fd_driver.suspicion_listeners == []
            assert driver.fd_driver.round_listeners == []
            assert driver._proposal_for is None and driver._on_decide is None
