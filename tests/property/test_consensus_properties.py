"""Property-based consensus correctness over randomized runs.

Safety (agreement, validity) must hold for *every* seed, crash pattern and
proposal assignment; termination additionally needs the model's
assumptions (f < n/2, ◇S behavior) which the scenario guarantees.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import ConsensusHarness
from repro.experiments.scenarios import Scenario
from repro.sim import ExponentialLatency
from repro.sim.faults import CrashFault, FaultPlan


@st.composite
def consensus_scenarios(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    f = draw(st.integers(min_value=1, max_value=max(1, (n - 1) // 2)))
    crash_count = draw(st.integers(min_value=0, max_value=f))
    victims = draw(
        st.lists(
            st.integers(min_value=1, max_value=n),
            min_size=crash_count,
            max_size=crash_count,
            unique=True,
        )
    )
    crash_times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0),
            min_size=crash_count,
            max_size=crash_count,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=100_000))
    return n, f, list(zip(victims, crash_times)), seed


class TestConsensusProperties:
    @given(consensus_scenarios())
    @settings(max_examples=15, deadline=None)
    def test_agreement_validity_termination(self, scenario):
        n, f, crashes, seed = scenario
        plan = FaultPlan.of(
            crashes=[CrashFault(pid, time) for pid, time in crashes]
        )
        harness = ConsensusHarness(
            Scenario(
                detector="time-free",
                detector_params={"grace": 0.05},
                n=n,
                f=f,
                latency=ExponentialLatency(0.001),
                fault_plan=plan,
                seed=seed,
                start_stagger=0.0,
                horizon=120.0,
            ),
            propose_at=0.01,
        )
        result = harness.run()
        assert result.agreement_holds
        assert result.validity_holds
        assert result.instances[0].all_correct_decided

    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        values=st.lists(st.integers(), min_size=5, max_size=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_decision_is_some_proposed_value(self, seed, values):
        proposals = {pid: values[pid - 1] for pid in range(1, 6)}
        harness = ConsensusHarness(
            Scenario(
                detector="time-free",
                detector_params={"grace": 0.05},
                n=5,
                f=2,
                latency=ExponentialLatency(0.001),
                seed=seed,
                start_stagger=0.0,
                horizon=60.0,
            ),
            proposals=proposals,
            propose_at=0.01,
        )
        outcome = harness.run().instances[0]
        assert outcome.all_correct_decided
        decided = set(outcome.decisions.values())
        assert len(decided) == 1
        assert decided <= set(values)
