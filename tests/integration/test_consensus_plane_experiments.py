"""Integration tests for the c1 consensus-workload presets.

Pins each fault preset's artifact byte-for-byte against the committed
consensus goldens (``tests/goldens/consensus/<preset>/BENCH_C1.json``) and
asserts the headline acceptance properties: decision latency separates
detector families under ``coordcrash``, aborted rounds separate oracle
styles under ``partition``, and agreement + validity hold in every cell of
every preset.
"""

from functools import lru_cache

import pytest

from repro.harness import run_grid, write_artifact
from repro.harness.registry import get_spec

from tests.goldens import CONSENSUS_PRESETS, GOLDEN_DIR, consensus_params


@lru_cache(maxsize=None)
def _consensus_run(preset: str):
    return run_grid(get_spec("c1"), consensus_params()[preset])


def _metric_by_detector(result, metric: str) -> dict:
    return {
        outcome.coords["detector"]: outcome.value[metric]
        for outcome in result.outcomes
    }


@pytest.mark.parametrize("preset", CONSENSUS_PRESETS)
class TestConsensusGoldens:
    def test_artifact_is_byte_identical_to_golden(self, preset, tmp_path):
        path = write_artifact(tmp_path, _consensus_run(preset))
        golden = GOLDEN_DIR / "consensus" / preset / path.name
        assert golden.exists(), (
            f"missing consensus golden for {preset!r}; "
            "run `python -m tests.goldens.regenerate`"
        )
        assert path.read_bytes() == golden.read_bytes(), (
            f"c1[{preset}]: artifact drifted from the committed golden — a "
            "protocol, fault-schedule, seed or scoring change is observable; "
            "regenerate only if intended"
        )

    def test_preset_constructor_matches_golden_params(self, preset):
        from repro.experiments.c1_consensus_qos import C1Params

        built = getattr(C1Params, preset)()
        assert built.faults == (preset,)
        assert get_spec("c1").make_params(preset=preset).faults == (preset,)

    def test_safety_holds_in_every_cell(self, preset):
        # Consensus safety must not depend on detector quality: whatever the
        # oracle said under this fault schedule, no two processes ever
        # decided differently and every decision was somebody's proposal.
        for outcome in _consensus_run(preset).outcomes:
            assert outcome.value["agreement"] is True, outcome.coords
            assert outcome.value["validity"] is True, outcome.coords

    def test_every_cell_reports_workload_metrics(self, preset):
        for outcome in _consensus_run(preset).outcomes:
            value = outcome.value
            assert 0 <= value["decided"] <= 3
            assert value["aborted_rounds"] >= 0
            assert value["consensus_msgs_per_s"] >= 0.0
            if value["query_accuracy"] is not None:
                assert 0.0 <= value["query_accuracy"] <= 1.0


class TestWorkloadSeparation:
    """Acceptance: decision latency / aborted rounds separate >= 3 families."""

    def test_coordcrash_latency_separates_three_families(self):
        # With the round-1 coordinator dead at start the first instance
        # pays each family's full detection latency: query families wait
        # ~one round (Δ + δ), heartbeat waits ~Θ, phi-accrual longer still.
        latency = _metric_by_detector(_consensus_run("coordcrash"), "latency_max")
        assert all(value is not None for value in latency.values()), latency
        distinct = {round(value, 1) for value in latency.values()}
        assert len(distinct) >= 3, (
            f"c1[coordcrash]: latency separates only {len(distinct)} "
            f"families: {latency}"
        )

    def test_coordcrash_query_families_recover_fastest(self):
        latency = _metric_by_detector(_consensus_run("coordcrash"), "latency_max")
        for query_family in ("time-free", "partial"):
            for timed_family in ("heartbeat", "gossip", "phi"):
                assert latency[query_family] < latency[timed_family]

    def test_partition_aborted_rounds_separate_oracle_styles(self):
        # Timer families accuse the unreachable side and churn through
        # nacked rounds; the quorum (query) families just stall — zero
        # oracle-aborted rounds.
        aborted = _metric_by_detector(_consensus_run("partition"), "aborted_rounds")
        assert aborted["time-free"] == 0
        assert aborted["partial"] == 0
        timed = [v for k, v in aborted.items() if k not in ("time-free", "partial")]
        assert timed and all(v >= 3 for v in timed), aborted

    def test_partition_strands_the_in_flight_instance(self):
        # No side of an even split has a majority, and ballots lost inside
        # the window are never retransmitted (crash-stop CT): the instance
        # proposed mid-split stays open for every family.
        decided = _metric_by_detector(_consensus_run("partition"), "decided")
        assert set(decided.values()) == {2}, decided

    def test_crashrec_decisions_recover_via_anti_entropy(self):
        # The volatile victim loses all consensus state; the decision push
        # on suspicion retraction lets it rejoin the sequence, so every
        # family completes all three instances — at recovery-bound latency.
        result = _consensus_run("crashrec")
        decided = _metric_by_detector(result, "decided")
        assert set(decided.values()) == {3}, decided
        latency = _metric_by_detector(result, "latency_max")
        assert all(value > 1.0 for value in latency.values()), latency


class TestOpenFindings:
    """What the two open consensus findings should become once fixed.

    Strict: the day a fix makes one pass, the xfail fails and has to go.
    """

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "docs/consensus.md, `partition`: ballots lost inside the split "
            "are never retransmitted, so the in-flight instance is stranded "
            "for every family (2 of 3 decided)"
        ),
    )
    def test_partition_every_family_decides_every_instance(self):
        decided = _metric_by_detector(_consensus_run("partition"), "decided")
        assert set(decided.values()) == {3}, decided

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "docs/consensus.md, `churn`: phi-accrual never suspects a process "
            "it has no heartbeat samples from, so consensus deadlocks "
            "(0 decided)"
        ),
    )
    def test_churn_phi_accrual_decides(self):
        decided = _metric_by_detector(_consensus_run("churn"), "decided")
        assert decided["phi"] >= 1, decided
