"""Application-level consensus QoS — the metric detector QoS should predict.

The QoS literature (Chen-Toueg-Aguilera for the detector side; Reis &
Vieira for the application side) frames detector quality as a *proxy*: what
an application actually experiences is decision latency and wasted rounds.
This module summarises a
:class:`~repro.consensus.sim_runner.ConsensusRunResult`'s per-instance
ledger into exactly those numbers, plus the consensus share of the message
load read off the run trace (every ballot travels in one
``consensus.instance`` envelope, so that share is one trace kind).

All statistics are over **correct** processes (per the run's ground
truth) and over instances that every correct process decided; open
instances are reported as undecided, never silently dropped from counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExperimentError

__all__ = ["ConsensusStats", "consensus_stats", "consensus_message_load"]


@dataclass(frozen=True)
class ConsensusStats:
    """Ledger summary of one multi-instance consensus run."""

    #: instances the run attempted
    instances: int
    #: instances every correct process decided
    decided: int
    #: mean/max of per-instance decision latency (first correct propose to
    #: last correct decision), over decided instances; ``None`` if none
    latency_mean: float | None
    latency_max: float | None
    #: mean first-decider round over decided instances (1 = fast path)
    rounds_mean: float | None
    #: worst per-process nack count of any instance (rounds aborted on the
    #: oracle's word)
    aborted_rounds: int
    #: total phase-3 nacks issued by correct processes, all instances
    nacks: int
    #: safety, over every instance (uniform agreement / validity)
    agreement: bool
    validity: bool


def consensus_stats(result) -> ConsensusStats:
    """Summarise a run result's instance ledger."""
    outcomes = result.instances
    decided = [out for out in outcomes if out.all_correct_decided]
    latencies = [
        out.decision_latency for out in decided if out.decision_latency is not None
    ]
    rounds = [
        out.rounds_to_decide for out in decided if out.rounds_to_decide is not None
    ]
    return ConsensusStats(
        instances=len(outcomes),
        decided=len(decided),
        latency_mean=sum(latencies) / len(latencies) if latencies else None,
        latency_max=max(latencies) if latencies else None,
        rounds_mean=sum(rounds) / len(rounds) if rounds else None,
        aborted_rounds=max((out.aborted_rounds for out in outcomes), default=0),
        nacks=sum(out.nacks for out in outcomes),
        agreement=all(out.agreement_holds for out in outcomes),
        validity=all(out.validity_holds for out in outcomes),
    )


def consensus_message_load(trace, *, horizon: float, n: int) -> float:
    """Consensus messages per second per process.

    Counts the ``consensus.instance`` envelopes recorded on the trace (every
    instance's ballots travel in one) — the price the workload pays on top
    of the detector's own load (which :func:`repro.metrics.message_load`
    reports by kind).
    """
    if horizon <= 0 or n <= 0:
        raise ExperimentError("horizon and n must be positive")
    return trace.messages_by_kind["consensus.instance"] / horizon / n
