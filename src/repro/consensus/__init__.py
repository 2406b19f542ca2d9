"""Consensus — the workload plane the detector exists for.

Chandra & Toueg proved that consensus is solvable in an asynchronous system
augmented with a ◇S failure detector when a majority of processes is
correct.  This package implements their rotating-coordinator protocol as a
sans-I/O state machine (:mod:`repro.consensus.protocol`), an Ω-based
early-deciding variant (:mod:`repro.consensus.omega_protocol`), and a
string-keyed plugin registry (:mod:`repro.consensus.registry`, the same
:class:`~repro.registry.Registry` as the detector registry): protocols are
:class:`ConsensusSpec` entries with typed params and a ``factory(context,
params, oracle)`` building one process's participant.

The simulation harness (:mod:`repro.consensus.sim_runner`) co-hosts any
registered detector with any registered protocol on each simulated node and
supports repeated multi-instance runs with a per-instance decision ledger.
The t4 experiment compares decision latency across detectors; c1 measures
decision latency and aborted rounds against detector QoS under the fault
scenarios.
"""

from .builtin import CT_SPEC, OMEGA_SPEC, ChandraTouegParams, OmegaParams
from .messages import Ack, Decide, Estimate, InstanceEnvelope, Nack, Proposal
from .omega_protocol import OmegaConsensus
from .protocol import ChandraTouegConsensus, ConsensusConfig
from .registry import (
    all_protocols,
    build_protocol,
    get_protocol,
    protocol_keys,
    register_protocol,
)
from .sim_runner import (
    ConsensusHarness,
    ConsensusNodeDriver,
    ConsensusRunResult,
    InstanceOutcome,
)
from .spec import ConsensusContext, ConsensusOracle, ConsensusSpec, oracle_from_suspects

__all__ = [
    "Ack",
    "CT_SPEC",
    "ChandraTouegConsensus",
    "ChandraTouegParams",
    "ConsensusConfig",
    "ConsensusContext",
    "ConsensusHarness",
    "ConsensusNodeDriver",
    "ConsensusOracle",
    "ConsensusRunResult",
    "ConsensusSpec",
    "Decide",
    "Estimate",
    "InstanceEnvelope",
    "InstanceOutcome",
    "Nack",
    "OMEGA_SPEC",
    "OmegaConsensus",
    "OmegaParams",
    "Proposal",
    "all_protocols",
    "build_protocol",
    "get_protocol",
    "oracle_from_suspects",
    "protocol_keys",
    "register_protocol",
]
