"""String-keyed plugin registry of consensus protocols.

:data:`PROTOCOLS` is one :class:`~repro.registry.Registry`, the class the
detector, experiment and fault-scenario registries share (the lookup and
order rules are documented there): a protocol registers a
:class:`~repro.consensus.spec.ConsensusSpec` under a stable lower-case
key, and every consumer — the generic
:class:`~repro.consensus.sim_runner.ConsensusHarness`, the ``c1``/``t4``
experiments, the ``repro protocols`` CLI listing, the registry-parametrized
conformance battery — resolves protocols by key instead of importing
concrete classes.

The two built-in protocols (:mod:`repro.consensus.builtin`: Chandra-Toueg
◇S and Ω early-deciding) are registered on first lookup; external code can
register additional protocols (e.g. Paxos-style or chain-replication
variants) at import time with :func:`register_protocol` and they become
runnable over every registered detector for free.
"""

from __future__ import annotations

from typing import Any

from ..registry import Registry
from .spec import ConsensusContext, ConsensusOracle, ConsensusSpec

__all__ = [
    "PROTOCOLS",
    "register_protocol",
    "get_protocol",
    "all_protocols",
    "protocol_keys",
    "build_protocol",
]

PROTOCOLS: Registry[ConsensusSpec] = Registry(
    "consensus protocol", "key", dict.fromkeys(("ct", "omega"), "repro.consensus.builtin")
)

register_protocol = PROTOCOLS.register
#: the spec registered under a key (case-insensitive)
get_protocol = PROTOCOLS.get
#: every registered protocol, built-ins in key order, then plugins
all_protocols = PROTOCOLS.all
protocol_keys = PROTOCOLS.keys


def build_protocol(
    key: str,
    context: ConsensusContext,
    oracle: ConsensusOracle,
    params: Any | None = None,
    /,
    **overrides: Any,
) -> Any:
    """Build one process's participant for the protocol registered under ``key``."""
    return get_protocol(key).build(context, oracle, params, **overrides)
