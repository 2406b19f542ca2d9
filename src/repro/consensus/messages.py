"""Wire messages of the rotating-coordinator consensus protocols.

The five ballot kinds (``ct.*``) are shared by every registered protocol —
they carry round-scoped payloads, not protocol identity.  On the wire every
ballot, of every instance, travels wrapped in an :class:`InstanceEnvelope`
(kind ``consensus.instance``), so one pair of co-hosted stacks can run a
whole sequence of consensus instances over the same transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.messages import register_message
from ..ids import ProcessId

__all__ = ["Estimate", "Proposal", "Ack", "Nack", "Decide", "InstanceEnvelope"]


@register_message("ct.estimate")
@dataclass(frozen=True, slots=True)
class Estimate:
    """Phase 1: a participant's current estimate, sent to the coordinator.

    ``ts`` is the round in which the estimate was last adopted from a
    coordinator (0 for the initial value); the coordinator picks an
    estimate with maximal ``ts`` — the locking rule behind agreement.
    """

    sender: ProcessId
    round: int
    value: Any
    ts: int


@register_message("ct.proposal")
@dataclass(frozen=True, slots=True)
class Proposal:
    """Phase 2: the coordinator's proposal for its round."""

    sender: ProcessId
    round: int
    value: Any


@register_message("ct.ack")
@dataclass(frozen=True, slots=True)
class Ack:
    """Phase 3: the participant adopted the round's proposal."""

    sender: ProcessId
    round: int


@register_message("ct.nack")
@dataclass(frozen=True, slots=True)
class Nack:
    """Phase 3: the participant suspected the coordinator and moved on."""

    sender: ProcessId
    round: int


@register_message("ct.decide")
@dataclass(frozen=True, slots=True)
class Decide:
    """Reliable broadcast of the decision (relayed once by every receiver)."""

    sender: ProcessId
    value: Any


@register_message("consensus.instance")
@dataclass(frozen=True, slots=True)
class InstanceEnvelope:
    """A ballot of consensus instance ``instance`` (≥ 1), enveloped.

    The payload is one of the five ballot kinds above; the composite node
    driver routes it to the matching participant, buffering ballots that
    arrive before the local participant has proposed (CT drops pre-propose
    ballots, which would strand early deciders' traffic).
    """

    instance: int
    payload: Any

    @property
    def sender(self) -> ProcessId | None:
        """The ballot's sender, so a transport can dispatch the envelope.

        Derived, not a field: the wire form is unchanged.
        """
        return getattr(self.payload, "sender", None)
