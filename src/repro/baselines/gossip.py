"""The Friedman-Tcharny gossip heartbeat detector (baseline for MANETs).

Re-implemented from its description in the follow-up report's evaluation
(Section 6): every Δ time units a node increments its own entry of a
heartbeat *vector* and broadcasts the vector to its 1-hop neighbors; on
reception, vectors are merged entry-wise with ``max``.  A node arms a timer
of Θ per peer whenever it learns a *new* (higher) heartbeat for that peer,
and suspects the peer when the timer expires.  Vectors flood through the
network, so the detector works on partially-connected topologies, but the
detection rule is still a timeout: detection time sits in ``[Θ - Δ, Θ]``
regardless of topology density — the flat curve of the report's Figure 2.

The system's composition (the id space of the vector) is assumed known, as
in the original algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.effects import Broadcast, Effect
from ..core.messages import register_message
from ..errors import ConfigurationError
from ..ids import ProcessId, validate_membership
from .timers import PeerTimers

__all__ = ["GossipHeartbeat", "GossipHeartbeatDetector"]


@register_message("hb.gossip")
@dataclass(frozen=True, slots=True)
class GossipHeartbeat:
    """A full heartbeat vector: highest heartbeat known per process."""

    sender: ProcessId
    vector: tuple[tuple[ProcessId, int], ...]


class GossipHeartbeatDetector:
    """Sans-I/O Friedman-Tcharny core (host with a timed driver)."""

    def __init__(
        self,
        process_id: ProcessId,
        membership: frozenset[ProcessId],
        *,
        period: float = 1.0,
        timeout: float = 2.0,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period}")
        if timeout <= period:
            raise ConfigurationError(
                f"timeout must exceed period (Θ > Δ), got Θ={timeout}, Δ={period}"
            )
        members = validate_membership(membership, process_id=process_id)
        self._pid = process_id
        self._peers = members - {process_id}
        self.period = period
        self.timeout = timeout
        #: kept in the order beats carry it (``repr`` of the id)
        self._vector: dict[ProcessId, int] = {
            pid: 0 for pid in sorted(members, key=repr)
        }
        self._timers = PeerTimers(self._peers)
        self._next_beat: float | None = None
        self._started = False

    # ------------------------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self._pid

    @property
    def name(self) -> str:
        return "gossip-heartbeat"

    def suspects(self) -> frozenset[ProcessId]:
        return self._timers.suspects()

    def heartbeat_vector(self) -> dict[ProcessId, int]:
        return dict(self._vector)

    # -- core interface ----------------------------------------------------
    def start(self, now: float) -> list[Effect]:
        self._started = True
        self._timers.arm_all({p: now + self.timeout for p in self._peers})
        return self._emit_beat(now)

    def on_message(self, now: float, sender: ProcessId, message: object) -> list[Effect]:
        if not isinstance(message, GossipHeartbeat):
            return []
        vector = self._vector
        for pid, beat in message.vector:
            known = vector.get(pid)  # None: not a member
            if known is not None and beat > known and pid != self._pid:
                # New information about pid (possibly relayed multi-hop):
                # refresh its timer and clear any suspicion.
                vector[pid] = beat
                self._timers.refresh(pid, now + self.timeout)
        return []

    def on_wakeup(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        if self._next_beat is not None and now >= self._next_beat:
            effects.extend(self._emit_beat(now))
        self._timers.expire(now)
        return effects

    def next_wakeup(self) -> float | None:
        if not self._started:
            return None
        deadline = self._timers.next_deadline()
        # started, so the beat timer is armed
        if deadline is None or self._next_beat <= deadline:
            return self._next_beat
        return deadline

    # ------------------------------------------------------------------
    def _emit_beat(self, now: float) -> list[Effect]:
        self._vector[self._pid] += 1
        self._next_beat = now + self.period
        vector = tuple(self._vector.items())
        return [Broadcast(GossipHeartbeat(sender=self._pid, vector=vector))]
