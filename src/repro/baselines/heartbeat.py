"""All-to-all heartbeat failure detection with timeouts.

The classical implementation style the paper contrasts with: every Δ
(``period``) each process broadcasts ``I am alive``; each process arms a
timer of Θ (``timeout``) per peer and suspects a peer whose timer expires.
Detection time is therefore bounded by construction inside ``[Θ - Δ, Θ]`` —
flat, and entirely determined by the chosen timeout rather than by actual
network conditions.

The optional *adaptive* mode implements the textbook ◇P adaptation: every
time a suspicion is revealed to be false (a heartbeat arrives from a
suspected peer) the peer's timeout grows by ``timeout_increment``, so in
any run with eventually-bounded delays the detector stops making mistakes.
Under genuinely unbounded (heavy-tailed) delays no increment schedule
saves it — which experiment F2 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.effects import Broadcast, Effect
from ..core.messages import register_message
from ..errors import ConfigurationError
from ..ids import ProcessId, validate_membership
from .timers import PeerTimers

__all__ = ["Heartbeat", "HeartbeatDetector"]


@register_message("hb.beat")
@dataclass(frozen=True, slots=True)
class Heartbeat:
    """``I am alive`` — sequence numbers detect reordered stale beats."""

    sender: ProcessId
    seq: int


class HeartbeatDetector:
    """Sans-I/O heartbeat detector core (host with a timed driver)."""

    def __init__(
        self,
        process_id: ProcessId,
        membership: frozenset[ProcessId],
        *,
        period: float = 1.0,
        timeout: float = 2.0,
        adaptive: bool = False,
        timeout_increment: float = 0.5,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period}")
        if timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        if timeout_increment < 0:
            raise ConfigurationError(
                f"timeout_increment must be >= 0, got {timeout_increment}"
            )
        members = validate_membership(membership, process_id=process_id)
        self._pid = process_id
        self._peers = members - {process_id}
        self.period = period
        self.adaptive = adaptive
        self.timeout_increment = timeout_increment
        self._timeouts: dict[ProcessId, float] = {p: timeout for p in self._peers}
        self._timers = PeerTimers(self._peers)
        self._last_seq: dict[ProcessId, int] = {}
        self._seq = 0
        self._next_beat: float | None = None
        self._started = False

    # ------------------------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self._pid

    @property
    def name(self) -> str:
        return "heartbeat(adaptive)" if self.adaptive else "heartbeat"

    def suspects(self) -> frozenset[ProcessId]:
        return self._timers.suspects()

    def timeout_of(self, peer: ProcessId) -> float:
        """Current per-peer timeout (grows in adaptive mode)."""
        return self._timeouts[peer]

    # -- core interface ----------------------------------------------------
    def start(self, now: float) -> list[Effect]:
        self._started = True
        self._timers.arm_all({p: now + self._timeouts[p] for p in self._peers})
        return self._emit_beat(now)

    def on_message(self, now: float, sender: ProcessId, message: object) -> list[Effect]:
        if not isinstance(message, Heartbeat) or sender not in self._peers:
            return []
        if message.seq <= self._last_seq.get(sender, -1):
            return []  # stale, reordered beat
        self._last_seq[sender] = message.seq
        if self.adaptive and self._timers.is_suspected(sender):
            # A false suspicion: the timeout was too aggressive.
            self._timeouts[sender] += self.timeout_increment
        self._timers.refresh(sender, now + self._timeouts[sender])
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
        self._seq += 1
        self._next_beat = now + self.period
        return [Broadcast(Heartbeat(sender=self._pid, seq=self._seq))]
