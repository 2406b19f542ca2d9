"""Reference model of the timer-based cores: the per-call scans.

These are ``HeartbeatDetector`` / ``GossipHeartbeatDetector`` /
``PhiAccrualDetector`` as they stood before the peer-timer table: every
``next_wakeup()`` scans every peer's deadline, every ``on_wakeup`` re-sorts
the peers by ``repr``, every ``suspects()`` builds a fresh ``frozenset`` and
every ``phi()`` recomputes the window's mean and variance.  The class bodies
are verbatim; only the class names changed.  They are the oracle the
production cores must match call for call: equal ``suspects()``, equal
``next_wakeup()``, equal effect lists and bit-equal ``phi``
(``tests/property/test_timed_core_differential.py``).

The wire messages (``Heartbeat`` / ``GossipHeartbeat``) are the production
classes: the two sides of the differential are fed the same objects.
"""

from __future__ import annotations

import math
from collections import deque

from repro.baselines.gossip import GossipHeartbeat
from repro.baselines.heartbeat import Heartbeat
from repro.core.effects import Broadcast, Effect
from repro.errors import ConfigurationError
from repro.ids import ProcessId, validate_membership

__all__ = [
    "ReferenceGossipHeartbeatDetector",
    "ReferenceHeartbeatDetector",
    "ReferencePhiAccrualDetector",
]


class ReferenceHeartbeatDetector:
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
        self._deadlines: dict[ProcessId, float] = {}
        self._last_seq: dict[ProcessId, int] = {}
        self._suspected: set[ProcessId] = set()
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
        return frozenset(self._suspected)

    def timeout_of(self, peer: ProcessId) -> float:
        """Current per-peer timeout (grows in adaptive mode)."""
        return self._timeouts[peer]

    # -- core interface ----------------------------------------------------
    def start(self, now: float) -> list[Effect]:
        self._started = True
        self._deadlines = {p: now + self._timeouts[p] for p in self._peers}
        return self._emit_beat(now)

    def on_message(self, now: float, sender: ProcessId, message: object) -> list[Effect]:
        if not isinstance(message, Heartbeat) or sender not in self._peers:
            return []
        if message.seq <= self._last_seq.get(sender, -1):
            return []  # stale, reordered beat
        self._last_seq[sender] = message.seq
        if sender in self._suspected:
            self._suspected.discard(sender)
            if self.adaptive:
                # A false suspicion: the timeout was too aggressive.
                self._timeouts[sender] += self.timeout_increment
        self._deadlines[sender] = now + self._timeouts[sender]
        return []

    def on_wakeup(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        if self._next_beat is not None and now >= self._next_beat:
            effects.extend(self._emit_beat(now))
        for peer in sorted(self._peers, key=repr):
            if peer in self._suspected:
                continue
            deadline = self._deadlines.get(peer)
            if deadline is not None and now >= deadline:
                self._suspected.add(peer)
        return effects

    def next_wakeup(self) -> float | None:
        if not self._started:
            return None
        candidates = [
            deadline
            for peer, deadline in self._deadlines.items()
            if peer not in self._suspected
        ]
        if self._next_beat is not None:
            candidates.append(self._next_beat)
        return min(candidates, default=None)

    # ------------------------------------------------------------------
    def _emit_beat(self, now: float) -> list[Effect]:
        self._seq += 1
        self._next_beat = now + self.period
        return [Broadcast(Heartbeat(sender=self._pid, seq=self._seq))]


class ReferenceGossipHeartbeatDetector:
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
        self._vector: dict[ProcessId, int] = {pid: 0 for pid in members}
        self._deadlines: dict[ProcessId, float] = {}
        self._suspected: set[ProcessId] = set()
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
        return frozenset(self._suspected)

    def heartbeat_vector(self) -> dict[ProcessId, int]:
        return dict(self._vector)

    # -- core interface ----------------------------------------------------
    def start(self, now: float) -> list[Effect]:
        self._started = True
        self._deadlines = {p: now + self.timeout for p in self._peers}
        return self._emit_beat(now)

    def on_message(self, now: float, sender: ProcessId, message: object) -> list[Effect]:
        if not isinstance(message, GossipHeartbeat):
            return []
        for pid, beat in message.vector:
            if pid not in self._vector or pid == self._pid:
                continue
            if beat > self._vector[pid]:
                # New information about pid (possibly relayed multi-hop):
                # refresh its timer and clear any suspicion.
                self._vector[pid] = beat
                self._deadlines[pid] = now + self.timeout
                self._suspected.discard(pid)
        return []

    def on_wakeup(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        if self._next_beat is not None and now >= self._next_beat:
            effects.extend(self._emit_beat(now))
        for peer in sorted(self._peers, key=repr):
            if peer in self._suspected:
                continue
            deadline = self._deadlines.get(peer)
            if deadline is not None and now >= deadline:
                self._suspected.add(peer)
        return effects

    def next_wakeup(self) -> float | None:
        if not self._started:
            return None
        candidates = [
            deadline
            for peer, deadline in self._deadlines.items()
            if peer not in self._suspected
        ]
        if self._next_beat is not None:
            candidates.append(self._next_beat)
        return min(candidates, default=None)

    # ------------------------------------------------------------------
    def _emit_beat(self, now: float) -> list[Effect]:
        self._vector[self._pid] += 1
        self._next_beat = now + self.period
        vector = tuple(sorted(self._vector.items(), key=lambda kv: repr(kv[0])))
        return [Broadcast(GossipHeartbeat(sender=self._pid, vector=vector))]


class ReferencePhiAccrualDetector:
    """Sans-I/O accrual detector core (host with a timed driver).

    Emits plain :class:`~repro.baselines.heartbeat.Heartbeat` messages every
    ``period`` and monitors peers' beats with the phi estimator.
    """

    def __init__(
        self,
        process_id: ProcessId,
        membership: frozenset[ProcessId],
        *,
        period: float = 1.0,
        threshold: float = 8.0,
        window_size: int = 100,
        min_std: float = 0.05,
        eval_fraction: float = 0.25,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period}")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        if window_size < 2:
            raise ConfigurationError(f"window_size must be >= 2, got {window_size}")
        if min_std <= 0:
            raise ConfigurationError(f"min_std must be > 0, got {min_std}")
        if not 0 < eval_fraction <= 1:
            raise ConfigurationError(f"eval_fraction must be in (0, 1], got {eval_fraction}")
        members = validate_membership(membership, process_id=process_id)
        self._pid = process_id
        self._peers = members - {process_id}
        self.period = period
        self.threshold = threshold
        self.min_std = min_std
        self._eval_interval = period * eval_fraction
        self._windows: dict[ProcessId, deque[float]] = {
            p: deque(maxlen=window_size) for p in self._peers
        }
        self._last_arrival: dict[ProcessId, float] = {}
        self._last_seq: dict[ProcessId, int] = {}
        self._suspected: set[ProcessId] = set()
        self._seq = 0
        self._next_beat: float | None = None
        self._next_eval: float | None = None
        self._started = False

    # ------------------------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self._pid

    @property
    def name(self) -> str:
        return f"phi-accrual(t={self.threshold})"

    def suspects(self) -> frozenset[ProcessId]:
        return frozenset(self._suspected)

    # -- the accrual estimator ---------------------------------------------
    def phi(self, peer: ProcessId, now: float) -> float:
        """Current suspicion level of ``peer`` (0 when no beat seen yet)."""
        last = self._last_arrival.get(peer)
        if last is None:
            return 0.0
        elapsed = now - last
        mean, std = self._interval_estimate(peer)
        p_later = _normal_tail(elapsed, mean, max(std, self.min_std))
        if p_later <= 0.0:
            return math.inf
        return -math.log10(p_later)

    def _interval_estimate(self, peer: ProcessId) -> tuple[float, float]:
        window = self._windows[peer]
        if len(window) < 2:
            # Bootstrap: assume the configured period with generous spread,
            # mirroring Akka's first-heartbeat estimate.
            return self.period, self.period / 2.0
        mean = sum(window) / len(window)
        variance = sum((x - mean) ** 2 for x in window) / (len(window) - 1)
        return mean, math.sqrt(variance)

    # -- core interface ----------------------------------------------------
    def start(self, now: float) -> list[Effect]:
        self._started = True
        self._next_eval = now + self._eval_interval
        return self._emit_beat(now)

    def on_message(self, now: float, sender: ProcessId, message: object) -> list[Effect]:
        if not isinstance(message, Heartbeat) or sender not in self._peers:
            return []
        if message.seq <= self._last_seq.get(sender, -1):
            return []
        self._last_seq[sender] = message.seq
        last = self._last_arrival.get(sender)
        if last is not None:
            self._windows[sender].append(now - last)
        self._last_arrival[sender] = now
        self._suspected.discard(sender)
        return []

    def on_wakeup(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        if self._next_beat is not None and now >= self._next_beat:
            effects.extend(self._emit_beat(now))
        if self._next_eval is not None and now >= self._next_eval:
            self._evaluate(now)
            self._next_eval = now + self._eval_interval
        return effects

    def next_wakeup(self) -> float | None:
        if not self._started:
            return None
        candidates = [t for t in (self._next_beat, self._next_eval) if t is not None]
        return min(candidates, default=None)

    # ------------------------------------------------------------------
    def _evaluate(self, now: float) -> None:
        for peer in self._peers:
            if peer in self._suspected:
                continue
            if self.phi(peer, now) >= self.threshold:
                self._suspected.add(peer)

    def _emit_beat(self, now: float) -> list[Effect]:
        self._seq += 1
        self._next_beat = now + self.period
        return [Broadcast(Heartbeat(sender=self._pid, seq=self._seq))]


def _normal_tail(x: float, mean: float, std: float) -> float:
    """``P(X > x)`` for a normal ``X`` — the accrual ``P_later``."""
    z = (x - mean) / std
    return 0.5 * math.erfc(z / math.sqrt(2.0))
