"""The phi-accrual failure detector (Hayashibara et al., SRDS 2004).

What modern OSS stacks (Akka, Cassandra) actually deploy: instead of a fixed
timeout, each monitor keeps a sliding window of heartbeat inter-arrival
times and outputs a *suspicion level*::

    phi(t_now) = -log10( P_later(t_now - t_last) )

where ``P_later`` is the probability (under a normal fit of the window) that
a heartbeat arrives later than the elapsed silence.  The peer is suspected
when ``phi`` crosses a threshold (8 suspects after odds of 10^-8).

It adapts beautifully to *stationary* delay distributions — and still
misfires under heavy tails or regime shifts, because it remains a bet on the
past predicting future delays.  It is the strongest timer-based comparator
in the F2 experiment.
"""

from __future__ import annotations

import math
from collections import deque

from ..core.effects import Broadcast, Effect
from ..errors import ConfigurationError
from ..ids import ProcessId, validate_membership
from .heartbeat import Heartbeat

__all__ = ["PhiAccrualDetector"]

_SQRT2 = math.sqrt(2.0)


class PhiAccrualDetector:
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
        #: each peer's ``(mean, std)``, kept until its window next grows: a
        #: window changes once per period and is evaluated several times
        self._estimates: dict[ProcessId, tuple[float, float]] = {}
        self._last_arrival: dict[ProcessId, float] = {}
        self._last_seq: dict[ProcessId, int] = {}
        self._suspected: set[ProcessId] = set()
        self._suspects: frozenset[ProcessId] | None = frozenset()
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
        """The suspect set; the identical object until it next changes."""
        suspects = self._suspects
        if suspects is None:
            suspects = self._suspects = frozenset(self._suspected)
        return suspects

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
        estimate = self._estimates.get(peer)
        if estimate is not None:
            return estimate
        window = self._windows[peer]
        if len(window) < 2:
            # Bootstrap: assume the configured period with generous spread,
            # mirroring Akka's first-heartbeat estimate.
            return self.period, self.period / 2.0
        mean = sum(window) / len(window)
        variance = sum((x - mean) ** 2 for x in window) / (len(window) - 1)
        estimate = self._estimates[peer] = mean, math.sqrt(variance)
        return estimate

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
            self._estimates.pop(sender, None)
        self._last_arrival[sender] = now
        if sender in self._suspected:
            self._suspected.discard(sender)
            self._suspects = None
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
        # started, so both timers are armed
        return self._next_beat if self._next_beat <= self._next_eval else self._next_eval

    # ------------------------------------------------------------------
    def _evaluate(self, now: float) -> None:
        for peer in self._peers:
            if peer in self._suspected:
                continue
            if self.phi(peer, now) >= self.threshold:
                self._suspected.add(peer)
                self._suspects = None

    def _emit_beat(self, now: float) -> list[Effect]:
        self._seq += 1
        self._next_beat = now + self.period
        return [Broadcast(Heartbeat(sender=self._pid, seq=self._seq))]


def _normal_tail(x: float, mean: float, std: float) -> float:
    """``P(X > x)`` for a normal ``X`` — the accrual ``P_later``."""
    z = (x - mean) / std
    return 0.5 * math.erfc(z / _SQRT2)
