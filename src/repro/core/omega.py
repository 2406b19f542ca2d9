"""Eventual leader election (Omega) layered on the time-free detector.

The paper closes by noting that the query-response machinery can implement
other oracle classes; Omega — each process eventually trusts the same correct
leader — is the one consensus protocols want (it is equivalent to ◇S for
solving consensus with a majority of correct processes).

``OmegaElector`` follows the Mostéfaoui-Raynal style *accusation counter*
construction, kept time-free by reusing the query rounds:

* after each completed round, every known process absent from ``rec_from``
  is *accused* (its counter incremented) — a crashed process misses every
  subsequent round everywhere, so its accusations grow without bound;
* accusation counters are gossiped through the ``extra`` piggyback slot of
  queries and responses and merged entry-wise with ``max``, so all correct
  processes converge to identical counters;
* the leader is the process with the lexicographically smallest
  ``(accusations, id)`` pair.

Convergence to a *correct* common leader needs a strengthened message
pattern: some correct process must eventually be a winning responder for
**every** correct querier (the global variant of MP; with plain MP the
elected process is only guaranteed to be one whose accusations stabilize).
The simulator's latency bias models make either regime easy to set up, and
the F3 experiment measures the degradation when the assumption is weakened.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..ids import ProcessId
from .protocol import DetectorConfig, QueryRoundOutcome

__all__ = ["OmegaElector"]

_PAYLOAD_KEY = "omega.accusations"


class OmegaElector:
    """Accusation-counter leader oracle; see module docstring.

    The elector is passive: the round driver must call
    :meth:`observe_round` with each :class:`QueryRoundOutcome`, and the
    detector must carry its hooks (the ``time-free`` family built
    ``with_omega=True`` is both, wired).
    """

    def __init__(self, config: DetectorConfig) -> None:
        self._config = config
        self._accusations: dict[ProcessId, int] = {pid: 0 for pid in config.membership}

    # ------------------------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self._config.process_id

    def accusations(self) -> dict[ProcessId, int]:
        """A copy of the current accusation counters."""
        return dict(self._accusations)

    def leader(self) -> ProcessId:
        """The currently trusted leader: argmin of ``(accusations, id)``."""
        return min(self._accusations, key=lambda pid: (self._accusations[pid], repr(pid)))

    # ------------------------------------------------------------------
    def observe_round(self, outcome: QueryRoundOutcome) -> None:
        """Accuse every process that missed this round's responder set."""
        responders = set(outcome.responders)
        for pid in self._config.membership:
            if pid not in responders:
                self._accusations[pid] += 1

    # -- piggyback hooks -------------------------------------------------
    def payload(self) -> dict[str, Any]:
        """Provider hook: gossip the accusation counters."""
        return {_PAYLOAD_KEY: tuple(sorted(self._accusations.items(), key=lambda kv: repr(kv[0])))}

    def consume(self, sender: ProcessId, payload: Mapping[str, Any]) -> None:
        """Consumer hook: entry-wise max-merge of gossiped counters."""
        records = payload.get(_PAYLOAD_KEY)
        if records is None:
            return
        for pid, count in records:
            if pid in self._accusations and count > self._accusations[pid]:
                self._accusations[pid] = count
