"""Effects returned by sans-I/O protocol cores.

Protocol state machines never touch sockets, schedulers, or clocks.  Their
handlers return *effects* — values describing messages to transmit — and the
hosting substrate (the deterministic simulator or the asyncio runtime)
executes them.  This keeps every protocol testable in isolation and
byte-identical across substrates.

:class:`CoreHost` is the other half: the one rule by which a substrate
steps a detector core, shared by the simulator's
:class:`~repro.sim.node.TimedDriver` and the runtime's
:class:`~repro.runtime.service.DetectorService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf as _INF
from typing import Any, Union

from ..ids import ProcessId

__all__ = ["Broadcast", "SendTo", "Effect", "CoreHost"]


@dataclass(frozen=True, slots=True)
class Broadcast:
    """Transmit ``message`` to every (currently reachable) neighbor."""

    message: Any


@dataclass(frozen=True, slots=True)
class SendTo:
    """Transmit ``message`` to the single process ``destination``."""

    destination: ProcessId
    message: Any


Effect = Union[Broadcast, SendTo]


class CoreHost:
    """Hosts a detector core by the contract in ``docs/architecture.md``,
    "Hosting a core: the contract".  A substrate derives from it and supplies

    * a clock, ``_now()``;
    * ``_call_at(when, callback)``, which returns a handle with ``cancel()``
      (``Scheduler.schedule_at`` or ``loop.call_at``, bound once);
    * an effect sink, ``_execute(effects)``, handed only a non-empty value;
    * what a change does, ``_announce(before, after)``.

    ``round_listeners`` and ``elector`` are the core's (a query core's
    facade has both), ``None`` for a timer-based core.
    """

    def __init__(self, core: Any) -> None:
        self.core = core
        self.round_listeners: list | None = getattr(core, "round_listeners", None)
        self.elector = getattr(core, "elector", None)
        self._timer: Any = None
        #: when the pending timer fires (inf: no timer)
        self._timer_at = _INF
        #: the suspect set as last announced
        self._suspects = core.suspects()

    def _live(self) -> bool:
        return True  # a wake-up of a node that does not execute now is dropped

    def _wakeup(self) -> None:
        self._timer = None
        self._timer_at = _INF
        if self._live():
            self._step(self.core.on_wakeup(self._now()))

    def _step(self, effects: list[Effect] | Effect | None) -> None:
        """After a core call: execute, re-arm, announce a suspect-set change."""
        core = self.core
        if effects:  # an empty list (what a beat returns) skips the sink
            self._execute(effects)
        deadline = core.next_wakeup()
        if deadline is not None and deadline < self._timer_at:
            self._arm(deadline)
        # Cores may hand back the identical frozenset while nothing changed
        # (the built-in ones do): one pointer comparison per call.  A core
        # that builds a fresh set per call falls through to equality.
        suspects = core.suspects()
        before = self._suspects
        if suspects is not before and suspects != before:
            self._suspects = suspects
            self._announce(before, suspects)

    def _arm(self, deadline: float) -> None:
        """Move the timer to ``deadline``, earlier than the pending one.

        A deadline that moved later, or went away, leaves the pending timer
        alone: it fires on time, finds nothing due, and re-arms from there.
        A past deadline is due now.
        """
        now = self._now()
        if deadline < now:
            deadline = now
            if self._timer_at <= deadline:
                return  # the pending timer fires first; it will re-arm
        if self._timer is not None:
            self._timer.cancel()
        self._timer_at = deadline
        self._timer = self._call_at(deadline, self._wakeup)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._timer_at = _INF
