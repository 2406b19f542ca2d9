"""Declarative detector specifications for the plugin registry.

A :class:`DetectorSpec` is to a detector family what
:class:`~repro.harness.spec.ScenarioSpec` is to an experiment: the single
declarative object the rest of the system consumes.  It names the family
(``key``), declares the :class:`~repro.core.classes.FDClass` the family
implements under its stated assumption, states how the family must be
*driven* (:attr:`DetectorMode.QUERY` vs :attr:`DetectorMode.TIMED`), carries
a frozen dataclass of typed parameters, and owns the factory that builds a
sans-I/O core for one process.

Building a detector needs exactly three pieces of deployment context — the
process identity, the membership, and the crash bound ``f`` — captured by
:class:`DetectorContext` so every family's factory has one uniform
signature: ``factory(context, params) -> core``.

:meth:`BuiltDetector.unified` wraps any family behind the single
event-in/effects-out facade (see :mod:`repro.detectors.facade`): query
families get their T1 round loop adapted to the timed interface, timed
families pass through unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

from ..core.classes import FDClass
from ..core.omega import OmegaElector
from ..errors import ConfigurationError
from ..ids import ProcessId
from ..registry import TypedParams

__all__ = [
    "DetectorContext",
    "DetectorMode",
    "DetectorSpec",
    "BuiltDetector",
    "PACING_PARAMS",
    "pacing_fields",
]

#: the query-family pacing convention: params every query family carries
PACING_PARAMS = ("grace", "idle", "retry")


def pacing_fields(params: Any) -> dict[str, Any]:
    """The conventional pacing knobs of query-family params, with defaults.

    The single source of truth for the ``grace``/``idle``/``retry``
    convention — used by the unified facade, the sim driver factory and
    the runtime service so the three substrates cannot drift apart.
    """
    return {
        "grace": getattr(params, "grace", 1.0),
        "idle": getattr(params, "idle", 0.0),
        "retry": getattr(params, "retry", None),
    }


class DetectorMode(enum.Enum):
    """How a family's core must be driven.

    ``QUERY`` cores speak the paper's query-response protocol
    (:class:`~repro.sim.node.QueryDetectorCore`): the substrate starts
    rounds, routes QUERY/RESPONSE messages, and closes rounds at quorum.
    ``TIMED`` cores (:class:`~repro.sim.node.TimedProtocolCore`) genuinely
    need scheduled wake-ups — the heartbeat family.
    """

    QUERY = "query"
    TIMED = "timed"


@dataclass(frozen=True)
class DetectorContext:
    """Deployment context every detector factory receives.

    ``f`` is the crash bound of the deployment; query families derive their
    quorum from it, timer families ignore it.
    """

    process_id: ProcessId
    membership: frozenset[ProcessId]
    f: int

    @property
    def n(self) -> int:
        return len(self.membership)


@dataclass
class BuiltDetector:
    """One constructed detector: the core plus optional attached services.

    ``core`` satisfies the protocol matching ``spec.mode``; ``elector`` is
    the Omega leader elector when the family was built with one (time-free
    ``with_omega=True``), whose piggyback hooks are already wired into the
    core.
    """

    spec: "DetectorSpec"
    params: Any
    core: Any
    elector: OmegaElector | None = None

    def unified(self):
        """The core behind the uniform event-in/effects-out facade.

        Timed cores already speak the facade interface and are returned
        as-is; query cores are wrapped in a
        :class:`~repro.detectors.facade.QueryRoundFacade` whose pacing is
        taken from the family params (``grace``/``idle``/``retry`` fields,
        present on every query family by convention).
        """
        if self.spec.mode is DetectorMode.TIMED:
            return self.core
        from ..core.protocol import QueryPacing
        from .facade import QueryRoundFacade

        pacing = QueryPacing(**pacing_fields(self.params))
        return QueryRoundFacade(self.core, pacing, elector=self.elector)


@dataclass(frozen=True)
class DetectorSpec(TypedParams):
    """One pluggable detector family.

    ``key``
        Stable lower-case registry key (``"time-free"``, ``"phi"`` ...):
        what ``repro run --detector`` and every host's ``detector=`` name.
    ``title``
        Human-readable family name for tables and ``repro detectors``.
    ``fd_class``
        The Chandra-Toueg class the family implements *under its stated
        assumption* (see ``summary`` for the assumption).
    ``mode``
        How the core is driven (query-response vs timers).
    ``params_cls``
        Frozen dataclass of the family's typed knobs, all defaulted.
        Query families carry ``grace``/``idle``/``retry`` pacing fields by
        convention (consumed by drivers and the unified facade).
    ``factory``
        ``factory(context, params) -> BuiltDetector`` building the sans-I/O
        core for one process.
    ``summary``
        One-line description (assumption + mechanism) for docs/CLI tables.
    ``required``
        Param fields that have no usable default and must be supplied
        (non-``None``) before a core can be built — e.g. the partial
        detector's range density ``d``.  Checked eagerly by driver/service
        factories so misconfiguration fails at wiring time, not per node.
    """

    key: str
    title: str
    fd_class: FDClass
    mode: DetectorMode
    params_cls: type
    factory: Callable[[DetectorContext, Any], BuiltDetector]
    summary: str = ""
    required: frozenset[str] = frozenset()

    noun = "detector"

    def check_required(self, params: Any) -> None:
        """Raise unless every :attr:`required` field is set (non-``None``)."""
        missing = sorted(
            name for name in self.required if getattr(params, name, None) is None
        )
        if missing:
            raise ConfigurationError(
                f"detector {self.key!r} needs the parameter(s) {missing} "
                "(no usable default); see its params dataclass"
            )

    def build(
        self, context: DetectorContext, params: Any | None = None, /, **overrides: Any
    ) -> BuiltDetector:
        """Construct one process's detector core."""
        return self.factory(context, self.make_params(params, **overrides))
