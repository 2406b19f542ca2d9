"""Declarative consensus-protocol specifications for the plugin registry.

Mirrors :mod:`repro.detectors.spec`: a :class:`ConsensusSpec` is the single
declarative object the rest of the system consumes for one consensus
protocol — a stable key, a frozen dataclass of typed knobs, and a factory
that builds a sans-I/O participant state machine for one process.

The factory signature is ``factory(context, params, oracle) ->
participant``.  :class:`ConsensusContext` carries the deployment facts
(identity, membership, crash bound) — the same three the detector registry
uses — and :class:`ConsensusOracle` carries the failure-detector coupling:
two zero-argument callbacks, ``suspects()`` and ``leader()``, pulled by the
participant on every wait evaluation.  This is Lynch & Sastry's
FD-as-oracle framing made concrete: a protocol declares which oracle view
it consults (:attr:`ConsensusSpec.oracle`) and the harness wires that view
from *any* registered detector — ``leader()`` falls back to the standard
Ω-from-◇S emulation (smallest unsuspected member) when the deployed
detector has no native elector.

Participants returned by factories satisfy the informal protocol of
:class:`~repro.consensus.protocol.ChandraTouegConsensus`: ``propose`` /
``on_message`` / ``poke`` entry points returning effect lists, plus the
``proposed`` / ``decided`` / ``decision`` / ``round`` / ``rounds_executed``
/ ``nacks_sent`` / ``decision_round`` introspection surface the harness and
the conformance suite rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ConfigurationError
from ..ids import ProcessId
from ..registry import TypedParams

__all__ = [
    "ConsensusContext",
    "ConsensusOracle",
    "ConsensusSpec",
    "SuspectsSource",
    "oracle_from_suspects",
]

SuspectsSource = Callable[[], frozenset]

#: the two oracle views a protocol may declare it consults
ORACLE_VIEWS = ("suspects", "leader")


@dataclass(frozen=True)
class ConsensusContext:
    """Deployment context every consensus factory receives."""

    process_id: ProcessId
    membership: frozenset[ProcessId]
    f: int

    @property
    def n(self) -> int:
        return len(self.membership)


@dataclass(frozen=True)
class ConsensusOracle:
    """The failure-detector coupling, as two pull callbacks.

    ``suspects()`` is the raw ◇S-style suspect list of the co-hosted
    detector; ``leader()`` is an Ω-style single trusted process.  Both are
    evaluated lazily on every phase-3 wait, never cached by the protocol —
    the formal oracle-query model.
    """

    suspects: SuspectsSource
    leader: Callable[[], ProcessId]


def oracle_from_suspects(
    membership: frozenset[ProcessId],
    suspects_source: SuspectsSource,
    *,
    leader_source: Callable[[], ProcessId] | None = None,
) -> ConsensusOracle:
    """Build the full oracle view from a suspect-list callback.

    When ``leader_source`` is ``None`` the leader is *derived* from the
    suspect list — the textbook Ω-from-◇S emulation: the smallest member
    not currently suspected (falling back to the smallest member outright
    if everyone is).  Under eventual strong accuracy all correct processes
    converge on the same unsuspected survivor, which is exactly Ω's
    contract.
    """
    ordered = sorted(membership, key=repr)

    def derived_leader() -> ProcessId:
        suspects = suspects_source()
        for pid in ordered:
            if pid not in suspects:
                return pid
        return ordered[0]

    return ConsensusOracle(
        suspects=suspects_source,
        leader=leader_source if leader_source is not None else derived_leader,
    )


@dataclass(frozen=True)
class ConsensusSpec(TypedParams):
    """One pluggable consensus protocol.

    ``key``
        Stable lower-case registry key (``"ct"``, ``"omega"`` ...): what
        experiment params and ``repro protocols`` name.
    ``title``
        Human-readable protocol name for tables and the CLI listing.
    ``params_cls``
        Frozen dataclass of the protocol's typed knobs, all defaulted.
    ``factory``
        ``factory(context, params, oracle) -> participant`` building the
        sans-I/O state machine for one process.
    ``oracle``
        Which oracle view the protocol consults — ``"suspects"`` (◇S
        style) or ``"leader"`` (Ω style).  Informational for tables, and
        the harness's cue to wire extra leader-change pokes when the
        detector carries a native elector.
    ``summary``
        One-line description (mechanism + liveness assumption) for
        docs/CLI tables.
    """

    key: str
    title: str
    params_cls: type
    factory: Callable[[ConsensusContext, Any, ConsensusOracle], Any]
    oracle: str = "suspects"
    summary: str = ""

    noun = "consensus protocol"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.oracle not in ORACLE_VIEWS:
            raise ConfigurationError(
                f"{self.key!r}: oracle must be one of {ORACLE_VIEWS}, got {self.oracle!r}"
            )

    def build(
        self,
        context: ConsensusContext,
        oracle: ConsensusOracle,
        params: Any | None = None,
        /,
        **overrides: Any,
    ) -> Any:
        """Construct one process's participant state machine."""
        return self.factory(context, self.make_params(params, **overrides), oracle)
