"""Time-free detection with unknown participants (extension Algorithm 1+2).

``PartialTimeFreeDetector`` differs from the core detector in exactly the
ways the follow-up report describes:

* no membership parameter: ``known_i`` starts empty and accretes every
  process a query is received from (line 20);
* the query termination quorum is ``d - f`` (``d`` = range density), and a
  node's broadcast only reaches its 1-hop neighbors — the hosting network
  decides reachability, the detector does not know the topology;
* end-of-round suspicion applies to ``known_i \\ rec_from_i`` (line 9) —
  a node can only suspect processes it has actually met;
* with ``mobility=True``, adopting a *relayed* mistake about ``p_x`` from a
  sender ``p_j != p_x`` evicts ``p_x`` from ``known_i`` (lines 36-38):
  ``p_x`` must live in a remote range now, and keeping it in ``known_i``
  would re-suspect it forever (the ping-pong effect).

The suspicion/mistake merge rules are byte-identical to the core's — both
delegate to :class:`repro.core.tags.SuspicionState`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.classes import FailureDetector
from ..core.effects import Broadcast, SendTo
from ..core.messages import Query, Response
from ..core.protocol import QueryRoundOutcome
from ..core.tags import MergeOutcome, SuspicionState
from ..errors import ConfigurationError, ProtocolError
from ..ids import ProcessId

__all__ = ["PartialDetectorConfig", "PartialTimeFreeDetector", "partial_driver_factory"]


@dataclass(frozen=True)
class PartialDetectorConfig:
    """Static parameters: the node's id, the range density ``d`` and ``f``.

    ``d`` and ``f`` are the only global knowledge the extension assumes
    (Section 3 of the report: both are known to every process).  The quorum
    is ``d - f``; an f-covering network guarantees ``d > f + 1`` so the
    quorum is at least 2 (the node itself plus one correct neighbor).
    """

    process_id: ProcessId
    range_density: int
    f: int

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ConfigurationError(f"f must be >= 0, got {self.f}")
        if self.range_density <= self.f:
            raise ConfigurationError(
                f"need d > f for a positive quorum, got d={self.range_density}, f={self.f}"
            )

    @property
    def quorum(self) -> int:
        """``d - f`` responses terminate a query."""
        return self.range_density - self.f


class PartialTimeFreeDetector(FailureDetector):
    """Sans-I/O detector for unknown, partially-connected networks.

    Satisfies :class:`repro.sim.node.QueryDetectorCore` (the responder
    contract is stated there), so ``QueryRoundFacade`` drives both cores.
    """

    def __init__(self, config: PartialDetectorConfig, *, mobility: bool = True) -> None:
        self._config = config
        self._state = SuspicionState(owner=config.process_id)
        self._known: set[ProcessId] = set()
        self._mobility = mobility
        self._round_id = 0
        self._collecting = False
        self._responders: dict[ProcessId, None] = {}
        self._rounds_completed = 0
        # Config-constant, cached off the property chain (checked per response).
        self._quorum = config.quorum
        # Reused while peers query with the same round id (Response is
        # frozen; receivers never rely on object identity).
        self._response_cache: Response | None = None

    # -- introspection ---------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self._config.process_id

    @property
    def config(self) -> PartialDetectorConfig:
        return self._config

    @property
    def collecting(self) -> bool:
        return self._collecting

    @property
    def counter(self) -> int:
        return self._state.counter

    @property
    def rounds_completed(self) -> int:
        return self._rounds_completed

    @property
    def state(self) -> SuspicionState:
        return self._state

    def known(self) -> frozenset[ProcessId]:
        """``known_i``: processes this node has received a query from."""
        return frozenset(self._known)

    def suspects(self) -> frozenset[ProcessId]:
        return self._state.suspected.ids()

    def mistakes(self) -> frozenset[ProcessId]:
        return self._state.mistakes.ids()

    # -- task T1 -----------------------------------------------------------
    def start_round(self) -> Broadcast:
        if self._collecting:
            raise ProtocolError(
                f"{self.process_id!r}: previous query not yet terminated"
            )
        self._round_id += 1
        self._collecting = True
        self._responders = {self.process_id: None}
        query = Query(
            sender=self.process_id,
            round_id=self._round_id,
            suspected=self._state.suspected.snapshot(),
            mistakes=self._state.mistakes.snapshot(),
        )
        return Broadcast(query)

    def on_response(self, response: Response) -> bool:
        if not self._collecting or response.round_id != self._round_id:
            return False
        if response.sender in self._responders:
            return False
        self._responders[response.sender] = None
        return True

    def quorum_reached(self) -> bool:
        return self._collecting and len(self._responders) >= self._quorum

    def finish_round(self) -> QueryRoundOutcome:
        if not self._collecting:
            raise ProtocolError(f"{self.process_id!r}: no round in progress")
        if not self.quorum_reached():
            raise ProtocolError(
                f"{self.process_id!r}: round {self._round_id} has "
                f"{len(self._responders)}/{self._config.quorum} responses"
            )
        newly: list[ProcessId] = []
        # Line 9: only *known* processes can be suspected.  In steady state
        # every known process responded, so the common case sorts nothing.
        missing = self._known.difference(self._responders)
        if missing:
            for pj in sorted(missing, key=repr):
                result = self._state.suspect_locally(pj)
                if result.outcome is MergeOutcome.SUSPICION_ADOPTED:
                    newly.append(pj)
        counter_after = self._state.end_round()
        responders = tuple(self._responders)
        outcome = QueryRoundOutcome(
            round_id=self._round_id,
            responders=responders,
            winners=frozenset(responders[: self._quorum]),
            newly_suspected=tuple(newly),
            counter_after=counter_after,
            suspects_after=self.suspects(),
        )
        self._collecting = False
        self._rounds_completed += 1
        return outcome

    def abort_round(self) -> None:
        self._collecting = False
        self._responders = {}

    # -- task T2 -----------------------------------------------------------
    def on_query(self, query: Query) -> SendTo | None:
        if query.sender == self.process_id:
            return None
        # Line 20: learn the sender.
        self._known.add(query.sender)
        # Batched T2 merge (same fused pass as the core detector); the
        # compact delta then drives the mobility rule below.
        delta = self._state.merge_query(query.suspected, query.mistakes)
        if self._mobility and delta.mistakes_adopted:
            # Algorithm 2, lines 36-38: a relayed mistake about a process we
            # did not hear it from directly means that process now lives in
            # a remote range — forget it, or we would suspect it forever.
            sender = query.sender
            owner = self.process_id
            for pid in delta.mistakes_adopted:
                if pid != sender and pid != owner:
                    self._known.discard(pid)
        response = self._response_cache
        if response is None or response.round_id != query.round_id:
            response = Response(sender=self.process_id, round_id=query.round_id)
            self._response_cache = response
        return SendTo(query.sender, response)


def partial_driver_factory(
    d: int,
    f: int,
    pacing=None,
    *,
    mobility: bool = True,
):
    """Driver factory for :class:`repro.sim.cluster.SimCluster`.

    ``d`` must be the topology's actual range density (use
    ``topology.range_density()``); a larger value deadlocks rounds on the
    sparsest node, a smaller one weakens detection.
    """
    from ..sim.node import QueryPacing, QueryResponseDriver

    pacing = pacing if pacing is not None else QueryPacing()

    def factory(process, cluster) -> QueryResponseDriver:
        config = PartialDetectorConfig(process_id=process.pid, range_density=d, f=f)
        detector = PartialTimeFreeDetector(config, mobility=mobility)
        return QueryResponseDriver(process, detector, pacing)

    return factory
