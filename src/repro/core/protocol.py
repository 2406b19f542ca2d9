"""The time-free query-response failure detector (the paper's Algorithm 1).

``TimeFreeDetector`` is a sans-I/O state machine.  One *query round* is:

1. :meth:`TimeFreeDetector.start_round` — emit
   ``QUERY(suspected_i, mistake_i)`` to every other process (line 6).  The
   process's own response is accounted immediately, matching the paper's
   assumption that a node receives its own query and its own response is
   always among the first ``quorum``.
2. Feed incoming :class:`~repro.core.messages.Response` messages to
   :meth:`TimeFreeDetector.on_response` until
   :meth:`TimeFreeDetector.quorum_reached` (line 7: wait until responses from
   at least ``quorum`` distinct processes).  The hosting driver may keep
   collecting *extra* responses past the quorum (the paper's evaluation adds
   a pacing delay here, which shrinks false suspicions without affecting
   correctness).
3. :meth:`TimeFreeDetector.finish_round` — every known, unsuspected process
   that failed to respond becomes suspected (lines 8-15) and the round
   counter advances (line 16).

Independently, :meth:`TimeFreeDetector.on_query` implements task T2: merge
the newer suspicion/mistake records from a received query (refuting
suspicions that name the local process) and answer with a ``RESPONSE``.

The :class:`DetectorConfig` is the membership view.  A *given* view names
Pi (the DSN 2003 model): ``known_i`` is Pi - {i} and the quorum ``n - f``.
A *learned* view (unknown participants, arXiv cs/0701015) names only the
range density ``d``: ``known_i`` starts empty and accretes query senders
(line 20), the quorum is ``d - f``, and with ``mobility`` on a relayed
mistake evicts the process it names (Algorithm 2, lines 36-38).

Nothing here reads a clock or sets a timer: detection is driven purely by
the message exchange pattern, which is the paper's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import ConfigurationError, ProtocolError
from ..ids import ProcessId, validate_membership
from .classes import FailureDetector
from .effects import Broadcast, SendTo
from .messages import Query, Response
from .tags import MergeOutcome, SuspicionState

__all__ = ["DetectorConfig", "QueryPacing", "QueryRoundOutcome", "TimeFreeDetector"]

#: Optional piggyback hooks: a provider returns a JSON-safe dict attached to
#: outgoing messages; a consumer receives ``(sender, payload)`` for incoming
#: ones.  Used by :mod:`repro.core.omega`; the core protocol ignores content.
ExtraProvider = Callable[[], dict[str, Any]]
ExtraConsumer = Callable[[ProcessId, dict[str, Any]], None]


@dataclass(frozen=True)
class DetectorConfig:
    """Static configuration of a :class:`TimeFreeDetector`: its membership view.

    ``f`` is the maximum number of crashes.  A *given* view sets
    ``membership`` to the full process set Pi (known a priori in the DSN
    2003 model), with ``f < n``; the response quorum is ``n - f``.  A
    *learned* view sets ``membership=None`` and ``range_density`` to the
    smallest 1-hop neighbourhood size ``d`` (with the node itself), the only
    global knowledge the extension assumes; the quorum is ``d - f``, and an
    f-covering network guarantees ``d > f + 1``.
    """

    process_id: ProcessId
    membership: frozenset[ProcessId] | None
    f: int
    range_density: int | None = None

    def __post_init__(self) -> None:
        if self.membership is None:
            if self.f < 0:
                raise ConfigurationError(f"f must be >= 0, got {self.f}")
            if self.range_density is None or self.range_density <= self.f:
                raise ConfigurationError(
                    "a learned view needs d > f for a positive quorum, "
                    f"got d={self.range_density}, f={self.f}"
                )
            return
        if self.range_density is not None:
            raise ConfigurationError(
                "a given membership has no range density: its quorum is n - f"
            )
        members = validate_membership(self.membership, process_id=self.process_id, f=self.f)
        object.__setattr__(self, "membership", members)
        # Membership is immutable, so the repr-sorted peer list is computed
        # once here instead of once per service construction.
        object.__setattr__(
            self,
            "_peers_sorted",
            tuple(sorted(members - {self.process_id}, key=repr)),
        )

    @property
    def n(self) -> int:
        """``|Pi|`` (given views only)."""
        return len(self.membership)  # type: ignore[arg-type]

    @property
    def peers_sorted(self) -> tuple[ProcessId, ...]:
        """``membership - {process_id}``, repr-sorted (cached; given views only)."""
        return self._peers_sorted  # type: ignore[attr-defined]

    @property
    def quorum(self) -> int:
        """``n - f`` (given) or ``d - f`` (learned): responses that end a query (line 7)."""
        if self.membership is None:
            return self.range_density - self.f  # type: ignore[operator]
        return self.n - self.f

    @classmethod
    def for_process(
        cls, process_id: ProcessId, membership: Iterable[ProcessId], f: int
    ) -> "DetectorConfig":
        return cls(process_id=process_id, membership=frozenset(membership), f=f)


@dataclass(frozen=True, slots=True)
class QueryRoundOutcome:
    """Result of one completed query round (task T1 body)."""

    round_id: int
    #: Responders in arrival order; the issuing process is always first.
    responders: tuple[ProcessId, ...]
    #: The first ``quorum`` responders — the *winning* responses of this round.
    winners: frozenset[ProcessId]
    #: Processes newly suspected at the end of this round (line 14).
    newly_suspected: tuple[ProcessId, ...]
    #: Value of ``counter_i`` after line 16.
    counter_after: int
    #: Full suspect list after the round.
    suspects_after: frozenset[ProcessId]


@dataclass(frozen=True)
class QueryPacing:
    """Pacing policy for query rounds (Section 6 of the paper).

    ``grace`` — Δ: how long to keep collecting responses after the quorum
    is reached before closing the round (extra responses shrink false
    suspicions; correctness is unaffected).  ``idle`` — delay between a
    round's end and the next query broadcast.

    ``retry`` — optional *lossy-channel* extension: if the quorum has not
    been reached this long after the query broadcast, rebroadcast the same
    query (same round id; duplicate responses are deduplicated and record
    merging is idempotent).  The paper's model assumes reliable channels
    and never needs this; with message loss a single lost query could
    stall the round forever.  Note what the timer is and is not: it only
    re-transmits — no suspicion is ever raised from its expiry, so
    failure detection itself remains time-free.
    """

    grace: float = 1.0
    idle: float = 0.0
    retry: float | None = None

    def __post_init__(self) -> None:
        if self.grace < 0 or self.idle < 0:
            raise ConfigurationError(f"pacing delays must be >= 0: {self}")
        if self.retry is not None and self.retry <= 0:
            raise ConfigurationError(f"retry must be > 0 when set: {self}")


class TimeFreeDetector(FailureDetector):
    """Sans-I/O implementation of the paper's Algorithm 1 (classes ◇S).

    One core for both membership views of :class:`DetectorConfig`;
    ``mobility`` switches Algorithm 2's eviction on a learned view (a given
    view never learns, so never evicts).  The detector must be *driven*:
    the substrate calls :meth:`start_round`, routes messages to
    :meth:`on_query` / :meth:`on_response`, decides when the round is over
    (at quorum, or later if pacing) and calls :meth:`finish_round`.
    :class:`repro.detectors.facade.QueryRoundFacade` is that driving loop,
    hosted by the simulator and the asyncio runtime.
    """

    def __init__(
        self,
        config: DetectorConfig,
        *,
        mobility: bool = True,
        extra_provider: ExtraProvider | None = None,
        extra_consumer: ExtraConsumer | None = None,
    ) -> None:
        self._config = config
        self._state = SuspicionState(owner=config.process_id)
        #: ``known_i``: on a given view Pi itself, one frozenset shared by
        #: every process (the node always responds to its own query, so the
        #: line-9 sweep never names it); on a learned view, every process a
        #: query was received from (line 20) and not evicted since
        self._learns = config.membership is None
        self._evicts = self._learns and mobility
        self._known: set[ProcessId] | frozenset[ProcessId] = (
            set() if self._learns else config.membership  # type: ignore[assignment]
        )
        self._extra_provider = extra_provider
        self._extra_consumer = extra_consumer
        self._round_id = 0
        self._collecting = False
        #: this round's responders as keys (``QueryDetectorCore``'s responder contract)
        self._responders: dict[ProcessId, None] = {}
        self._rounds_completed = 0
        #: quorum is config-constant; cached off the property chain because
        #: quorum_reached runs once per received response.
        self._quorum = config.quorum
        #: last RESPONSE built by on_query, reused while peers keep querying
        #: with the same round id (they pace in lockstep, so hits dominate).
        #: Safe because Response is frozen — receivers never rely on object
        #: identity.  Only used when no piggyback provider is attached.
        self._response_cache: Response | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def process_id(self) -> ProcessId:
        return self._config.process_id

    @property
    def config(self) -> DetectorConfig:
        return self._config

    @property
    def counter(self) -> int:
        """Current value of ``counter_i``."""
        return self._state.counter

    @property
    def round_id(self) -> int:
        """Identifier of the most recently started query round (0 = none)."""
        return self._round_id

    @property
    def rounds_completed(self) -> int:
        return self._rounds_completed

    @property
    def collecting(self) -> bool:
        """Whether a query round is currently awaiting responses."""
        return self._collecting

    @property
    def state(self) -> SuspicionState:
        """The live suspicion/mistake state (read-mostly; owned by the detector)."""
        return self._state

    def suspects(self) -> frozenset[ProcessId]:
        # Straight to the cached frozenset: this runs before/after every
        # delivered query, so every hop counts.
        return self._state.suspected.ids()

    def mistakes(self) -> frozenset[ProcessId]:
        """Processes currently recorded as previously-wrongly-suspected."""
        return self._state.mistakes.ids()

    def known(self) -> frozenset[ProcessId]:
        """``known_i``: the other processes an unanswered round can suspect."""
        return frozenset(self._known - {self.process_id})

    # ------------------------------------------------------------------
    # task T1: query rounds
    # ------------------------------------------------------------------
    def start_round(self) -> Broadcast:
        """Begin a query round; returns the ``QUERY`` broadcast (line 6)."""
        if self._collecting:
            raise ProtocolError(
                f"{self.process_id!r}: round {self._round_id} is still collecting; "
                "a node issues a new query only after the previous one terminated"
            )
        self._round_id += 1
        self._collecting = True
        # The node hears its own query and its own response is always among
        # the first quorum (Section 4.1), so it is accounted immediately.
        self._responders = {self.process_id: None}
        query = Query(
            sender=self.process_id,
            round_id=self._round_id,
            suspected=self._state.suspected.snapshot(),
            mistakes=self._state.mistakes.snapshot(),
            extra=self._make_extra(),
        )
        return Broadcast(query)

    def on_response(self, response: Response) -> bool:
        """Account a ``RESPONSE``; returns whether it counted for this round.

        Responses to earlier (already finished) queries and duplicate
        responses are ignored — each query-response pair is uniquely
        identified by ``round_id``.

        Accounting a response never touches the suspicion state (the
        contract on :class:`repro.sim.node.QueryDetectorCore`).
        """
        if self._extra_consumer is not None and response.extra:
            self._extra_consumer(response.sender, response.extra_payload())
        if not self._collecting or response.round_id != self._round_id:
            return False
        if response.sender in self._responders:
            return False
        self._responders[response.sender] = None
        return True

    def quorum_reached(self) -> bool:
        """Line 7: at least ``quorum`` distinct responses received."""
        return self._collecting and len(self._responders) >= self._quorum

    def finish_round(self) -> QueryRoundOutcome:
        """Close the round: detect new suspicions (lines 8-15), bump counter.

        Raises :class:`ProtocolError` unless the quorum was reached — the
        protocol's wait at line 7 is blocking by design; if fewer than
        ``quorum`` processes are alive the round never terminates (the model
        guarantees at most ``f`` crashes).
        """
        if not self._collecting:
            raise ProtocolError(f"{self.process_id!r}: no round in progress")
        if not self.quorum_reached():
            raise ProtocolError(
                f"{self.process_id!r}: round {self._round_id} has "
                f"{len(self._responders)}/{self._config.quorum} responses; "
                "cannot terminate the query before the quorum (line 7)"
            )
        rec_from = self._responders
        responders = tuple(rec_from)
        newly: list[ProcessId] = []
        # Line 9: known processes that did not respond and are not already
        # suspected become suspected, in repr order.  In steady state every
        # known process responded, so the common case sorts nothing.
        missing = self._known.difference(rec_from)
        if missing:
            for pj in sorted(missing, key=repr):
                result = self._state.suspect_locally(pj)
                if result.outcome is MergeOutcome.SUSPICION_ADOPTED:
                    newly.append(pj)
        counter_after = self._state.end_round()
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
        """Abandon the in-progress round without drawing conclusions.

        Not part of the paper's pseudo-code; used by the mobility driver when
        a node detaches mid-round (a moving node stops executing) and by
        orderly shutdown.
        """
        self._collecting = False
        self._responders = {}

    # ------------------------------------------------------------------
    # task T2: serving queries
    # ------------------------------------------------------------------
    def on_query(self, query: Query) -> SendTo | None:
        """Handle a received ``QUERY`` (lines 19-38); returns the response.

        Merging is done *before* responding, so the response acknowledges a
        state that already integrated the sender's information.  A given
        view answers and merges a query from a non-member but never adds
        it to ``known_i``.
        """
        sender = query.sender
        if sender == self.process_id:
            return None  # own broadcast echoed back; carries no new information
        if self._learns:
            self._known.add(sender)  # line 20: learn the sender
        if self._extra_consumer is not None and query.extra:
            self._extra_consumer(sender, query.extra_payload())
        # Batched T2 merge: one fused pass over both record streams,
        # allocation-free when everything is stale (the steady state — every
        # query re-ships the full sets).
        delta = self._state.merge_query(query.suspected, query.mistakes)
        if self._evicts and delta.mistakes_adopted:
            # Algorithm 2, lines 36-38: a relayed mistake about a process we
            # did not hear it from directly means that process now lives in
            # a remote range — forget it, or we would suspect it forever.
            owner = self.process_id
            for pid in delta.mistakes_adopted:
                if pid != sender and pid != owner:
                    self._known.discard(pid)
        if self._extra_provider is None:
            response = self._response_cache
            if response is None or response.round_id != query.round_id:
                response = Response(sender=self.process_id, round_id=query.round_id)
                self._response_cache = response
        else:
            response = Response(
                sender=self.process_id,
                round_id=query.round_id,
                extra=self._make_extra(),
            )
        return SendTo(sender, response)

    # ------------------------------------------------------------------
    # piggyback plumbing
    # ------------------------------------------------------------------
    def _make_extra(self) -> tuple[tuple[str, Any], ...]:
        if self._extra_provider is None:
            return ()
        payload = self._extra_provider()
        if not payload:
            return ()
        return tuple(sorted(payload.items()))

    # NOTE: incoming piggyback payloads are consumed inline in on_query /
    # on_response — the dict is only materialised when a consumer exists AND
    # the message actually carries something, so the common case (no Omega
    # layer) costs two attribute reads per message.
