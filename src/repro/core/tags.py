"""Counter-tagged suspicion and mistake bookkeeping.

The protocol tags every piece of information ("process ``x`` is suspected" /
"suspecting ``x`` was a mistake") with the value of the emitting process's
round counter.  A receiver only adopts information that is *newer* than what
it already holds, which prevents stale suspicions or stale refutations from
circulating forever.  The exact freshness rules (from Algorithm 1 of the
paper) are:

* a received **suspicion** ``<x, c>`` is adopted iff ``x`` is unknown to both
  local sets, or the locally-stored tag for ``x`` is **strictly smaller**
  than ``c``;
* a received **mistake** ``<x, c>`` is adopted iff ``x`` is unknown, or the
  locally-stored tag is **smaller or equal** to ``c`` — i.e. on a tie between
  a suspicion and a mistake, *the mistake wins* (the paper gives precedence
  to mistakes on equal counters);
* a process that sees **itself** suspected never adopts the suspicion:
  it *refutes* it by advancing its counter past the accusation tag and
  recording a mistake about itself.

:class:`TaggedSet` is the ``Add``-semantics set of ``<id, counter>`` pairs
used for both ``suspected_i`` and ``mistake_i``; :class:`SuspicionState`
bundles the two sets with the round counter and implements the merge rules so
that both membership views of the query core share one audited
implementation.

Remote records merge through one entry point,
:meth:`~SuspicionState.merge_query`: a whole received record stream in one
fused pass, returning one compact :class:`MergeDelta`.  Algorithm 1
re-ships the *full* sets on every query, so in steady state nearly every
record is stale; the stale path is dict lookups only and returns the
:data:`EMPTY_DELTA` singleton — zero allocations.  The per-record merge it
is pinned against, record for record, is the oracle
``tests/reference_tags.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..ids import ProcessId

__all__ = [
    "TaggedSet",
    "MergeOutcome",
    "MergeResult",
    "MergeDelta",
    "EMPTY_DELTA",
    "SuspicionState",
]

_MISSING = object()


def _record_key(item: tuple[ProcessId, int]) -> str:
    return repr(item[0])


class TaggedSet:
    """A set of ``<process id, counter tag>`` records with ``Add`` semantics.

    ``Add(set, <id, counter>)`` in the paper *replaces* any existing record
    for ``id``; a ``TaggedSet`` therefore behaves as a mapping from process
    id to its most recently stored tag.

    The repr-sorted :meth:`snapshot` tuple and the :meth:`ids` frozenset are
    cached and invalidated by a :attr:`version` counter that every effective
    mutation bumps — ``start_round`` embeds a snapshot in each outgoing
    query, and in steady state (no suspicion churn) the cached tuple is
    reused round after round instead of being re-sorted.
    """

    __slots__ = (
        "_tags",
        "_version",
        "_snapshot",
        "_snapshot_version",
        "_ids",
        "_ids_version",
    )

    def __init__(self, items: Mapping[ProcessId, int] | Iterable[tuple[ProcessId, int]] = ()):
        if isinstance(items, Mapping):
            self._tags: dict[ProcessId, int] = dict(items)
        else:
            self._tags = {pid: tag for pid, tag in items}
        self._version = 0
        self._snapshot: tuple[tuple[ProcessId, int], ...] | None = None
        self._snapshot_version = -1
        self._ids: frozenset[ProcessId] | None = None
        self._ids_version = -1

    # -- mutation ---------------------------------------------------------
    def add(self, pid: ProcessId, tag: int) -> None:
        """Store ``<pid, tag>``, replacing any existing record for ``pid``.

        Re-adding the identical record is not a mutation: the caches stay
        valid and :attr:`version` does not move.
        """
        tags = self._tags
        if tags.get(pid, _MISSING) != tag:
            tags[pid] = tag
            self._version += 1

    def discard(self, pid: ProcessId) -> bool:
        """Remove the record for ``pid`` if present; return whether it was."""
        if self._tags.pop(pid, _MISSING) is not _MISSING:
            self._version += 1
            return True
        return False

    def clear(self) -> None:
        if self._tags:
            self._tags.clear()
            self._version += 1

    # -- queries ----------------------------------------------------------
    @property
    def version(self) -> int:
        """Bumped by every effective mutation; equal versions ⇒ equal content."""
        return self._version

    def tag_of(self, pid: ProcessId) -> int | None:
        """Return the stored tag for ``pid`` or ``None``."""
        return self._tags.get(pid)

    def ids(self) -> frozenset[ProcessId]:
        """The set of process ids with a record (cached between mutations)."""
        if self._ids_version != self._version:
            self._ids = frozenset(self._tags)
            self._ids_version = self._version
        return self._ids  # type: ignore[return-value]

    def snapshot(self) -> tuple[tuple[ProcessId, int], ...]:
        """An immutable repr-sorted copy suitable for embedding in a wire
        message (cached between mutations)."""
        if self._snapshot_version != self._version:
            self._snapshot = tuple(sorted(self._tags.items(), key=_record_key))
            self._snapshot_version = self._version
        return self._snapshot  # type: ignore[return-value]

    def copy(self) -> "TaggedSet":
        return TaggedSet(self._tags)

    def max_tag(self) -> int | None:
        """The largest stored tag, or ``None`` when empty."""
        return max(self._tags.values(), default=None)

    # -- dunder -----------------------------------------------------------
    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self._tags

    def __iter__(self) -> Iterator[tuple[ProcessId, int]]:
        return iter(self.snapshot())

    def __len__(self) -> int:
        return len(self._tags)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TaggedSet):
            return self._tags == other._tags
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"<{pid!r},{tag}>" for pid, tag in self)
        return f"TaggedSet({{{inner}}})"


class MergeOutcome(enum.Enum):
    """How a received ``<id, counter>`` record affected the local state."""

    #: The record was stale (an equal-or-newer record is already held).
    IGNORED = "ignored"
    #: A remote suspicion was adopted into ``suspected``.
    SUSPICION_ADOPTED = "suspicion_adopted"
    #: A remote suspicion named *us*; we refuted it with a fresh mistake.
    SELF_REFUTED = "self_refuted"
    #: A remote mistake was adopted into ``mistakes``.
    MISTAKE_ADOPTED = "mistake_adopted"


@dataclass(frozen=True, slots=True)
class MergeResult:
    """Outcome of merging one received record into a :class:`SuspicionState`."""

    subject: ProcessId
    outcome: MergeOutcome
    #: Tag now stored for ``subject`` (``None`` when the record was ignored).
    stored_tag: int | None = None


@dataclass(frozen=True, slots=True)
class MergeDelta:
    """Compact outcome of a *batched* merge: what changed, not per-record.

    ``suspicions_adopted`` / ``mistakes_adopted`` list the subjects whose
    records were adopted, in record order (duplicates possible when one
    stream carries several fresh records for the same subject, as the
    per-record merge of ``tests/reference_tags.py`` reports them).  ``self_refuted`` reports that at least one received
    suspicion named the local process and was refuted.  An all-stale batch
    returns the shared :data:`EMPTY_DELTA` instance, so steady-state merging
    allocates nothing.
    """

    suspicions_adopted: tuple[ProcessId, ...] = ()
    mistakes_adopted: tuple[ProcessId, ...] = ()
    self_refuted: bool = False

    def __bool__(self) -> bool:
        return bool(
            self.suspicions_adopted or self.mistakes_adopted or self.self_refuted
        )


#: Singleton returned by the batched merges when every record was stale.
EMPTY_DELTA = MergeDelta()


@dataclass
class SuspicionState:
    """``suspected_i`` + ``mistake_i`` + ``counter_i`` with the merge rules.

    The class is substrate-agnostic and purely in-memory; detectors own one
    instance and drive it from their message handlers.
    """

    owner: ProcessId
    suspected: TaggedSet = field(default_factory=TaggedSet)
    mistakes: TaggedSet = field(default_factory=TaggedSet)
    counter: int = 0

    # -- local suspicion (task T1, lines 9-15) -----------------------------
    def suspect_locally(self, pid: ProcessId) -> MergeResult:
        """Suspect ``pid`` because it missed our response quorum.

        Implements lines 9-15 of Algorithm 1: only applies to processes not
        already suspected; an existing mistake record is consumed and the
        counter advanced past its tag so that the new suspicion supersedes
        the old refutation.
        """
        if pid == self.owner:
            raise ValueError("a process never suspects itself locally")
        if pid in self.suspected:
            return MergeResult(pid, MergeOutcome.IGNORED, self.suspected.tag_of(pid))
        mistake_tag = self.mistakes.tag_of(pid)
        if mistake_tag is not None:
            self.counter = max(self.counter, mistake_tag + 1)
            self.mistakes.discard(pid)
        self.suspected.add(pid, self.counter)
        return MergeResult(pid, MergeOutcome.SUSPICION_ADOPTED, self.counter)

    def end_round(self) -> int:
        """Increment the round counter (line 16) and return its new value."""
        self.counter += 1
        return self.counter

    # -- remote information (task T2) -----------------------------------------
    def merge_query(
        self,
        suspected: Iterable[tuple[ProcessId, int]],
        mistakes: Iterable[tuple[ProcessId, int]],
    ) -> MergeDelta:
        """Merge a full received ``QUERY`` payload in one fused pass.

        Record-for-record equivalent to merging each ``suspected`` record
        (lines 21-31) and then each ``mistakes`` record (lines 32-37) one at
        a time (the property suite pins this against the per-record oracle,
        ``tests/reference_tags.py``).  The stale fast path —
        the steady state, since every query re-ships the full sets — does
        dict lookups only and returns :data:`EMPTY_DELTA` without allocating
        a single result object.
        """
        sus = self.suspected
        mis = self.mistakes
        sus_tags = sus._tags
        mis_tags = mis._tags
        owner = self.owner
        s_adopted: list[ProcessId] | None = None
        m_adopted: list[ProcessId] | None = None
        refuted = False
        for pid, tag in suspected:
            # Line 22: adopt iff unknown or strictly newer than the stored
            # tag (suspicion record wins the lookup when both exist — the
            # sets are disjoint, so at most one holds pid).
            known = sus_tags.get(pid)
            if known is None:
                known = mis_tags.get(pid)
            if known is not None and known >= tag:
                continue  # stale — the no-allocation fast path
            if pid == owner:
                # Lines 23-25: refute, counter past the accusation.
                if tag + 1 > self.counter:
                    self.counter = tag + 1
                mis.add(owner, self.counter)
                sus.discard(owner)
                refuted = True
            else:
                # Lines 27-28.
                sus.add(pid, tag)
                mis.discard(pid)
                if s_adopted is None:
                    s_adopted = [pid]
                else:
                    s_adopted.append(pid)
        for pid, tag in mistakes:
            # Line 33: unknown, or newer-or-equal — with one refinement.
            # The ``<=`` lets a mistake displace a *suspicion* carrying the
            # same counter (ties go to the mistake, as the proof stipulates).
            # Read literally it would also re-adopt a byte-identical mistake
            # record, but Lemma 4's proof relies on a repeated mistake
            # *failing* the predicate (otherwise the mobility rule at lines
            # 36-38 would re-evict a reconnected node forever).  So: ties
            # beat suspicions, but an equal-or-older tag against an existing
            # *mistake* is stale.
            known = sus_tags.get(pid)
            if known is not None:
                if known > tag:
                    continue
            else:
                known = mis_tags.get(pid)
                if known is not None and known >= tag:
                    continue
            # Lines 34-35.
            mis.add(pid, tag)
            sus.discard(pid)
            if m_adopted is None:
                m_adopted = [pid]
            else:
                m_adopted.append(pid)
        if s_adopted is None and m_adopted is None and not refuted:
            return EMPTY_DELTA
        return MergeDelta(
            tuple(s_adopted) if s_adopted is not None else (),
            tuple(m_adopted) if m_adopted is not None else (),
            refuted,
        )

    # -- views --------------------------------------------------------------
    def suspects(self) -> frozenset[ProcessId]:
        """The failure-detector output: ids currently suspected."""
        return self.suspected.ids()

    def invariant_violations(self) -> list[str]:
        """Internal invariants; an empty list means the state is healthy.

        * a process never holds *itself* in its ``suspected`` set (it refutes
          instead),
        * ``suspected`` and ``mistakes`` are disjoint,
        * the mistake record about the *local* process never carries a tag
          above the local counter.  Every mistake record about ``p_i`` in
          the whole system originates from ``p_i``'s own refutation (lines
          23-25), which tags it with ``counter_i`` at that instant — and the
          counter never decreases — so a self-record tag ahead of the
          counter means the counter regressed or a forged record was
          adopted.  (Tags about *other* processes may legitimately exceed
          the local counter: they were issued against the remote process's
          counter.)
        """
        problems: list[str] = []
        if self.owner in self.suspected:
            problems.append(f"{self.owner!r} suspects itself")
        overlap = self.suspected.ids() & self.mistakes.ids()
        if overlap:
            problems.append(f"suspected/mistakes overlap: {sorted(overlap, key=repr)}")
        self_mistake = self.mistakes.tag_of(self.owner)
        if self_mistake is not None and self_mistake > self.counter:
            problems.append(
                f"self-mistake tag {self_mistake} exceeds counter {self.counter}"
            )
        return problems
