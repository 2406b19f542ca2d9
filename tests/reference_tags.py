"""Reference model of the tag merge: the removed per-record merge.

This is the per-record half of ``repro.core.tags.SuspicionState`` as it
stood beside the batched ``merge_query``: ``merge_remote_suspicion`` /
``merge_remote_mistake`` (one :class:`~repro.core.tags.MergeResult` per
received record, Algorithm 1 lines 21-37 read one record at a time), their
freshness predicates, and the two one-sided batched conveniences.  The
method bodies are verbatim as functions of the state (``self`` became
``state``).  Production merges through ``SuspicionState.merge_query``
only; this is the oracle it must match, record for record
(``tests/property/test_batched_merge_properties.py``), and the plain
statement of the merge rules the tag tests read.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.tags import MergeDelta, MergeOutcome, MergeResult, SuspicionState
from repro.ids import ProcessId

__all__ = [
    "merge_remote_suspicion",
    "merge_remote_mistake",
    "merge_remote_suspicions",
    "merge_remote_mistakes",
]


def merge_remote_suspicion(state: SuspicionState, pid: ProcessId, tag: int) -> MergeResult:
    """Merge one record of a received ``suspected_j`` set (lines 21-31)."""
    if not _suspicion_is_newer(state, pid, tag):
        return MergeResult(pid, MergeOutcome.IGNORED, _known_tag(state, pid))
    if pid == state.owner:
        # Lines 23-25: we are wrongly suspected; refute with a mistake
        # tagged past the accusation.
        state.counter = max(state.counter, tag + 1)
        state.mistakes.add(state.owner, state.counter)
        state.suspected.discard(state.owner)
        return MergeResult(pid, MergeOutcome.SELF_REFUTED, state.counter)
    # Lines 27-28.
    state.suspected.add(pid, tag)
    state.mistakes.discard(pid)
    return MergeResult(pid, MergeOutcome.SUSPICION_ADOPTED, tag)


def merge_remote_mistake(state: SuspicionState, pid: ProcessId, tag: int) -> MergeResult:
    """Merge one record of a received ``mistake_j`` set (lines 32-37)."""
    if not _mistake_is_newer(state, pid, tag):
        return MergeResult(pid, MergeOutcome.IGNORED, _known_tag(state, pid))
    # Lines 34-35.
    state.mistakes.add(pid, tag)
    state.suspected.discard(pid)
    return MergeResult(pid, MergeOutcome.MISTAKE_ADOPTED, tag)


def merge_remote_suspicions(
    state: SuspicionState, records: Iterable[tuple[ProcessId, int]]
) -> MergeDelta:
    """Batched :func:`merge_remote_suspicion` over a record stream."""
    return state.merge_query(records, ())


def merge_remote_mistakes(
    state: SuspicionState, records: Iterable[tuple[ProcessId, int]]
) -> MergeDelta:
    """Batched :func:`merge_remote_mistake` over a record stream."""
    return state.merge_query((), records)


# -- freshness predicates ----------------------------------------------------
def _known_tag(state: SuspicionState, pid: ProcessId) -> int | None:
    suspected_tag = state.suspected.tag_of(pid)
    if suspected_tag is not None:
        return suspected_tag
    return state.mistakes.tag_of(pid)


def _suspicion_is_newer(state: SuspicionState, pid: ProcessId, tag: int) -> bool:
    """Line 22: unknown, or strictly newer than the stored tag."""
    known = _known_tag(state, pid)
    return known is None or known < tag


def _mistake_is_newer(state: SuspicionState, pid: ProcessId, tag: int) -> bool:
    """Line 33: unknown, or newer-or-equal — ties beat a suspicion, not a
    mistake (Lemma 4; the reasoning is on ``SuspicionState.merge_query``)."""
    suspected_tag = state.suspected.tag_of(pid)
    if suspected_tag is not None:
        return suspected_tag <= tag
    mistake_tag = state.mistakes.tag_of(pid)
    if mistake_tag is not None:
        return mistake_tag < tag
    return True
