"""Unit tests for the counter-tagged suspicion/mistake state.

Each test cross-references the line of Algorithm 1 whose semantics it pins
down.
"""

import pytest

from repro.core import tags
from repro.core.tags import EMPTY_DELTA, MergeDelta, MergeOutcome, SuspicionState, TaggedSet
from tests.reference_tags import (
    merge_remote_mistake,
    merge_remote_mistakes,
    merge_remote_suspicion,
    merge_remote_suspicions,
)


class TestTaggedSet:
    def test_add_replaces_existing_record(self):
        ts = TaggedSet()
        ts.add("a", 1)
        ts.add("a", 7)
        assert ts.tag_of("a") == 7
        assert len(ts) == 1

    def test_discard_reports_presence(self):
        ts = TaggedSet([("a", 1)])
        assert ts.discard("a") is True
        assert ts.discard("a") is False
        assert "a" not in ts

    def test_snapshot_is_sorted_and_immutable(self):
        ts = TaggedSet([("b", 2), ("a", 1)])
        snap = ts.snapshot()
        assert snap == (("a", 1), ("b", 2))
        ts.add("c", 3)
        assert snap == (("a", 1), ("b", 2))

    def test_ids_and_max_tag(self):
        ts = TaggedSet([("a", 5), ("b", 9)])
        assert ts.ids() == frozenset({"a", "b"})
        assert ts.max_tag() == 9
        assert TaggedSet().max_tag() is None

    def test_copy_is_independent(self):
        ts = TaggedSet([("a", 1)])
        clone = ts.copy()
        clone.add("a", 2)
        assert ts.tag_of("a") == 1

    def test_equality(self):
        assert TaggedSet([("a", 1)]) == TaggedSet({"a": 1})
        assert TaggedSet([("a", 1)]) != TaggedSet([("a", 2)])

    def test_iteration_order_is_deterministic(self):
        ts = TaggedSet([(3, 1), (1, 2), (2, 3)])
        assert [pid for pid, _ in ts] == [1, 2, 3]

    def test_constructor_from_mapping(self):
        ts = TaggedSet({"x": 4})
        assert ts.tag_of("x") == 4


class TestLocalSuspicion:
    """Lines 9-15: suspicions raised at the end of a query round."""

    def test_fresh_suspicion_uses_current_counter(self):
        state = SuspicionState(owner=1)
        state.counter = 5
        result = state.suspect_locally(2)
        assert result.outcome is MergeOutcome.SUSPICION_ADOPTED
        assert state.suspected.tag_of(2) == 5

    def test_already_suspected_is_ignored(self):
        state = SuspicionState(owner=1)
        state.suspect_locally(2)
        before = state.suspected.tag_of(2)
        result = state.suspect_locally(2)
        assert result.outcome is MergeOutcome.IGNORED
        assert state.suspected.tag_of(2) == before

    def test_mistake_record_bumps_counter_past_its_tag(self):
        # Lines 10-12: a prior mistake <p, c> forces counter >= c + 1 so the
        # new suspicion supersedes the stale refutation.
        state = SuspicionState(owner=1)
        state.mistakes.add(2, 9)
        state.counter = 3
        state.suspect_locally(2)
        assert state.counter == 10
        assert state.suspected.tag_of(2) == 10
        assert 2 not in state.mistakes

    def test_mistake_with_lower_tag_does_not_lower_counter(self):
        state = SuspicionState(owner=1)
        state.mistakes.add(2, 1)
        state.counter = 8
        state.suspect_locally(2)
        assert state.counter == 8
        assert state.suspected.tag_of(2) == 8

    def test_never_suspects_self(self):
        state = SuspicionState(owner=1)
        with pytest.raises(ValueError):
            state.suspect_locally(1)

    def test_end_round_increments_counter(self):
        state = SuspicionState(owner=1)
        assert state.end_round() == 1
        assert state.end_round() == 2


class TestRemoteSuspicionMerge:
    """Lines 21-31: merging a received ``suspected_j`` record."""

    def test_unknown_process_is_adopted(self):
        state = SuspicionState(owner=1)
        result = merge_remote_suspicion(state, 3, 7)
        assert result.outcome is MergeOutcome.SUSPICION_ADOPTED
        assert state.suspected.tag_of(3) == 7

    def test_strictly_newer_tag_replaces_older_suspicion(self):
        state = SuspicionState(owner=1)
        merge_remote_suspicion(state, 3, 5)
        merge_remote_suspicion(state, 3, 9)
        assert state.suspected.tag_of(3) == 9

    def test_equal_tag_suspicion_is_ignored(self):
        # Line 22 requires counter < counter_x (strict).
        state = SuspicionState(owner=1)
        merge_remote_suspicion(state, 3, 5)
        result = merge_remote_suspicion(state, 3, 5)
        assert result.outcome is MergeOutcome.IGNORED

    def test_older_tag_is_ignored(self):
        state = SuspicionState(owner=1)
        merge_remote_suspicion(state, 3, 5)
        result = merge_remote_suspicion(state, 3, 4)
        assert result.outcome is MergeOutcome.IGNORED
        assert state.suspected.tag_of(3) == 5

    def test_newer_suspicion_cancels_standing_mistake(self):
        # Lines 27-28: adopting a suspicion removes the mistake record.
        state = SuspicionState(owner=1)
        state.mistakes.add(3, 4)
        result = merge_remote_suspicion(state, 3, 6)
        assert result.outcome is MergeOutcome.SUSPICION_ADOPTED
        assert 3 not in state.mistakes

    def test_suspicion_not_newer_than_mistake_is_ignored(self):
        state = SuspicionState(owner=1)
        state.mistakes.add(3, 6)
        result = merge_remote_suspicion(state, 3, 6)
        assert result.outcome is MergeOutcome.IGNORED
        assert 3 in state.mistakes

    def test_self_suspicion_triggers_refutation(self):
        # Lines 23-25: pi adds itself to mistake_i with counter past the tag.
        state = SuspicionState(owner=1)
        state.counter = 2
        result = merge_remote_suspicion(state, 1, 10)
        assert result.outcome is MergeOutcome.SELF_REFUTED
        assert state.counter == 11
        assert state.mistakes.tag_of(1) == 11
        assert 1 not in state.suspected

    def test_self_refutation_keeps_higher_local_counter(self):
        state = SuspicionState(owner=1)
        state.counter = 50
        merge_remote_suspicion(state, 1, 10)
        assert state.counter == 50
        assert state.mistakes.tag_of(1) == 50

    def test_stale_self_suspicion_is_ignored_after_refutation(self):
        state = SuspicionState(owner=1)
        merge_remote_suspicion(state, 1, 10)
        refuted_tag = state.mistakes.tag_of(1)
        result = merge_remote_suspicion(state, 1, 10)
        assert result.outcome is MergeOutcome.IGNORED
        assert state.mistakes.tag_of(1) == refuted_tag


class TestRemoteMistakeMerge:
    """Lines 32-37: merging a received ``mistake_j`` record."""

    def test_unknown_process_mistake_is_adopted(self):
        state = SuspicionState(owner=1)
        result = merge_remote_mistake(state, 4, 3)
        assert result.outcome is MergeOutcome.MISTAKE_ADOPTED
        assert state.mistakes.tag_of(4) == 3

    def test_equal_tag_mistake_wins_over_suspicion(self):
        # Line 33 uses <= : on a tie the mistake takes precedence.
        state = SuspicionState(owner=1)
        merge_remote_suspicion(state, 4, 5)
        result = merge_remote_mistake(state, 4, 5)
        assert result.outcome is MergeOutcome.MISTAKE_ADOPTED
        assert 4 not in state.suspected
        assert state.mistakes.tag_of(4) == 5

    def test_older_mistake_is_ignored(self):
        state = SuspicionState(owner=1)
        merge_remote_suspicion(state, 4, 5)
        result = merge_remote_mistake(state, 4, 4)
        assert result.outcome is MergeOutcome.IGNORED
        assert 4 in state.suspected

    def test_mistake_clears_suspicion(self):
        state = SuspicionState(owner=1)
        merge_remote_suspicion(state, 4, 5)
        merge_remote_mistake(state, 4, 8)
        assert state.suspects() == frozenset()
        assert state.mistakes.tag_of(4) == 8

    def test_identical_mistake_is_not_readopted(self):
        # Lemma 4 relies on a repeated mistake failing line 33's predicate;
        # the <= only applies against a *suspicion* with the same tag.
        state = SuspicionState(owner=1)
        first = merge_remote_mistake(state, 4, 5)
        second = merge_remote_mistake(state, 4, 5)
        assert first.outcome is MergeOutcome.MISTAKE_ADOPTED
        assert second.outcome is MergeOutcome.IGNORED

    def test_strictly_newer_mistake_replaces_mistake(self):
        state = SuspicionState(owner=1)
        merge_remote_mistake(state, 4, 5)
        result = merge_remote_mistake(state, 4, 6)
        assert result.outcome is MergeOutcome.MISTAKE_ADOPTED
        assert state.mistakes.tag_of(4) == 6


class TestTaggedSetCaching:
    """The snapshot/ids caches and the version counter behind them."""

    def test_snapshot_is_cached_between_mutations(self):
        ts = TaggedSet([("b", 2), ("a", 1)])
        assert ts.snapshot() is ts.snapshot()
        assert ts.ids() is ts.ids()

    def test_mutation_invalidates_the_caches(self):
        ts = TaggedSet([("a", 1)])
        snap, ids = ts.snapshot(), ts.ids()
        ts.add("b", 2)
        assert ts.snapshot() == (("a", 1), ("b", 2))
        assert ts.ids() == frozenset({"a", "b"})
        assert snap == (("a", 1),)  # old tuple untouched
        assert ids == frozenset({"a"})

    def test_version_bumps_only_on_effective_change(self):
        ts = TaggedSet()
        v0 = ts.version
        ts.add("a", 1)
        v1 = ts.version
        assert v1 > v0
        ts.add("a", 1)  # identical record: not a mutation
        assert ts.version == v1
        snap = ts.snapshot()
        ts.add("a", 1)
        assert ts.snapshot() is snap
        ts.add("a", 2)  # tag replacement is a mutation
        assert ts.version > v1

    def test_discard_and_clear_bump_only_when_present(self):
        ts = TaggedSet([("a", 1)])
        v = ts.version
        assert ts.discard("missing") is False
        assert ts.version == v
        assert ts.discard("a") is True
        assert ts.version > v
        v = ts.version
        ts.clear()  # already empty: no-op
        assert ts.version == v

    def test_iteration_uses_the_cached_order(self):
        ts = TaggedSet([(3, 1), (1, 2), (2, 3)])
        assert list(ts) == list(ts.snapshot())


class TestBatchedMerges:
    """merge_query / merge_remote_suspicions / merge_remote_mistakes."""

    def _steady_state(self):
        state = SuspicionState(owner=1)
        for pid in (2, 3, 4):
            state.suspected.add(pid, 5)
        for pid in (5, 6):
            state.mistakes.add(pid, 5)
        state.counter = 10
        return state

    def test_all_stale_batch_returns_the_empty_singleton(self):
        state = self._steady_state()
        delta = state.merge_query(
            state.suspected.snapshot(), state.mistakes.snapshot()
        )
        assert delta is EMPTY_DELTA
        assert not delta

    def test_steady_state_merge_allocates_no_merge_results(self, monkeypatch):
        # The acceptance check of the batched fast path: with every record
        # stale, not a single MergeResult may be constructed.  Replacing the
        # class with a tripwire makes any construction explode.
        state = self._steady_state()
        suspected = state.suspected.snapshot()
        mistakes = state.mistakes.snapshot()

        def tripwire(*args, **kwargs):
            raise AssertionError("batched merge allocated a MergeResult")

        monkeypatch.setattr(tags, "MergeResult", tripwire)
        delta = state.merge_query(suspected, mistakes)
        assert delta is EMPTY_DELTA

    def test_adoption_is_reported_in_record_order(self):
        state = SuspicionState(owner=1)
        delta = state.merge_query(((3, 4), (2, 1)), ((4, 2),))
        assert delta.suspicions_adopted == (3, 2)
        assert delta.mistakes_adopted == (4,)
        assert not delta.self_refuted
        assert bool(delta)

    def test_self_refutation_sets_the_flag_not_the_adoption_list(self):
        state = SuspicionState(owner=1)
        state.counter = 2
        delta = state.merge_query(((1, 10),), ())
        assert delta.self_refuted
        assert delta.suspicions_adopted == ()
        assert state.counter == 11
        assert state.mistakes.tag_of(1) == 11
        assert 1 not in state.suspected

    def test_convenience_wrappers_touch_only_their_stream(self):
        state = SuspicionState(owner=1)
        sus_delta = merge_remote_suspicions(state, ((2, 3),))
        assert sus_delta == MergeDelta(suspicions_adopted=(2,))
        mis_delta = merge_remote_mistakes(state, ((2, 4),))
        assert mis_delta == MergeDelta(mistakes_adopted=(2,))
        assert state.mistakes.tag_of(2) == 4

    def test_tie_within_one_batch_goes_to_the_mistake(self):
        state = SuspicionState(owner=1)
        delta = state.merge_query(((2, 5),), ((2, 5),))
        assert 2 not in state.suspected
        assert state.mistakes.tag_of(2) == 5
        assert delta.suspicions_adopted == (2,)
        assert delta.mistakes_adopted == (2,)


class TestInvariants:
    def test_fresh_state_is_healthy(self):
        assert SuspicionState(owner=1).invariant_violations() == []

    def test_overlap_is_reported(self):
        state = SuspicionState(owner=1)
        state.suspected.add(2, 1)
        state.mistakes.add(2, 1)
        assert any("overlap" in p for p in state.invariant_violations())

    def test_self_suspicion_is_reported(self):
        state = SuspicionState(owner=1)
        state.suspected.add(1, 1)
        assert any("suspects itself" in p for p in state.invariant_violations())

    def test_self_mistake_tag_ahead_of_counter_is_reported(self):
        # The third documented check (previously unimplemented): a mistake
        # record about the local process is always authored locally at the
        # then-current counter, so a tag above counter_i is a corrupt state.
        state = SuspicionState(owner=1)
        state.mistakes.add(1, 7)
        state.counter = 3
        assert any("self-mistake" in p for p in state.invariant_violations())

    def test_self_mistake_at_or_below_counter_is_healthy(self):
        state = SuspicionState(owner=1)
        merge_remote_suspicion(state, 1, 6)  # refutes: counter 7, tag 7
        assert state.invariant_violations() == []

    def test_remote_tags_may_exceed_the_local_counter(self):
        # Tags about OTHER processes are issued against the remote counter
        # and legitimately run ahead of ours — not a violation.
        state = SuspicionState(owner=1)
        merge_remote_suspicion(state, 2, 50)
        merge_remote_mistake(state, 3, 60)
        assert state.counter == 0
        assert state.invariant_violations() == []
