"""Property-based tests of the counter-tag merge semantics.

The merge rules are the protocol's safety core: whatever interleaving of
local suspicions, remote suspicions and remote mistakes a process observes,
its state must stay internally consistent and freshness must be monotone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tags import MergeOutcome, SuspicionState
from tests.reference_tags import merge_remote_mistake, merge_remote_suspicion

OWNER = 0
PIDS = st.integers(min_value=0, max_value=6)
TAGS = st.integers(min_value=0, max_value=30)

#: One protocol-visible operation on the state.  A mistake record about
#: OWNER can only ever originate from OWNER's *own* refutation, tagged
#: at-or-below its counter at that instant — a relayed ``<OWNER, tag>``
#: mistake with an arbitrary tag is a forged record no real execution
#: produces (and the invariant suite now flags it), so the generator only
#: creates self-mistakes through the realistic route: a remote suspicion
#: naming OWNER, which the state refutes itself.
OPERATIONS = st.one_of(
    st.tuples(st.just("remote_suspicion"), PIDS, TAGS),
    st.tuples(st.just("remote_mistake"), PIDS.filter(lambda p: p != OWNER), TAGS),
    st.tuples(st.just("local_suspicion"), PIDS.filter(lambda p: p != OWNER), TAGS),
    st.tuples(st.just("end_round"), st.just(0), st.just(0)),
)


def apply_operations(state: SuspicionState, operations) -> None:
    for op, pid, tag in operations:
        if op == "remote_suspicion":
            merge_remote_suspicion(state, pid, tag)
        elif op == "remote_mistake":
            merge_remote_mistake(state, pid, tag)
        elif op == "local_suspicion":
            if pid not in state.suspected:
                state.suspect_locally(pid)
        elif op == "end_round":
            state.end_round()


class TestStateInvariants:
    @given(st.lists(OPERATIONS, max_size=60))
    @settings(max_examples=200)
    def test_invariants_hold_under_any_interleaving(self, operations):
        state = SuspicionState(owner=OWNER)
        apply_operations(state, operations)
        assert state.invariant_violations() == []

    @given(st.lists(OPERATIONS, max_size=60))
    @settings(max_examples=200)
    def test_owner_never_in_suspected(self, operations):
        state = SuspicionState(owner=OWNER)
        apply_operations(state, operations)
        assert OWNER not in state.suspected

    @given(st.lists(OPERATIONS, max_size=60))
    @settings(max_examples=200)
    def test_sets_stay_disjoint(self, operations):
        state = SuspicionState(owner=OWNER)
        apply_operations(state, operations)
        assert not (state.suspected.ids() & state.mistakes.ids())

    @given(st.lists(OPERATIONS, max_size=60))
    @settings(max_examples=100)
    def test_counter_never_decreases(self, operations):
        state = SuspicionState(owner=OWNER)
        low_water = 0
        for batch in [operations[i : i + 5] for i in range(0, len(operations), 5)]:
            apply_operations(state, batch)
            assert state.counter >= low_water
            low_water = state.counter


class TestFreshnessMonotonicity:
    @given(PIDS.filter(lambda p: p != OWNER), TAGS, TAGS)
    def test_stored_tag_never_regresses(self, pid, first, second):
        state = SuspicionState(owner=OWNER)
        merge_remote_suspicion(state, pid, first)
        merge_remote_suspicion(state, pid, second)
        assert state.suspected.tag_of(pid) == max(first, second)

    @given(PIDS.filter(lambda p: p != OWNER), TAGS, TAGS)
    def test_mistake_tag_never_regresses(self, pid, first, second):
        state = SuspicionState(owner=OWNER)
        merge_remote_mistake(state, pid, first)
        merge_remote_mistake(state, pid, second)
        assert state.mistakes.tag_of(pid) == max(first, second)

    @given(PIDS.filter(lambda p: p != OWNER), TAGS)
    def test_merge_is_idempotent(self, pid, tag):
        state_once = SuspicionState(owner=OWNER)
        merge_remote_suspicion(state_once, pid, tag)
        state_twice = SuspicionState(owner=OWNER)
        merge_remote_suspicion(state_twice, pid, tag)
        merge_remote_suspicion(state_twice, pid, tag)
        assert state_once.suspected == state_twice.suspected
        assert state_once.mistakes == state_twice.mistakes

    @given(
        st.lists(st.tuples(PIDS.filter(lambda p: p != OWNER), TAGS), max_size=20)
    )
    def test_suspicion_merge_order_does_not_matter(self, records):
        forward = SuspicionState(owner=OWNER)
        backward = SuspicionState(owner=OWNER)
        for pid, tag in records:
            merge_remote_suspicion(forward, pid, tag)
        for pid, tag in reversed(records):
            merge_remote_suspicion(backward, pid, tag)
        assert forward.suspected == backward.suspected

    @given(PIDS.filter(lambda p: p != OWNER), TAGS)
    def test_tie_goes_to_the_mistake(self, pid, tag):
        state = SuspicionState(owner=OWNER)
        merge_remote_suspicion(state, pid, tag)
        result = merge_remote_mistake(state, pid, tag)
        assert result.outcome is MergeOutcome.MISTAKE_ADOPTED
        assert pid not in state.suspected

    @given(PIDS.filter(lambda p: p != OWNER), TAGS)
    def test_tie_does_not_go_to_the_suspicion(self, pid, tag):
        state = SuspicionState(owner=OWNER)
        merge_remote_mistake(state, pid, tag)
        result = merge_remote_suspicion(state, pid, tag)
        assert result.outcome is MergeOutcome.IGNORED
        assert pid not in state.suspected


class TestRefutation:
    @given(TAGS)
    def test_self_accusation_always_refuted_with_greater_tag(self, tag):
        state = SuspicionState(owner=OWNER)
        result = merge_remote_suspicion(state, OWNER, tag)
        assert result.outcome is MergeOutcome.SELF_REFUTED
        assert state.mistakes.tag_of(OWNER) > tag

    @given(st.lists(TAGS, min_size=1, max_size=10))
    def test_repeated_accusations_keep_counter_ahead(self, tags):
        state = SuspicionState(owner=OWNER)
        for tag in tags:
            merge_remote_suspicion(state, OWNER, tag)
        assert state.counter > max(tags) or state.mistakes.tag_of(OWNER) >= max(tags)
