"""Batched merges pinned to the per-record oracle.

``SuspicionState.merge_query`` (called one-sided by the oracle's
``merge_remote_suspicions`` / ``merge_remote_mistakes``) is the
protocol-core hot path: one fused pass, allocation-free when every record
is stale.  The per-record ``merge_remote_suspicion`` /
``merge_remote_mistake`` of ``tests/reference_tags.py`` are the audited
reference implementation.  Hypothesis drives both over identical
random record streams — including self-accusations (refutation), repeated
subjects within one stream, and tag ties (mistake-beats-suspicion) — and
the resulting states must be indistinguishable, with the compact delta
exactly summarising the oracle's per-record outcomes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tags import EMPTY_DELTA, MergeOutcome, SuspicionState, TaggedSet
from tests.reference_tags import (
    merge_remote_mistake,
    merge_remote_mistakes,
    merge_remote_suspicion,
    merge_remote_suspicions,
)

OWNER = 0
#: Tiny id/tag spaces force collisions: repeated subjects inside one stream,
#: exact tag ties, and records about OWNER all occur routinely.
PIDS = st.integers(min_value=0, max_value=5)
TAGS = st.integers(min_value=0, max_value=8)
RECORDS = st.lists(st.tuples(PIDS, TAGS), max_size=12).map(tuple)
COUNTERS = st.integers(min_value=0, max_value=10)


def seeded_state(suspected, mistakes, counter) -> SuspicionState:
    """A state with arbitrary (disjoint) pre-existing records."""
    state = SuspicionState(owner=OWNER)
    for pid, tag in suspected:
        if pid != OWNER:
            state.suspected.add(pid, tag)
    for pid, tag in mistakes:
        if pid not in state.suspected:
            state.mistakes.add(pid, tag)
    state.counter = counter
    return state


def clone(state: SuspicionState) -> SuspicionState:
    return SuspicionState(
        owner=state.owner,
        suspected=state.suspected.copy(),
        mistakes=state.mistakes.copy(),
        counter=state.counter,
    )


def oracle_merge(state: SuspicionState, suspected, mistakes):
    """Per-record reference: returns what the batched delta must report."""
    suspicions_adopted = []
    mistakes_adopted = []
    self_refuted = False
    for pid, tag in suspected:
        result = merge_remote_suspicion(state, pid, tag)
        if result.outcome is MergeOutcome.SUSPICION_ADOPTED:
            suspicions_adopted.append(pid)
        elif result.outcome is MergeOutcome.SELF_REFUTED:
            self_refuted = True
    for pid, tag in mistakes:
        result = merge_remote_mistake(state, pid, tag)
        if result.outcome is MergeOutcome.MISTAKE_ADOPTED:
            mistakes_adopted.append(pid)
    return tuple(suspicions_adopted), tuple(mistakes_adopted), self_refuted


def assert_same_state(batched: SuspicionState, oracle: SuspicionState) -> None:
    assert batched.suspected == oracle.suspected
    assert batched.mistakes == oracle.mistakes
    assert batched.counter == oracle.counter


class TestMergeQueryMatchesOracle:
    @given(
        pre_s=RECORDS, pre_m=RECORDS, counter=COUNTERS, sus=RECORDS, mis=RECORDS
    )
    @settings(max_examples=300)
    def test_state_and_delta_match(self, pre_s, pre_m, counter, sus, mis):
        batched = seeded_state(pre_s, pre_m, counter)
        oracle = clone(batched)
        delta = batched.merge_query(sus, mis)
        s_adopted, m_adopted, refuted = oracle_merge(oracle, sus, mis)
        assert_same_state(batched, oracle)
        assert delta.suspicions_adopted == s_adopted
        assert delta.mistakes_adopted == m_adopted
        assert delta.self_refuted == refuted

    @given(pre_s=RECORDS, pre_m=RECORDS, counter=COUNTERS, records=RECORDS)
    @settings(max_examples=200)
    def test_suspicion_batch_matches(self, pre_s, pre_m, counter, records):
        batched = seeded_state(pre_s, pre_m, counter)
        oracle = clone(batched)
        delta = merge_remote_suspicions(batched, records)
        s_adopted, _, refuted = oracle_merge(oracle, records, ())
        assert_same_state(batched, oracle)
        assert delta.suspicions_adopted == s_adopted
        assert delta.mistakes_adopted == ()
        assert delta.self_refuted == refuted

    @given(pre_s=RECORDS, pre_m=RECORDS, counter=COUNTERS, records=RECORDS)
    @settings(max_examples=200)
    def test_mistake_batch_matches(self, pre_s, pre_m, counter, records):
        batched = seeded_state(pre_s, pre_m, counter)
        oracle = clone(batched)
        delta = merge_remote_mistakes(batched, records)
        _, m_adopted, _ = oracle_merge(oracle, (), records)
        assert_same_state(batched, oracle)
        assert delta.suspicions_adopted == ()
        assert delta.mistakes_adopted == m_adopted
        assert not delta.self_refuted

    @given(pre_s=RECORDS, pre_m=RECORDS, counter=COUNTERS)
    @settings(max_examples=150)
    def test_echoing_own_state_back_is_always_empty(self, pre_s, pre_m, counter):
        # The steady state: a query carrying exactly our sets is 100% stale,
        # and staleness must be reported with the shared empty delta (no
        # allocation), never a fresh object.
        state = seeded_state(pre_s, pre_m, counter)
        delta = state.merge_query(
            state.suspected.snapshot(), state.mistakes.snapshot()
        )
        assert delta is EMPTY_DELTA
        assert not delta

    @given(tag=TAGS, counter=COUNTERS)
    def test_self_refutation_round_trip(self, tag, counter):
        batched = SuspicionState(owner=OWNER, counter=counter)
        oracle = SuspicionState(owner=OWNER, counter=counter)
        delta = batched.merge_query(((OWNER, tag),), ())
        merge_remote_suspicion(oracle, OWNER, tag)
        assert_same_state(batched, oracle)
        assert delta.self_refuted
        assert OWNER not in batched.suspected
        assert batched.mistakes.tag_of(OWNER) == batched.counter

    @given(pid=PIDS.filter(lambda p: p != OWNER), tag=TAGS)
    def test_tie_goes_to_the_mistake_in_one_batch(self, pid, tag):
        # A suspicion and a mistake for the same subject with the same tag
        # inside one query: the suspicion lands first, the mistake displaces
        # it — exactly as the sequential oracle dictates.
        state = SuspicionState(owner=OWNER)
        delta = state.merge_query(((pid, tag),), ((pid, tag),))
        assert pid not in state.suspected
        assert state.mistakes.tag_of(pid) == tag
        assert delta.suspicions_adopted == (pid,)
        assert delta.mistakes_adopted == (pid,)


class TestTaggedSetCaching:
    @given(records=RECORDS)
    def test_snapshot_matches_fresh_sort(self, records):
        ts = TaggedSet()
        for pid, tag in records:
            ts.add(pid, tag)
        expected = tuple(sorted(ts.ids(), key=repr))
        assert tuple(pid for pid, _ in ts.snapshot()) == expected
        # Cache hit returns the identical object until the next mutation.
        assert ts.snapshot() is ts.snapshot()
        assert ts.ids() is ts.ids()

    @given(records=st.lists(st.tuples(PIDS, TAGS), min_size=1, max_size=12))
    def test_mutation_invalidates_and_reequals(self, records):
        ts = TaggedSet()
        for pid, tag in records:
            before = ts.snapshot()
            ts.add(pid, tag)
            after = ts.snapshot()
            assert after == tuple(sorted(ts._tags.items(), key=lambda i: repr(i[0])))
            if before != after:
                assert ts.version > 0
