"""Unit tests for the time-free detector state machine (Algorithm 1)."""

import pytest

from repro.core import DetectorConfig, Query, Response, TimeFreeDetector
from repro.core.effects import Broadcast, SendTo
from repro.errors import ConfigurationError, MembershipError, ProtocolError

from ..helpers import InstantExchange, make_detectors


class TestDetectorConfig:
    def test_quorum_is_n_minus_f(self):
        config = DetectorConfig.for_process(1, range(1, 6), f=2)
        assert config.n == 5
        assert config.quorum == 3

    def test_f_must_be_less_than_n(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig.for_process(1, [1, 2, 3], f=3)

    def test_f_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig.for_process(1, [1, 2, 3], f=-1)

    def test_process_must_belong_to_membership(self):
        with pytest.raises(MembershipError):
            DetectorConfig.for_process(9, [1, 2, 3], f=1)

    def test_membership_must_not_be_empty(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(process_id=1, membership=frozenset(), f=0)


class TestQueryRound:
    def test_start_round_broadcasts_current_sets(self):
        detectors = make_detectors(3, f=1)
        d1 = detectors[1]
        d1.state.suspected.add(3, 4)
        effect = d1.start_round()
        assert isinstance(effect, Broadcast)
        query = effect.message
        assert isinstance(query, Query)
        assert query.sender == 1
        assert query.round_id == 1
        assert query.suspected == ((3, 4),)
        assert query.mistakes == ()

    def test_own_response_is_accounted_immediately(self):
        d1 = make_detectors(3, f=1)[1]
        d1.start_round()
        # quorum is 2: own response + one more
        assert not d1.quorum_reached()
        d1.on_response(Response(sender=2, round_id=1))
        assert d1.quorum_reached()

    def test_cannot_start_round_while_collecting(self):
        d1 = make_detectors(3, f=1)[1]
        d1.start_round()
        with pytest.raises(ProtocolError):
            d1.start_round()

    def test_cannot_finish_before_quorum(self):
        d1 = make_detectors(4, f=1)[1]  # quorum 3
        d1.start_round()
        d1.on_response(Response(sender=2, round_id=1))
        with pytest.raises(ProtocolError):
            d1.finish_round()

    def test_cannot_finish_without_round(self):
        d1 = make_detectors(3, f=1)[1]
        with pytest.raises(ProtocolError):
            d1.finish_round()

    def test_stale_response_is_ignored(self):
        d1 = make_detectors(3, f=1)[1]
        d1.start_round()
        assert d1.on_response(Response(sender=2, round_id=99)) is False
        assert not d1.quorum_reached()

    def test_duplicate_response_counts_once(self):
        d1 = make_detectors(4, f=1)[1]
        d1.start_round()
        assert d1.on_response(Response(sender=2, round_id=1)) is True
        assert d1.on_response(Response(sender=2, round_id=1)) is False
        assert not d1.quorum_reached()

    def test_round_ids_increase(self):
        detectors = make_detectors(2, f=1)
        exchange = InstantExchange(detectors)
        first = exchange.run_round(1)
        second = exchange.run_round(1)
        assert (first.round_id, second.round_id) == (1, 2)

    def test_missing_processes_become_suspected(self):
        detectors = make_detectors(4, f=2)  # quorum 2
        exchange = InstantExchange(detectors)
        outcome = exchange.run_round(1, responders=[2], receivers=[2])
        assert outcome.newly_suspected == (3, 4)
        assert detectors[1].suspects() == frozenset({3, 4})

    def test_counter_increments_after_round(self):
        detectors = make_detectors(3, f=1)
        exchange = InstantExchange(detectors)
        assert detectors[1].counter == 0
        exchange.run_round(1)
        assert detectors[1].counter == 1

    def test_extra_responses_after_quorum_enlarge_rec_from(self):
        # The evaluation's pacing improvement: replies beyond n - f still
        # count, reducing false suspicions.
        detectors = make_detectors(4, f=2)  # quorum 2
        exchange = InstantExchange(detectors)
        outcome = exchange.run_round(1, responders=[2, 3, 4])
        assert outcome.newly_suspected == ()
        assert set(outcome.responders) == {1, 2, 3, 4}

    def test_winners_are_first_quorum_responders(self):
        detectors = make_detectors(4, f=1)  # quorum 3
        exchange = InstantExchange(detectors)
        outcome = exchange.run_round(1, responders=[3, 2, 4])
        assert outcome.winners == frozenset({1, 3, 2})

    def test_abort_round_allows_restart(self):
        d1 = make_detectors(3, f=1)[1]
        d1.start_round()
        d1.abort_round()
        effect = d1.start_round()
        assert effect.message.round_id == 2


class TestQueryHandling:
    def test_query_is_answered_with_matching_round_id(self):
        detectors = make_detectors(3, f=1)
        query = Query(sender=2, round_id=7, suspected=(), mistakes=())
        effect = detectors[1].on_query(query)
        assert isinstance(effect, SendTo)
        assert effect.destination == 2
        assert effect.message == Response(sender=1, round_id=7)

    def test_own_query_is_ignored(self):
        detectors = make_detectors(3, f=1)
        query = Query(sender=1, round_id=1, suspected=(), mistakes=())
        assert detectors[1].on_query(query) is None

    def test_received_suspicions_are_merged(self):
        detectors = make_detectors(3, f=1)
        query = Query(sender=2, round_id=1, suspected=((3, 5),), mistakes=())
        detectors[1].on_query(query)
        assert detectors[1].suspects() == frozenset({3})

    def test_received_mistakes_are_merged(self):
        detectors = make_detectors(3, f=1)
        detectors[1].state.suspected.add(3, 2)
        query = Query(sender=2, round_id=1, suspected=(), mistakes=((3, 5),))
        detectors[1].on_query(query)
        assert detectors[1].suspects() == frozenset()
        assert detectors[1].mistakes() == frozenset({3})

    def test_being_suspected_triggers_refutation_in_next_query(self):
        detectors = make_detectors(3, f=1)
        accusation = Query(sender=2, round_id=1, suspected=((1, 9),), mistakes=())
        detectors[1].on_query(accusation)
        effect = detectors[1].start_round()
        assert effect.message.mistakes == ((1, 10),)
        assert effect.message.suspected == ()


class TestFigureOneScenario:
    """Re-enactment of the paper's Section 4.4 example (Figure 1).

    Topology specifics aside (the DSN'03 core is fully connected), the
    counter dynamics are identical: two observers suspect a crashed process
    with different counters (5 and 10); propagation must converge on the
    freshest record <A, 10> everywhere.
    """

    def test_freshest_suspicion_wins_everywhere(self):
        detectors = make_detectors(5, f=1)
        a, b, c, d, e = 1, 2, 3, 4, 5
        # Step (b): A fails; B (counter 5) and C (counter 10) notice locally.
        detectors[b].state.counter = 5
        detectors[c].state.counter = 10
        detectors[b].state.suspect_locally(a)
        detectors[c].state.suspect_locally(a)
        exchange = InstantExchange(detectors)
        # Step (c): B and C broadcast their suspicions (A is crashed: it
        # neither receives nor responds).
        exchange.run_round(b, receivers=[c, d, e], responders=[c, d, e])
        exchange.run_round(c, receivers=[b, d, e], responders=[b, d, e])
        # B must have upgraded to C's fresher record; C must have kept 10.
        assert detectors[b].state.suspected.tag_of(a) == 10
        assert detectors[c].state.suspected.tag_of(a) == 10
        # Step (d): one more exchange converges D and E on <A, 10>.
        exchange.run_round(d, receivers=[b, c, e], responders=[b, c, e])
        exchange.run_round(e, receivers=[b, c, d], responders=[b, c, d])
        for pid in (b, c, d, e):
            assert detectors[pid].state.suspected.tag_of(a) == 10
            assert detectors[pid].suspects() == frozenset({a})


class TestCrashRefutationCycle:
    def test_false_suspicion_is_corrected_and_does_not_resurrect(self):
        detectors = make_detectors(3, f=1)
        exchange = InstantExchange(detectors)
        # Process 3 is slow once: its response misses p1's quorum window.
        outcome = exchange.run_round(1, receivers=[2, 3], responders=[2])
        assert outcome.suspects_after == frozenset({3})
        # p1's next query carries the suspicion; p3 refutes it.
        exchange.run_round(1, receivers=[2, 3], responders=[2, 3])
        # p3 broadcasts its mistake; p1 clears the suspicion.
        exchange.run_round(3, receivers=[1, 2], responders=[1, 2])
        assert detectors[1].suspects() == frozenset()
        # The stale suspicion tag must not override the fresher mistake.
        stale = Query(sender=2, round_id=99, suspected=((3, 0),), mistakes=())
        detectors[1].on_query(stale)
        assert detectors[1].suspects() == frozenset()


class TestHotPathCaches:
    """PR 4: cached config sweeps and the allocation-free steady state."""

    def test_peers_sorted_is_cached_and_correct(self):
        config = DetectorConfig.for_process(2, [3, 1, 2], f=1)
        members_sorted = tuple(sorted({1, 2, 3}, key=repr))
        assert config.peers_sorted == tuple(p for p in members_sorted if p != 2)
        # Same tuple object on every access: computed once at construction.
        assert config.peers_sorted is config.peers_sorted
        # The line-9 sweep's known_i on a given view is exactly these peers.
        assert TimeFreeDetector(config).known() == frozenset(config.peers_sorted)

    def test_query_snapshot_is_reused_across_quiet_rounds(self):
        detectors = make_detectors(3, f=2)
        d1 = detectors[1]
        d1.state.suspected.add(3, 1)
        first = d1.start_round().message
        d1.on_response(Response(sender=2, round_id=1))
        d1.on_response(Response(sender=3, round_id=1))
        d1.finish_round()
        second = d1.start_round().message
        # No suspicion churn between rounds: the embedded snapshot tuple is
        # the cached object, not a re-sorted copy.
        assert second.suspected is first.suspected

    def test_steady_state_on_query_allocates_no_merge_results(self, monkeypatch):
        from repro.core import tags

        detectors = make_detectors(4, f=1)
        d1, d2 = detectors[1], detectors[2]
        d1.state.suspected.add(3, 2)
        d1.state.mistakes.add(4, 2)
        d1.state.counter = 5
        d2.state.suspected.add(3, 2)
        d2.state.mistakes.add(4, 2)
        d2.state.counter = 5
        query = d1.start_round().message

        def tripwire(*args, **kwargs):
            raise AssertionError("steady-state on_query allocated a MergeResult")

        monkeypatch.setattr(tags, "MergeResult", tripwire)
        effect = d2.on_query(query)
        assert isinstance(effect, SendTo)
        assert effect.destination == 1

    def test_on_query_merges_batched_like_the_oracle(self):
        # End-to-end sanity: a mixed fresh/stale payload through on_query
        # lands exactly where the per-record oracle puts it.
        detectors = make_detectors(5, f=1)
        d2 = detectors[2]
        d2.state.suspected.add(4, 1)
        query = Query(
            sender=1,
            round_id=1,
            suspected=((3, 7), (4, 1)),   # 3 fresh, 4 stale
            mistakes=((4, 1), (5, 2)),    # 4 ties-beats-suspicion, 5 fresh
        )
        d2.on_query(query)
        assert d2.suspects() == frozenset({3})
        assert d2.mistakes() == frozenset({4, 5})
        assert d2.state.mistakes.tag_of(4) == 1
