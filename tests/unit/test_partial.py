"""Unit tests for the detector over a learned membership view (unknown participants)."""

import tracemalloc

import pytest

from repro.core import protocol
from repro.core.messages import Query, Response
from repro.core.protocol import DetectorConfig, TimeFreeDetector
from repro.errors import ConfigurationError, ProtocolError


def learned(pid=1, d=4, f=1):
    return DetectorConfig(process_id=pid, membership=None, f=f, range_density=d)


def make(pid=1, d=4, f=1, mobility=True):
    return TimeFreeDetector(learned(pid, d, f), mobility=mobility)


def query_from(sender, round_id=1, suspected=(), mistakes=()):
    return Query(sender=sender, round_id=round_id, suspected=suspected, mistakes=mistakes)


class TestConfig:
    def test_quorum_is_d_minus_f(self):
        config = learned(d=7, f=2)
        assert config.quorum == 5

    def test_d_must_exceed_f(self):
        with pytest.raises(ConfigurationError):
            learned(d=2, f=2)

    def test_negative_f_rejected(self):
        with pytest.raises(ConfigurationError):
            learned(d=3, f=-1)

    def test_a_learned_view_needs_d(self):
        with pytest.raises(ConfigurationError, match="d > f"):
            DetectorConfig(process_id=1, membership=None, f=1)

    def test_a_given_view_takes_no_range_density(self):
        with pytest.raises(ConfigurationError, match="n - f"):
            DetectorConfig(process_id=1, membership=frozenset({1, 2, 3}), f=1, range_density=3)


class TestMembershipLearning:
    def test_known_starts_empty(self):
        assert make().known() == frozenset()

    def test_query_reception_teaches_sender(self):
        detector = make()
        detector.on_query(query_from(5))
        assert detector.known() == frozenset({5})

    def test_own_query_is_not_learned(self):
        detector = make()
        assert detector.on_query(query_from(1)) is None
        assert detector.known() == frozenset()

    def test_a_given_view_knows_its_peers_and_never_learns(self):
        detector = TimeFreeDetector(DetectorConfig.for_process(1, [1, 2, 3], f=1))
        assert detector.known() == frozenset({2, 3})
        # A non-member's query is merged and answered, but 9 is not learned.
        reply = detector.on_query(query_from(9, suspected=((8, 4),)))
        assert reply.destination == 9 and reply.message.sender == 1
        assert detector.suspects() == frozenset({8})
        assert detector.known() == frozenset({2, 3})

    def test_a_given_view_never_evicts(self):
        detector = TimeFreeDetector(DetectorConfig.for_process(1, [1, 5, 7], f=1))
        detector.on_query(query_from(7, mistakes=((5, 3),)))
        assert detector.known() == frozenset({5, 7})

    def test_known_holds_a_hundred_peers_in_a_dict_sized_table(self):
        # ``known_i`` is the keys of a dict: 100 learned peers take ≈ 4.6 KiB
        # of table, where a set (grown 4x, at most 60 % full) took 8 KiB.
        detector = make(pid=0)
        queries = [query_from(peer) for peer in range(1, 101)]
        tracemalloc.start()
        try:
            for query in queries:
                detector.on_query(query)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        mine = snapshot.filter_traces([tracemalloc.Filter(True, protocol.__file__)])
        assert detector.known() == frozenset(range(1, 101))
        assert sum(stat.size for stat in mine.statistics("filename")) < 6 * 1024

    def test_responses_do_not_teach(self):
        # known_j is defined by received *queries* only (line 20).
        detector = make(d=2, f=1)
        detector.start_round()
        detector.on_response(Response(sender=7, round_id=1))
        assert detector.known() == frozenset()


class TestRounds:
    def test_only_known_processes_can_be_suspected(self):
        detector = make(d=2, f=1)  # quorum 1: own response suffices
        detector.on_query(query_from(5))
        detector.on_query(query_from(6))
        detector.start_round()
        detector.on_response(Response(sender=5, round_id=1))
        outcome = detector.finish_round()
        # 6 is known but did not respond; 5 responded.
        assert outcome.newly_suspected == (6,)
        assert detector.suspects() == frozenset({6})

    def test_unknown_silent_processes_are_not_suspected(self):
        detector = make(d=2, f=1)
        detector.start_round()
        outcome = detector.finish_round()
        assert outcome.newly_suspected == ()

    def test_quorum_counts_any_responder(self):
        # Responders need not be in `known` (they heard our broadcast).
        detector = make(d=3, f=1)  # quorum 2
        detector.start_round()
        assert not detector.quorum_reached()
        detector.on_response(Response(sender=9, round_id=1))
        assert detector.quorum_reached()

    def test_cannot_finish_early(self):
        detector = make(d=4, f=1)  # quorum 3
        detector.start_round()
        with pytest.raises(ProtocolError):
            detector.finish_round()

    def test_round_ids_pair_queries_and_responses(self):
        detector = make(d=2, f=1)
        detector.start_round()
        assert detector.on_response(Response(sender=5, round_id=99)) is False


class TestMobilityEviction:
    """Algorithm 2 lines 36-38."""

    def test_relayed_mistake_evicts_from_known(self):
        detector = make()
        detector.on_query(query_from(5))  # learn 5
        assert 5 in detector.known()
        # 7 relays a mistake raised by 5 -> 5 moved to a remote range... but
        # here the mistake is *about* 5 and carried by 7 (7 != 5): evict 5.
        detector.on_query(query_from(7, mistakes=((5, 3),)))
        assert 5 not in detector.known()
        assert 7 in detector.known()

    def test_self_raised_mistake_does_not_evict(self):
        detector = make()
        detector.on_query(query_from(5))
        # 5 itself carries its own mistake: it is in our range; keep it.
        detector.on_query(query_from(5, round_id=2, mistakes=((5, 3),)))
        assert 5 in detector.known()

    def test_stale_mistake_does_not_evict(self):
        detector = make()
        detector.on_query(query_from(5))
        detector.on_query(query_from(7, mistakes=((5, 3),)))  # evicts
        detector.on_query(query_from(5, round_id=2))  # re-learned
        # The same (now stale) mistake arrives again via another relay:
        # predicate at line 33 fails, eviction must not re-run.
        detector.on_query(query_from(8, mistakes=((5, 3),)))
        assert 5 in detector.known()

    def test_mistake_about_me_never_evicts_me(self):
        detector = make(pid=1)
        detector.on_query(query_from(7, mistakes=((1, 3),)))
        # No self-entry in known, but more importantly no crash and the
        # mistake is recorded.
        assert 1 not in detector.known()

    def test_eviction_disabled_without_mobility(self):
        detector = make(mobility=False)
        detector.on_query(query_from(5))
        detector.on_query(query_from(7, mistakes=((5, 3),)))
        assert 5 in detector.known()


class TestSuspicionPropagation:
    def test_flooding_merges_like_core(self):
        detector = make()
        detector.on_query(query_from(5, suspected=((8, 4),)))
        assert detector.suspects() == frozenset({8})
        detector.on_query(query_from(6, round_id=2, mistakes=((8, 4),)))
        assert detector.suspects() == frozenset()

    def test_self_suspicion_is_refuted(self):
        detector = make(pid=1)
        detector.on_query(query_from(5, suspected=((1, 9),)))
        broadcast = detector.start_round()
        assert broadcast.message.mistakes == ((1, 10),)

    def test_evicted_process_is_not_resuspected_at_round_end(self):
        # The point of Algorithm 2: after eviction, the mover's old
        # neighbors stop re-suspecting it.
        detector = make(d=2, f=1)
        detector.on_query(query_from(5))
        detector.start_round()
        outcome = detector.finish_round()
        assert outcome.newly_suspected == (5,)
        # 5's self-mistake arrives via relay 7 -> clears suspicion + evicts.
        detector.on_query(query_from(7, round_id=2, mistakes=((5, 6),)))
        assert detector.suspects() == frozenset()
        detector.start_round()
        detector.on_response(Response(sender=7, round_id=2))
        outcome = detector.finish_round()
        # 5 was evicted from `known`, so its silence no longer raises a
        # suspicion (7, the relay, responded normally).
        assert 5 not in outcome.newly_suspected
        assert outcome.newly_suspected == ()
