"""Tests for the accusation-counter Omega elector."""

from repro.core.omega import OmegaElector
from repro.core.protocol import DetectorConfig, QueryRoundOutcome
from repro.detectors import DetectorContext, build_detector


def outcome_with_responders(responders, round_id=1):
    return QueryRoundOutcome(
        round_id=round_id,
        responders=tuple(responders),
        winners=frozenset(responders),
        newly_suspected=(),
        counter_after=round_id,
        suspects_after=frozenset(),
    )


def make_elector(n=4, f=1, pid=1):
    config = DetectorConfig.for_process(pid, range(1, n + 1), f)
    return OmegaElector(config)


class TestAccusations:
    def test_initial_leader_is_smallest_id(self):
        assert make_elector().leader() == 1

    def test_missing_a_round_accrues_an_accusation(self):
        elector = make_elector()
        elector.observe_round(outcome_with_responders([1, 2, 3]))
        assert elector.accusations()[4] == 1
        assert elector.accusations()[1] == 0

    def test_leader_shifts_away_from_accused_process(self):
        elector = make_elector()
        for round_id in range(1, 4):
            elector.observe_round(outcome_with_responders([2, 3, 4], round_id))
        assert elector.leader() == 2

    def test_ties_break_by_id(self):
        elector = make_elector()
        elector.observe_round(outcome_with_responders([1, 2, 3]))
        # 1, 2, 3 all have zero accusations: smallest id wins.
        assert elector.leader() == 1


class TestGossip:
    def test_payload_and_consume_round_trip(self):
        left = make_elector(pid=1)
        right = make_elector(pid=2)
        left.observe_round(outcome_with_responders([1, 2, 3]))
        right.consume(1, left.payload())
        assert right.accusations()[4] == 1

    def test_consume_takes_entrywise_max(self):
        elector = make_elector(pid=1)
        elector.observe_round(outcome_with_responders([1, 2, 3]))  # acc[4] = 1
        elector.consume(2, {"omega.accusations": ((4, 5), (3, 0))})
        accusations = elector.accusations()
        assert accusations[4] == 5
        assert accusations[3] == 0

    def test_unknown_processes_in_gossip_are_ignored(self):
        elector = make_elector(pid=1)
        elector.consume(2, {"omega.accusations": ((99, 7),)})
        assert 99 not in elector.accusations()

    def test_payload_without_key_is_ignored(self):
        elector = make_elector(pid=1)
        elector.consume(2, {"unrelated": 1})
        assert elector.accusations()[1] == 0


def omega_core(pid, membership, f):
    """The time-free core and its Omega elector, as the registry builds them."""
    membership = frozenset(membership)
    context = DetectorContext(
        process_id=pid, membership=membership, f=f, range_density=len(membership)
    )
    built = build_detector("time-free", context, with_omega=True)
    return built.core, built.elector


class TestFactory:
    def test_detector_and_elector_are_wired(self):
        detector, elector = omega_core(1, [1, 2, 3], f=1)
        broadcast = detector.start_round()
        assert "omega.accusations" in broadcast.message.extra_payload()

    def test_convergence_through_piggyback(self):
        d1, e1 = omega_core(1, [1, 2, 3], f=1)
        d2, e2 = omega_core(2, [1, 2, 3], f=1)
        # p1 observes p3 missing a few rounds, then queries p2: the gossip
        # rides the query and p2 learns the accusations.
        for round_id in range(1, 4):
            e1.observe_round(outcome_with_responders([1, 2], round_id))
        broadcast = d1.start_round()
        d2.on_query(broadcast.message)
        assert e2.accusations()[3] == 3
        assert e1.leader() == e2.leader() == 1
