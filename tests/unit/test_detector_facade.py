"""Unit tests for the unified event-in/effects-out facade.

The QueryRoundFacade is driven entirely by hand here — no scheduler, no
driver — which is the point of the facade: task T1's round loop as a pure
state machine whose deadlines are data.
"""

import pytest

from repro.core.effects import Broadcast, SendTo
from repro.core.messages import Query, Response
from repro.core.protocol import DetectorConfig, TimeFreeDetector
from repro.detectors import QueryRoundFacade
from repro.sim.node import QueryPacing


def make_facade(pid=1, n=3, f=1, **pacing_kw):
    config = DetectorConfig.for_process(pid, range(1, n + 1), f)
    detector = TimeFreeDetector(config)
    return QueryRoundFacade(detector, QueryPacing(**pacing_kw))


def respond(facade, sender, round_id):
    return facade.on_message(0.0, sender, Response(sender=sender, round_id=round_id))


class TestRoundLifecycle:
    def test_start_broadcasts_the_query(self):
        facade = make_facade()
        effects = facade.start(0.0)
        assert len(effects) == 1
        assert isinstance(effects[0], Broadcast)
        assert isinstance(effects[0].message, Query)

    def test_no_deadline_before_quorum(self):
        facade = make_facade()  # n=3, f=1 -> quorum 2 (own response counted)
        facade.start(0.0)
        assert facade.next_wakeup() is None

    def test_quorum_arms_the_grace_deadline(self):
        facade = make_facade(grace=0.7)
        facade.start(0.0)
        respond(facade, 2, round_id=1)
        assert facade.next_wakeup() == pytest.approx(0.7)

    def test_grace_wakeup_closes_round_and_restarts(self):
        facade = make_facade(grace=0.5)
        facade.start(0.0)
        respond(facade, 2, round_id=1)
        assert facade.on_wakeup(0.5) == []
        assert facade.rounds_completed == 1
        # idle=0: the next round is due at once, in a wake-up of its own —
        # what the close's listeners send goes out before the next query.
        assert facade.next_wakeup() == 0.5
        effects = facade.on_wakeup(0.5)
        assert [type(e) for e in effects] == [Broadcast]
        assert effects[0].message.round_id == 2

    def test_idle_defers_the_next_round(self):
        facade = make_facade(grace=0.5, idle=0.3)
        facade.start(0.0)
        respond(facade, 2, round_id=1)
        assert facade.on_wakeup(0.5) == []
        assert facade.next_wakeup() == pytest.approx(0.8)
        effects = facade.on_wakeup(0.8)
        assert effects and effects[0].message.round_id == 2

    def test_missing_responder_becomes_suspected(self):
        facade = make_facade(grace=0.5)
        facade.start(0.0)
        respond(facade, 2, round_id=1)
        facade.on_wakeup(0.5)
        assert facade.suspects() == frozenset({3})

    def test_round_listener_sees_the_outcome(self):
        facade = make_facade(grace=0.5)
        seen = []
        facade.round_listeners.append(lambda pid, outcome: seen.append((pid, outcome)))
        facade.start(0.0)
        respond(facade, 2, round_id=1)
        facade.on_wakeup(0.5)
        assert len(seen) == 1
        assert seen[0][0] == 1
        assert seen[0][1].round_id == 1
        assert 3 in seen[0][1].suspects_after

    def test_incoming_query_yields_a_response(self):
        facade = make_facade()
        facade.start(0.0)
        query = Query(sender=2, round_id=7, suspected=(), mistakes=())
        effect = facade.on_message(0.0, 2, query)
        assert isinstance(effect, SendTo)
        assert effect.destination == 2
        assert effect.message.round_id == 7

    def test_a_response_below_the_quorum_is_nothing_for_the_host(self):
        facade = make_facade(n=4, f=1)  # quorum 3
        facade.start(0.0)
        assert respond(facade, 2, round_id=1) is None
        assert respond(facade, 3, round_id=1) == []  # the quorum: a deadline
        assert respond(facade, 4, round_id=1) is None

    def test_foreign_message_is_ignored(self):
        facade = make_facade()
        facade.start(0.0)
        assert facade.on_message(0.0, 2, object()) is None
        assert facade.next_wakeup() is None and facade.suspects() == frozenset()


class TestAttach:
    def test_attach_abandons_the_stale_round_for_a_fresh_one(self):
        facade = make_facade(grace=0.5, retry=0.4)
        facade.start(0.0)
        effects = facade.on_attach(3.0)
        assert [e.message.round_id for e in effects] == [2]
        assert facade.started_at == 3.0
        assert facade.next_wakeup() == pytest.approx(3.4)
        # the stale round's answer no longer counts toward a quorum
        assert respond(facade, 2, round_id=1) is None
        assert facade.quorum_at is None


class TestRetry:
    def test_retry_rebroadcasts_below_quorum(self):
        facade = make_facade(n=4, f=1, grace=0.5, retry=0.4)  # quorum 3
        first = facade.start(0.0)
        respond(facade, 2, round_id=1)  # 2 of 3: still below quorum
        assert facade.next_wakeup() == pytest.approx(0.4)
        effects = facade.on_wakeup(0.4)
        assert facade.retries_sent == 1
        assert effects == [first[0]]
        # retry re-arms itself until the quorum lands
        assert facade.next_wakeup() == pytest.approx(0.8)

    def test_quorum_cancels_the_retry(self):
        facade = make_facade(n=4, f=1, grace=0.5, retry=0.4)
        facade.start(0.0)
        respond(facade, 2, round_id=1)
        respond(facade, 3, round_id=1)  # quorum reached
        assert facade.retries_sent == 0
        assert facade.next_wakeup() == pytest.approx(0.5)  # grace, not retry
