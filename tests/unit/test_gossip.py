"""Unit tests for the Friedman-Tcharny gossip heartbeat baseline."""

import pytest

from repro.baselines.gossip import GossipHeartbeat, GossipHeartbeatDetector
from repro.errors import ConfigurationError
from tests.helpers import counting


def make(pid=1, n=4, **kwargs):
    return GossipHeartbeatDetector(pid, frozenset(range(1, n + 1)), **kwargs)


class TestConfig:
    def test_timeout_must_exceed_period(self):
        with pytest.raises(ConfigurationError):
            make(period=1.0, timeout=1.0)


class TestVector:
    def test_own_entry_increments_on_each_beat(self):
        detector = make()
        detector.start(0.0)
        assert detector.heartbeat_vector()[1] == 1
        detector.on_wakeup(1.0)
        assert detector.heartbeat_vector()[1] == 2

    def test_beat_carries_full_vector(self):
        detector = make(n=3)
        effects = detector.start(0.0)
        vector = dict(effects[0].message.vector)
        assert set(vector) == {1, 2, 3}

    def test_beats_carry_the_vector_in_repr_order_of_the_ids(self):
        members = frozenset({10, 9, "b", (1, 2), "a"})
        detector = GossipHeartbeatDetector(9, members, period=1.0, timeout=2.0)
        detector.start(0.0)
        detector.on_message(0.5, "b", GossipHeartbeat(sender="b", vector=(("b", 3), (10, 1))))
        (effect,) = detector.on_wakeup(1.0)
        ids = [pid for pid, _ in effect.message.vector]
        assert ids == sorted(members, key=repr)
        assert dict(effect.message.vector) == {10: 1, 9: 2, "b": 3, (1, 2): 0, "a": 0}

    def test_max_merge_on_receive(self):
        detector = make()
        detector.start(0.0)
        beat = GossipHeartbeat(sender=2, vector=((1, 0), (2, 5), (3, 2), (4, 0)))
        detector.on_message(0.5, 2, beat)
        vector = detector.heartbeat_vector()
        assert vector[2] == 5
        assert vector[3] == 2

    def test_own_entry_never_overwritten_by_gossip(self):
        detector = make()
        detector.start(0.0)
        beat = GossipHeartbeat(sender=2, vector=((1, 99), (2, 1), (3, 0), (4, 0)))
        detector.on_message(0.5, 2, beat)
        assert detector.heartbeat_vector()[1] == 1

    def test_lower_entries_are_ignored(self):
        detector = make()
        detector.start(0.0)
        detector.on_message(0.5, 2, GossipHeartbeat(sender=2, vector=((2, 5),)))
        detector.on_message(0.6, 3, GossipHeartbeat(sender=3, vector=((2, 3),)))
        assert detector.heartbeat_vector()[2] == 5


class TestSuspicion:
    def test_timeout_without_news_suspects(self):
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        detector.on_wakeup(2.0)
        assert detector.suspects() == frozenset({2, 3, 4})

    def test_relayed_news_refreshes_timer(self):
        # Multi-hop: node 2 relays a *new* heartbeat of node 3.
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        detector.on_message(1.9, 2, GossipHeartbeat(sender=2, vector=((2, 1), (3, 1), (4, 1))))
        detector.on_wakeup(2.0)
        assert detector.suspects() == frozenset()

    def test_stale_relay_does_not_refresh(self):
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        detector.on_message(0.5, 2, GossipHeartbeat(sender=2, vector=((3, 4),)))
        # Same value again much later: no new information about 3.
        detector.on_message(2.4, 2, GossipHeartbeat(sender=2, vector=((2, 9), (3, 4),)))
        detector.on_wakeup(2.6)
        assert 3 in detector.suspects()

    def test_new_heartbeat_clears_suspicion(self):
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        detector.on_wakeup(2.0)
        assert 2 in detector.suspects()
        detector.on_message(2.5, 3, GossipHeartbeat(sender=3, vector=((2, 7), (3, 9))))
        assert 2 not in detector.suspects()
        assert 3 not in detector.suspects()

    def test_foreign_message_ignored(self):
        detector = make()
        detector.start(0.0)
        assert detector.on_message(0.5, 2, object()) == []


class TestWakeupSchedule:
    def test_next_wakeup_is_min_of_beat_and_deadline(self):
        detector = make(period=0.7, timeout=2.0)
        detector.start(0.0)
        assert detector.next_wakeup() == pytest.approx(0.7)

    def test_unstarted_detector_sleeps(self):
        assert make().next_wakeup() is None


class TestCost:
    """Counts, not timings: what hosting this core costs per message."""

    def test_in_order_vectors_keep_the_deadline_heap_small(self, monkeypatch):
        from repro.baselines import timers

        push, pop = counting(timers.heappush), counting(timers.heappop)
        monkeypatch.setattr(timers, "heappush", push)
        monkeypatch.setattr(timers, "heappop", pop)
        n = 64
        detector = make(n=n, period=1.0, timeout=2.0)
        detector.start(0.0)
        known = {pid: 0 for pid in range(1, n + 1)}
        deadlines = {peer: 2.0 for peer in range(2, n + 1)}
        for i in range(1000):
            peer, now = 2 + i % (n - 1), 0.0005 * i
            known[peer] += 1  # the sender's own entry is the only news
            beat = GossipHeartbeat(sender=peer, vector=tuple(known.items()))
            detector.on_message(now, peer, beat)
            deadlines[peer] = now + 2.0
            assert detector.next_wakeup() == min(1.0, *deadlines.values())
        assert len(detector._timers._heap) <= 2 * n
        assert pop.calls <= push.calls <= 1000

    def test_suspects_is_one_object_until_the_set_changes(self):
        detector = make(n=3, period=1.0, timeout=2.0)
        detector.start(0.0)
        nobody = detector.suspects()
        detector.on_message(0.5, 2, GossipHeartbeat(sender=2, vector=((2, 1),)))
        detector.on_wakeup(1.0)
        assert detector.suspects() is nobody
        detector.on_wakeup(2.2)  # 3 timed out at 2.0; 2 holds until 2.5
        three = detector.suspects()
        assert three == frozenset({3}) and three is not nobody
        detector.on_message(2.3, 2, GossipHeartbeat(sender=2, vector=((3, 0),)))  # no news
        assert detector.suspects() is three
        detector.on_message(2.4, 2, GossipHeartbeat(sender=2, vector=((3, 1),)))
        cleared = detector.suspects()
        assert cleared == frozenset() and cleared is not three
        assert detector.suspects() is cleared
