"""Unit tests for the all-to-all heartbeat baseline (sans-I/O core)."""

import pytest

from repro.baselines.heartbeat import Heartbeat, HeartbeatDetector
from repro.core.effects import Broadcast
from repro.errors import ConfigurationError
from tests.helpers import counting


def make(pid=1, n=3, **kwargs):
    return HeartbeatDetector(pid, frozenset(range(1, n + 1)), **kwargs)


class TestConfig:
    def test_rejects_nonpositive_period(self):
        with pytest.raises(ConfigurationError):
            make(period=0.0)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigurationError):
            make(timeout=-1.0)

    def test_name_reflects_adaptivity(self):
        assert make().name == "heartbeat"
        assert make(adaptive=True).name == "heartbeat(adaptive)"


class TestBeats:
    def test_start_broadcasts_first_beat(self):
        detector = make(period=1.0)
        effects = detector.start(0.0)
        assert len(effects) == 1
        assert isinstance(effects[0], Broadcast)
        assert effects[0].message == Heartbeat(sender=1, seq=1)

    def test_beats_are_periodic(self):
        detector = make(period=1.0, timeout=10.0)
        detector.start(0.0)
        assert detector.next_wakeup() == 1.0
        effects = detector.on_wakeup(1.0)
        assert effects[0].message.seq == 2

    def test_wakeup_before_beat_time_sends_nothing(self):
        detector = make(period=1.0, timeout=10.0)
        detector.start(0.0)
        assert detector.on_wakeup(0.5) == []


class TestSuspicion:
    def test_silent_peer_is_suspected_after_timeout(self):
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        detector.on_message(0.1, 2, Heartbeat(sender=2, seq=1))
        detector.on_wakeup(2.0)  # peer 3 never spoke: deadline was 0 + 2.0
        assert detector.suspects() == frozenset({3})

    def test_heartbeat_refreshes_deadline(self):
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        detector.on_message(1.9, 2, Heartbeat(sender=2, seq=1))
        detector.on_message(1.9, 3, Heartbeat(sender=3, seq=1))
        detector.on_wakeup(2.5)
        assert detector.suspects() == frozenset()

    def test_late_heartbeat_clears_suspicion(self):
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        detector.on_wakeup(2.0)
        assert 2 in detector.suspects()
        detector.on_message(2.5, 2, Heartbeat(sender=2, seq=1))
        assert 2 not in detector.suspects()

    def test_stale_reordered_beat_is_ignored(self):
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        detector.on_message(0.1, 2, Heartbeat(sender=2, seq=5))
        detector.on_wakeup(2.0)
        suspects_before = detector.suspects()
        # An old datagram (seq 3) arrives after suspicion: must not clear it.
        detector.on_message(2.1, 2, Heartbeat(sender=2, seq=3))
        assert detector.suspects() == suspects_before

    def test_foreign_message_is_ignored(self):
        detector = make()
        detector.start(0.0)
        assert detector.on_message(0.1, 2, object()) == []

    def test_unknown_sender_is_ignored(self):
        detector = make()
        detector.start(0.0)
        assert detector.on_message(0.1, 99, Heartbeat(sender=99, seq=1)) == []


class TestNextWakeup:
    def test_earliest_of_beat_and_deadlines(self):
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        # Next beat at 1.0, deadlines at 2.0 -> beat wins.
        assert detector.next_wakeup() == 1.0

    def test_suspected_peers_do_not_hold_timers(self):
        detector = make(n=2, period=5.0, timeout=2.0)
        detector.start(0.0)
        detector.on_wakeup(2.0)
        assert detector.suspects() == frozenset({2})
        # Only the beat timer remains.
        assert detector.next_wakeup() == 5.0

    def test_not_started_has_no_wakeup(self):
        assert make().next_wakeup() is None


class TestAdaptiveTimeout:
    def test_false_suspicion_grows_timeout(self):
        detector = make(period=1.0, timeout=2.0, adaptive=True, timeout_increment=0.5)
        detector.start(0.0)
        detector.on_wakeup(2.0)
        assert 2 in detector.suspects()
        detector.on_message(2.5, 2, Heartbeat(sender=2, seq=1))
        assert detector.timeout_of(2) == 2.5
        assert detector.timeout_of(3) == 2.0  # per-peer adaptation

    def test_non_adaptive_timeout_is_constant(self):
        detector = make(period=1.0, timeout=2.0, adaptive=False)
        detector.start(0.0)
        detector.on_wakeup(2.0)
        detector.on_message(2.5, 2, Heartbeat(sender=2, seq=1))
        assert detector.timeout_of(2) == 2.0


class TestCost:
    """Counts, not timings: what hosting this core costs per message."""

    def test_in_order_beats_keep_the_deadline_heap_small(self, monkeypatch):
        from repro.baselines import timers

        push, pop = counting(timers.heappush), counting(timers.heappop)
        monkeypatch.setattr(timers, "heappush", push)
        monkeypatch.setattr(timers, "heappop", pop)
        n = 64
        detector = make(n=n, period=1.0, timeout=2.0)
        detector.start(0.0)
        deadlines = {peer: 2.0 for peer in range(2, n + 1)}
        for i in range(1000):
            peer, now = 2 + i % (n - 1), 0.0005 * i
            detector.on_message(now, peer, Heartbeat(sender=peer, seq=1 + i // (n - 1)))
            deadlines[peer] = now + 2.0
            # what a host reads after every message, against a fresh scan
            assert detector.next_wakeup() == min(1.0, *deadlines.values())
        assert len(detector._timers._heap) <= 2 * n
        assert pop.calls <= push.calls <= 1000

    def test_a_long_lived_early_timer_cannot_grow_the_heap(self):
        # Peer 3 stays silent with the earliest timer, so peer 2's superseded
        # entries never surface; re-arming must bound the heap by itself.
        detector = make(n=3, period=1.0, timeout=1000.0)
        detector.start(0.0)
        for seq in range(1, 200):
            detector.on_message(float(seq), 2, Heartbeat(sender=2, seq=seq))
            assert len(detector._timers._heap) <= 2 * 2
        assert detector.next_wakeup() == 1.0  # still the first beat: never woken

    def test_suspects_is_one_object_until_the_set_changes(self):
        detector = make(period=1.0, timeout=2.0)
        detector.start(0.0)
        nobody = detector.suspects()
        detector.on_message(0.0, 3, Heartbeat(sender=3, seq=5))
        detector.on_message(0.5, 2, Heartbeat(sender=2, seq=1))
        detector.on_wakeup(1.0)
        assert detector.suspects() is nobody
        detector.on_wakeup(2.2)  # 3 timed out at 2.0; 2 holds until 2.5
        three = detector.suspects()
        assert three == frozenset({3}) and three is not nobody
        detector.on_message(2.3, 3, Heartbeat(sender=3, seq=4))  # stale: no change
        assert detector.suspects() is three
        detector.on_message(2.4, 3, Heartbeat(sender=3, seq=6))
        cleared = detector.suspects()
        assert cleared == frozenset() and cleared is not three
        assert detector.suspects() is cleared
