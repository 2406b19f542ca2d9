"""Unit tests for the phi-accrual baseline."""

import math

import pytest

from repro.baselines.heartbeat import Heartbeat
from repro.baselines.phi_accrual import PhiAccrualDetector
from repro.errors import ConfigurationError
from tests.helpers import counting


def make(pid=1, n=3, **kwargs):
    kwargs.setdefault("period", 1.0)
    return PhiAccrualDetector(pid, frozenset(range(1, n + 1)), **kwargs)


def feed_regular_beats(detector, peer, *, count, period, start=0.0):
    for i in range(count):
        detector.on_message(start + i * period, peer, Heartbeat(sender=peer, seq=i + 1))


class TestConfig:
    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            make(window_size=1)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            make(threshold=0.0)

    def test_name_carries_threshold(self):
        assert "8" in make(threshold=8.0).name


class TestPhiValue:
    def test_phi_is_zero_before_any_beat(self):
        detector = make()
        assert detector.phi(2, now=100.0) == 0.0

    def test_phi_grows_with_silence(self):
        detector = make()
        feed_regular_beats(detector, 2, count=20, period=1.0)
        t_last = 19.0
        small = detector.phi(2, now=t_last + 1.0)
        large = detector.phi(2, now=t_last + 5.0)
        assert large > small

    def test_phi_small_right_after_a_beat(self):
        detector = make()
        feed_regular_beats(detector, 2, count=20, period=1.0)
        assert detector.phi(2, now=19.1) < 1.0

    def test_phi_adapts_to_slower_cadence(self):
        fast = make()
        slow = make()
        feed_regular_beats(fast, 2, count=30, period=1.0)
        feed_regular_beats(slow, 2, count=30, period=3.0)
        # Same absolute silence means much more for the fast cadence.
        silence = 4.0
        assert fast.phi(2, now=29.0 + silence) > slow.phi(2, now=87.0 + silence)

    def test_the_kept_estimate_follows_the_window(self):
        detector = make(n=2, period=1.0, window_size=3)
        now = 0.0
        for seq, gap in enumerate([0.5, 1.0, 0.25, 2.0, 0.75, 0.75], start=1):
            now += gap
            detector.on_message(now, 2, Heartbeat(sender=2, seq=seq))
            detector.phi(2, now + 0.4)  # reads (and keeps) the estimate
            window = list(detector._windows[2])
            if len(window) >= 2:
                mean = sum(window) / len(window)
                std = math.sqrt(sum((x - mean) ** 2 for x in window) / (len(window) - 1))
                assert detector._interval_estimate(2) == (mean, std)

    def test_phi_infinite_for_enormous_silence(self):
        detector = make(min_std=0.01)
        feed_regular_beats(detector, 2, count=30, period=1.0)
        assert detector.phi(2, now=29.0 + 1e6) == math.inf


class TestSuspicion:
    def test_silent_peer_crosses_threshold(self):
        detector = make(threshold=8.0)
        detector.start(0.0)
        feed_regular_beats(detector, 2, count=20, period=1.0)
        feed_regular_beats(detector, 3, count=20, period=1.0)
        # Peer 3 goes silent; step evaluation wakeups until suspected.
        now = 19.0
        for _ in range(200):
            now += 0.25
            detector.on_message(now, 2, Heartbeat(sender=2, seq=1000 + int(now * 4)))
            detector.on_wakeup(now)
            if 3 in detector.suspects():
                break
        assert 3 in detector.suspects()
        assert 2 not in detector.suspects()

    def test_beat_clears_suspicion(self):
        detector = make(threshold=8.0)
        detector.start(0.0)
        feed_regular_beats(detector, 2, count=20, period=1.0)
        for now in range(20, 120):
            detector.on_wakeup(float(now))
        assert 2 in detector.suspects()
        detector.on_message(130.0, 2, Heartbeat(sender=2, seq=999))
        assert 2 not in detector.suspects()

    def test_higher_threshold_suspects_later(self):
        eager = make(threshold=1.0)
        patient = make(threshold=12.0)
        # Jittered cadence (0.9 / 1.1 alternating): mean 1.0, std ≈ 0.1.
        now = 0.0
        times = []
        for i in range(20):
            times.append(now)
            now += 0.9 if i % 2 == 0 else 1.1
        for detector in (eager, patient):
            detector.start(0.0)
            for seq, t in enumerate(times, start=1):
                detector.on_message(t, 2, Heartbeat(sender=2, seq=seq))
        # Silence of 1.45 s ≈ 4.4 sigma: phi ≈ 5 — between the thresholds.
        probe = times[-1] + 1.45
        eager.on_wakeup(probe)
        patient.on_wakeup(probe)
        assert 2 in eager.suspects()
        assert 2 not in patient.suspects()


class TestBeatsAndWakeups:
    def test_start_emits_beat(self):
        detector = make()
        effects = detector.start(0.0)
        assert effects[0].message == Heartbeat(sender=1, seq=1)

    def test_periodic_beats(self):
        detector = make(period=1.0)
        detector.start(0.0)
        effects = detector.on_wakeup(1.0)
        assert effects and effects[0].message.seq == 2

    def test_evaluation_interval_bounds_wakeup(self):
        detector = make(period=1.0, eval_fraction=0.25)
        detector.start(0.0)
        assert detector.next_wakeup() == pytest.approx(0.25)

    def test_stale_seq_ignored(self):
        detector = make()
        detector.on_message(1.0, 2, Heartbeat(sender=2, seq=5))
        detector.on_message(2.0, 2, Heartbeat(sender=2, seq=4))
        # Only one arrival counted: no inter-arrival interval yet recorded.
        assert len(detector._windows[2]) == 0


class TestCost:
    """Counts, not timings: what hosting this core costs per evaluation."""

    def test_one_estimate_per_appended_sample_not_per_evaluation(self, monkeypatch):
        sqrt = counting(math.sqrt)
        monkeypatch.setattr(math, "sqrt", sqrt)
        n, periods = 6, 30
        detector = make(n=n, period=1.0)
        detector.start(0.0)
        appended = evaluations = 0
        for k in range(periods):
            for peer in range(2, n + 1):
                detector.on_message(k + 0.01 * peer, peer, Heartbeat(sender=peer, seq=k + 1))
                appended += k > 0
            for quarter in (0.25, 0.5, 0.75, 1.0):  # eval_fraction's four per period
                detector.on_wakeup(k + quarter)
                evaluations += n - 1
        assert detector.suspects() == frozenset()
        assert evaluations == 4 * periods * (n - 1)
        assert sqrt.calls <= appended + (n - 1) < evaluations / 3

    def test_suspects_is_one_object_until_the_set_changes(self):
        detector = make(threshold=8.0)
        detector.start(0.0)
        feed_regular_beats(detector, 2, count=20, period=1.0)
        nobody = detector.suspects()
        detector.on_wakeup(19.5)
        assert detector.suspects() is nobody
        detector.on_wakeup(100.0)
        two = detector.suspects()
        assert two == frozenset({2}) and two is not nobody
        detector.on_wakeup(101.0)
        detector.on_message(101.5, 2, Heartbeat(sender=2, seq=3))  # stale: no change
        assert detector.suspects() is two
        detector.on_message(102.0, 2, Heartbeat(sender=2, seq=21))
        cleared = detector.suspects()
        assert cleared == frozenset() and cleared is not two
        assert detector.suspects() is cleared
