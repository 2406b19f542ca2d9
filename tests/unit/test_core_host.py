"""The host rule, once: :class:`repro.core.effects.CoreHost` on a fake clock.

Every substrate steps a detector core through this class — the simulator's
``TimedDriver`` and the runtime's ``DetectorService`` supply only a clock,
``_call_at``, an effect sink and what a suspect-set change does — so the
rule is tested here against a fake substrate that logs every timer it is
asked for and every cancel.
"""

import math

import pytest

from repro.core.effects import CoreHost, SendTo
from repro.runtime.service import DetectorService
from repro.sim.node import QueryResponseDriver, TimedDriver


class FakeTimer:
    def __init__(self, host, when, callback):
        self.host = host
        self.when = when
        self.callback = callback

    def cancel(self):
        self.host.cancels.append(self.when)


class FakeCore:
    """A core whose deadline and suspect set the test sets by hand."""

    def __init__(self):
        self.deadline = None
        self.suspect_set = frozenset()
        self.wakeups = []

    def next_wakeup(self):
        return self.deadline

    def suspects(self):
        return self.suspect_set

    def on_wakeup(self, now):
        self.wakeups.append(now)
        return None


class FakeHost(CoreHost):
    """A substrate: a settable clock, a logging ``_call_at``, recording sinks."""

    def __init__(self, core):
        super().__init__(core)
        self.now = 0.0
        self.armed = []
        self.cancels = []
        self.executed = []
        self.announced = []

    def _now(self):
        return self.now

    def _call_at(self, when, callback):
        self.armed.append(when)
        return FakeTimer(self, when, callback)

    def _execute(self, effects):
        self.executed.append(effects)

    def _announce(self, before, suspects):
        self.announced.append((before, suspects))


def armed_at(deadline, *, now=0.0):
    core = FakeCore()
    host = FakeHost(core)
    host.now = now
    core.deadline = deadline
    host._step(None)
    return core, host


class TestRearm:
    def test_the_first_deadline_arms_one_timer(self):
        _, host = armed_at(5.0)
        assert host.armed == [5.0] and host.cancels == []
        assert host._timer_at == 5.0

    def test_an_earlier_deadline_rearms_with_one_cancel_and_one_call_at(self):
        core, host = armed_at(5.0)
        core.deadline = 3.0
        host._step(None)
        assert host.armed == [5.0, 3.0]
        assert host.cancels == [5.0]
        assert host._timer_at == 3.0

    @pytest.mark.parametrize("deadline", [5.0, 7.0, None])
    def test_a_later_equal_or_absent_deadline_leaves_the_pending_timer(self, deadline):
        core, host = armed_at(5.0)
        core.deadline = deadline
        host._step(None)
        assert host.armed == [5.0] and host.cancels == []
        assert host._timer_at == 5.0

    def test_a_past_deadline_is_clamped_to_now(self):
        _, host = armed_at(4.0, now=10.0)
        assert host.armed == [10.0] and host._timer_at == 10.0

    def test_a_past_deadline_moves_a_later_pending_timer_to_now(self):
        core, host = armed_at(12.0, now=8.0)
        host.now = 10.0
        core.deadline = 4.0
        host._step(None)
        assert host.armed == [12.0, 10.0] and host.cancels == [12.0]

    @pytest.mark.parametrize("pending", [9.0, 10.0])
    def test_a_past_deadline_is_skipped_when_the_pending_timer_fires_no_later(
        self, pending
    ):
        core, host = armed_at(pending, now=8.0)
        host.now = 10.0
        core.deadline = 4.0
        host._step(None)
        assert host.armed == [pending] and host.cancels == []
        assert host._timer_at == pending

    def test_cancel_timer_cancels_once(self):
        _, host = armed_at(5.0)
        host._cancel_timer()
        host._cancel_timer()
        assert host.cancels == [5.0]
        assert host._timer is None and host._timer_at == math.inf


class TestWakeup:
    def test_a_wakeup_steps_the_core_at_now_and_rearms_from_there(self):
        core, host = armed_at(5.0)
        host.now = 5.0
        core.deadline = 8.0
        host._timer.callback()
        assert core.wakeups == [5.0]
        # the fired timer is gone: the later deadline arms without a cancel
        assert host.armed == [5.0, 8.0] and host.cancels == []


class TestEffectsAndAnnouncements:
    def test_only_a_non_empty_value_reaches_the_sink(self):
        host = FakeHost(FakeCore())
        answer = SendTo(2, "response")
        for effects in (None, [], answer, [answer]):
            host._step(effects)
        assert host.executed == [answer, [answer]]

    def test_an_identical_or_equal_suspect_set_announces_nothing(self):
        core = FakeCore()
        core.suspect_set = frozenset({2})
        host = FakeHost(core)
        host._step(None)  # identical
        core.suspect_set = frozenset({2})  # a fresh, equal set
        host._step(None)
        assert host.announced == []

    def test_a_changed_suspect_set_is_announced_once_with_the_last_one(self):
        core = FakeCore()
        host = FakeHost(core)
        core.suspect_set = frozenset({2})
        host._step(None)
        host._step(None)
        core.suspect_set = frozenset()
        host._step(None)
        assert host.announced == [
            (frozenset(), frozenset({2})),
            (frozenset({2}), frozenset()),
        ]


@pytest.mark.parametrize("host", [TimedDriver, QueryResponseDriver, DetectorService])
@pytest.mark.parametrize("method", ["_step", "_arm", "_wakeup", "_cancel_timer"])
def test_the_substrates_inherit_the_rule_and_do_not_restate_it(host, method):
    assert issubclass(host, CoreHost)
    assert method not in vars(host)
    assert getattr(host, method) is vars(CoreHost)[method]

