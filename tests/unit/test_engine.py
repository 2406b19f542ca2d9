"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Scheduler
from tests.reference_scheduler import ReferenceHeapScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(3.0, fired.append, "c")
        scheduler.schedule_at(1.0, fired.append, "a")
        scheduler.schedule_at(2.0, fired.append, "b")
        scheduler.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        scheduler = Scheduler()
        fired = []
        for tag in ("first", "second", "third"):
            scheduler.schedule_at(1.0, fired.append, tag)
        scheduler.run()
        assert fired == ["first", "second", "third"]

    def test_now_tracks_current_event(self):
        scheduler = Scheduler()
        seen = []
        scheduler.schedule_at(2.5, lambda: seen.append(scheduler.now))
        scheduler.run()
        assert seen == [2.5]

    def test_schedule_after_is_relative(self):
        scheduler = Scheduler()
        seen = []
        scheduler.schedule_at(1.0, lambda: scheduler.schedule_after(0.5, lambda: seen.append(scheduler.now)))
        scheduler.run()
        assert seen == [1.5]

    def test_scheduling_in_the_past_is_rejected(self):
        scheduler = Scheduler()
        scheduler.schedule_at(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.schedule_at(1.0, lambda: None)

    def test_negative_delay_is_rejected(self):
        with pytest.raises(SimulationError):
            Scheduler().schedule_after(-1.0, lambda: None)


class TestRunBounds:
    def test_run_until_stops_before_later_events(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(1.0, fired.append, "early")
        scheduler.schedule_at(10.0, fired.append, "late")
        scheduler.run(until=5.0)
        assert fired == ["early"]
        assert scheduler.now == 5.0

    def test_run_until_can_resume(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(1.0, fired.append, "a")
        scheduler.schedule_at(10.0, fired.append, "b")
        scheduler.run(until=5.0)
        scheduler.run(until=15.0)
        assert fired == ["a", "b"]

    def test_run_until_in_the_past_is_rejected(self):
        scheduler = Scheduler()
        scheduler.schedule_at(5.0, lambda: None)
        scheduler.run(until=5.0)
        with pytest.raises(SimulationError):
            scheduler.run(until=1.0)

    def test_max_events_bounds_processing(self):
        scheduler = Scheduler()
        fired = []
        for i in range(10):
            scheduler.schedule_at(float(i), fired.append, i)
        processed = scheduler.run(max_events=3)
        assert processed == 3
        assert fired == [0, 1, 2]

    def test_max_events_break_does_not_jump_clock_past_pending_events(self):
        # Regression: `run(until=U, max_events=k)` used to advance `now` to
        # U even when events earlier than U were still pending, so the next
        # `run` call moved time backwards through them.
        scheduler = Scheduler()
        fired = []
        for i in (1.0, 2.0, 3.0):
            scheduler.schedule_at(i, fired.append, i)
        scheduler.run(until=10.0, max_events=1)
        assert fired == [1.0]
        assert scheduler.now == 1.0  # not 10.0: events at 2.0/3.0 pending
        seen = []
        scheduler.schedule_at(1.5, lambda: seen.append(scheduler.now))
        scheduler.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert seen == [1.5]
        assert scheduler.now == 10.0

    def test_max_events_break_with_no_pending_earlier_events_resumes_cleanly(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(1.0, fired.append, "a")
        scheduler.schedule_at(20.0, fired.append, "b")
        scheduler.run(until=10.0, max_events=1)
        # The remaining event is beyond `until`; a follow-up bounded run
        # must still reach `until` without touching it.
        scheduler.run(until=10.0)
        assert fired == ["a"]
        assert scheduler.now == 10.0

    def test_stop_halts_the_loop(self):
        scheduler = Scheduler()
        fired = []

        def first():
            fired.append("x")
            scheduler.stop()

        scheduler.schedule_at(1.0, first)
        scheduler.schedule_at(2.0, fired.append, "y")
        scheduler.run()
        assert fired == ["x"]

    def test_events_processed_counter(self):
        scheduler = Scheduler()
        for i in range(4):
            scheduler.schedule_at(float(i), lambda: None)
        scheduler.run()
        assert scheduler.events_processed == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.schedule_at(1.0, fired.append, "no")
        scheduler.schedule_at(2.0, fired.append, "yes")
        assert handle.cancel() is True
        scheduler.run()
        assert fired == ["yes"]

    def test_double_cancel_reports_false(self):
        scheduler = Scheduler()
        handle = scheduler.schedule_at(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_cancel_after_fire_reports_false(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.schedule_at(1.0, fired.append, "x")
        scheduler.run()
        assert fired == ["x"]
        assert handle.fired is True
        assert handle.cancel() is False
        assert handle.cancelled is False

    def test_pending_events_excludes_cancelled(self):
        scheduler = Scheduler()
        scheduler.schedule_at(1.0, lambda: None)
        handle = scheduler.schedule_at(2.0, lambda: None)
        handle.cancel()
        assert scheduler.pending_events() == 1

    def test_cancel_during_callback_suppresses_later_event(self):
        scheduler = Scheduler()
        fired = []
        doomed = scheduler.schedule_at(2.0, fired.append, "no")
        scheduler.schedule_at(1.0, lambda: doomed.cancel())
        scheduler.run()
        assert fired == []


class TestClear:
    """`clear()` ends a simulation: nothing pending, nothing reachable, the clock kept."""

    def loaded(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(0.5, fired.append, "early")
        scheduler.run(until=1.0)
        # Pending events near, mid and far ahead, plus a cancelled one.
        offsets = (0.003, 1.0, 200.0)
        handles = [scheduler.schedule_after(dt, fired.append, dt) for dt in offsets]
        handles[0].cancel()
        handles.append(scheduler.schedule_at(scheduler.now, fired.append, "now"))
        return scheduler, fired, handles

    def test_nothing_is_pending_or_recycled(self):
        scheduler, fired, _handles = self.loaded()
        scheduler.clear()
        assert scheduler.pending_events() == 0
        assert scheduler._heap == []
        assert scheduler._dead == 0
        assert scheduler.run() == 0
        assert fired == ["early"]

    def test_outstanding_handles_neither_cancel_nor_fire(self):
        scheduler, _fired, handles = self.loaded()
        scheduler.clear()
        assert [handle.cancel() for handle in handles] == [False] * len(handles)
        assert [handle.fired for handle in handles] == [False] * len(handles)
        assert scheduler.pending_events() == 0
        scheduler.schedule_at(2.0, lambda: None)
        assert scheduler.pending_events() == 1

    def test_clock_and_counter_are_kept(self):
        scheduler, _fired, _handles = self.loaded()
        scheduler.clear()
        assert scheduler.now == 1.0
        assert scheduler.events_processed == 1

    def test_events_scheduled_after_a_clear_fire_in_time_seq_order(self):
        scheduler, fired, _handles = self.loaded()
        scheduler.clear()
        del fired[:]
        times = [1.0, 3.0, 129.0, 1.0, 1.5, 3.0]
        for index, time in enumerate(times):
            scheduler.schedule_at(time, fired.append, index)
        scheduler.run()
        assert fired == sorted(range(len(times)), key=lambda i: (times[i], i))
        assert scheduler.events_processed == 1 + len(times)

    def test_clear_while_draining_is_refused(self):
        scheduler = Scheduler()
        errors = []

        def clear_now():
            try:
                scheduler.clear()
            except SimulationError as error:
                errors.append(error)

        scheduler.schedule_at(1.0, clear_now)
        scheduler.run()
        assert len(errors) == 1


@pytest.fixture(params=[Scheduler, ReferenceHeapScheduler], ids=["wheel", "heap"])
def factory(request):
    return request.param


class TestLazyDeletion:
    """Lazy-deletion cancellation (with sweeping) must never change semantics,
    on the engine or on the reference heap loop."""

    def test_mass_cancellation_triggers_sweep(self, factory):
        # Enough cancellations to cross either scheduler's sweep trigger
        # (the engine's is deliberately high: a memory backstop only).
        count = 20000
        scheduler = factory()
        fired = []
        handles = [scheduler.schedule_at(1.0 + i, fired.append, i) for i in range(count)]
        survivors = [i for i in range(count) if i % 7 == 0]
        for i, handle in enumerate(handles):
            if i % 7 != 0:
                assert handle.cancel() is True
        # Sweeping has reclaimed cancelled entries from the queue structure...
        assert len(scheduler._heap) < count
        assert scheduler.pending_events() == len(survivors)
        # ...and the surviving events still fire, in order.
        scheduler.run()
        assert fired == survivors

    def test_determinism_under_interleaved_cancel(self, factory):
        """Identical schedule/cancel scripts produce identical fire sequences
        whether or not sweeping kicked in along the way."""

        def script(cancel_batch: int) -> list[int]:
            scheduler = factory()
            fired = []
            handles = {}
            for i in range(300):
                handles[i] = scheduler.schedule_at(float(i % 13) + 1.0, fired.append, i)
            for i in range(0, 300, cancel_batch):
                handles[i].cancel()
            scheduler.run()
            return fired

        # cancel_batch=2 cancels every other event; cancel_batch=300 only one.
        fired_compacted = script(2)
        fired_quiet = script(300)
        expected_all = sorted(range(300), key=lambda i: (float(i % 13) + 1.0, i))
        assert fired_quiet == [i for i in expected_all if i % 300 != 0]
        assert fired_compacted == [i for i in expected_all if i % 2 != 0]

    def test_same_timestamp_order_survives_sweep(self, factory):
        scheduler = factory()
        fired = []
        keepers = [scheduler.schedule_at(5.0, fired.append, f"k{i}") for i in range(5)]
        doomed = [scheduler.schedule_at(5.0, fired.append, f"d{i}") for i in range(200)]
        for handle in doomed:
            handle.cancel()
        assert all(not handle.cancelled for handle in keepers)
        scheduler.run()
        assert fired == [f"k{i}" for i in range(5)]


class TestTimerWheelTiers:
    """Ordering across near, mid and far horizons, ties and sub-millisecond gaps.

    Named for the timer wheel these cases were written against (level 0,
    level 1, spill); the heap keeps every one of its ordering promises.
    """

    def test_far_future_events_cross_tiers_in_order(self):
        scheduler = Scheduler()
        fired = []
        times = [0.125, 1.0, 192.0]
        for t in reversed(times):
            scheduler.schedule_at(t, fired.append, t)
        scheduler.run()
        assert fired == times
        assert scheduler.now == times[-1]

    def test_spill_events_share_a_tick_with_wheel_events(self):
        scheduler = Scheduler()
        fired = []
        far = 74.0
        # Scheduled while far away, then a same-time event is scheduled
        # late, once the clock has nearly reached it.
        scheduler.schedule_at(far, fired.append, "spilled")
        scheduler.schedule_at(far - 1.0, lambda: scheduler.schedule_at(far, fired.append, "direct"))
        scheduler.run()
        assert fired == ["spilled", "direct"]

    def test_cancelled_spill_events_are_reclaimed(self):
        count = 20000  # enough to cross the sweep trigger
        scheduler = Scheduler()
        far = 128.0
        handles = [scheduler.schedule_at(far + i, lambda: None) for i in range(count)]
        for handle in handles[:-1]:
            handle.cancel()
        assert scheduler.pending_events() == 1
        assert len(scheduler._heap) < count
        scheduler.run()
        assert scheduler.events_processed == 1

    def test_same_tick_preserves_schedule_order_across_insert_paths(self):
        scheduler = Scheduler()
        fired = []
        # Distinct float times less than a millisecond apart fire in
        # (time, seq) order, not insertion order.
        scheduler.schedule_at(0.10075, fired.append, "late")
        scheduler.schedule_at(0.10025, fired.append, "early")
        scheduler.run()
        assert fired == ["early", "late"]

    def test_reentrant_schedule_into_current_tick_fires_this_run(self):
        scheduler = Scheduler()
        fired = []

        def chain():
            fired.append("first")
            scheduler.schedule_at(scheduler.now, fired.append, "second")

        scheduler.schedule_at(1.0, chain)
        scheduler.run()
        assert fired == ["first", "second"]


class TestScheduleBatch:
    def test_batch_fires_in_time_then_insertion_order(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_batch(
            [
                (2.0, fired.append, ("late",)),
                (1.0, fired.append, ("early",)),
                (2.0, fired.append, ("late-2",)),
            ]
        )
        scheduler.run()
        assert fired == ["early", "late", "late-2"]

    def test_batch_interleaves_with_singly_scheduled_events(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(1.0, fired.append, "single")
        scheduler.schedule_batch([(1.0, fired.append, ("batched",))])
        scheduler.run()
        assert fired == ["single", "batched"]

    def test_cancel_between_batched_events(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_batch([(1.0, fired.append, (0,))])
        doomed = scheduler.schedule_at(1.0, fired.append, 1)
        kept = scheduler.schedule_at(1.0, fired.append, 2)
        assert scheduler.schedule_batch([(1.0, fired.append, (3,))]) is None
        doomed.cancel()
        scheduler.run()
        assert fired == [0, 2, 3]
        assert (doomed.fired, kept.fired) == (False, True)

    def test_batch_in_the_past_is_rejected_atomically(self):
        scheduler = Scheduler()
        scheduler.schedule_at(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.schedule_batch([(6.0, lambda: None, ()), (1.0, lambda: None, ())])
        # The valid first item must not have been committed.
        assert scheduler.pending_events() == 0

    def test_empty_batch_is_a_no_op(self):
        scheduler = Scheduler()
        assert scheduler.schedule_batch([]) is None
        assert scheduler.pending_events() == 0

    def test_batch_matches_sequential_scheduling_exactly(self):
        """A batch and the equivalent schedule_at loop fire identically."""
        items = [((i * 7) % 5 + 1.0, i) for i in range(50)]

        def run_with(batch: bool) -> list[int]:
            scheduler = Scheduler()
            fired = []
            if batch:
                scheduler.schedule_batch(
                    [(t, fired.append, (i,)) for t, i in items]
                )
            else:
                for t, i in items:
                    scheduler.schedule_at(t, fired.append, i)
            scheduler.run()
            return fired

        assert run_with(batch=True) == run_with(batch=False)
