"""Reference model of the scheduler: the binary-heap event loop.

This is the event loop ``repro.sim.engine`` ran before the timer wheel —
one heap of ``(time, seq, event)`` entries, lazy cancellation, whole-heap
compaction — kept as the oracle the wheel must match observable for
observable (``tests/property/test_wheel_vs_heap.py``,
``tests/unit/test_engine.py``).  Slower on large or cancel-heavy runs
(O(log n) inserts) but structurally simple: a differential run against it
is the first tool to reach for when an ordering bug is suspected.

It is self-contained on purpose (its own event and handle classes, nothing
private imported from the engine), so the comparison is between two
implementations of the documented contract, not two subclasses sharing
fields.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

from repro.errors import SimulationError

__all__ = ["ReferenceHeapScheduler"]

_PENDING, _FIRED, _CANCELLED = 0, 1, 2

#: compaction policy: rebuild the heap when at least this many cancelled
#: events are buried in it *and* they outnumber the live ones.
_SWEEP_MIN_DEAD = 64


class _Event:
    __slots__ = ("time", "seq", "callback", "args", "state", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        owner: "ReferenceHeapScheduler",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.state = _PENDING
        self.owner = owner


class _Handle:
    """Cancellation handle; same surface as ``repro.sim.engine.EventHandle``."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.state == _CANCELLED

    @property
    def fired(self) -> bool:
        return self._event.state == _FIRED

    def cancel(self) -> bool:
        event = self._event
        if event.state != _PENDING:
            return False
        event.state = _CANCELLED
        owner = event.owner
        owner._live -= 1
        owner._dead += 1
        if owner._dead >= _SWEEP_MIN_DEAD and owner._dead > owner._live:
            owner._sweep()
        return True


class ReferenceHeapScheduler:
    """The pre-wheel event loop, with ``Scheduler``'s public surface."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, _Event]] = []
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        self._live = 0  # pending events in the heap
        self._dead = 0  # cancelled events awaiting lazy removal

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def pending_events(self) -> int:
        return self._live

    # -- scheduling ------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> _Handle:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._now}"
            )
        event = _Event(time, self._seq, callback, args, self)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return _Handle(event)

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> _Handle:
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_fire(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        self.schedule_at(time, callback, *args)

    def schedule_batch(
        self,
        items: Iterable[tuple[float, Callable[..., None], tuple[Any, ...]]],
        *,
        handles: bool = True,
    ) -> list[_Handle]:
        entries: list[tuple[float, int, _Event]] = []
        now = self._now
        seq = self._seq
        for time, callback, args in items:
            if time < now:
                raise SimulationError(
                    f"cannot schedule an event at {time} before current time {now}"
                )
            entries.append((time, seq, _Event(time, seq, callback, args, self)))
            seq += 1
        if not entries:
            return []
        self._seq = seq
        self._live += len(entries)
        heap = self._heap
        if len(entries) * 4 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)
        if not handles:
            return []
        return [_Handle(entry[2]) for entry in entries]

    # -- control ---------------------------------------------------------
    def stop(self) -> None:
        self._stopped = True

    def _sweep(self) -> None:
        """Drop buried cancelled events and rebuild the heap.

        ``(time, seq)`` totally orders events, so heapify after filtering
        reproduces the exact pop order the full heap would have produced.
        """
        self._heap = [entry for entry in self._heap if entry[2].state == _PENDING]
        heapq.heapify(self._heap)
        self._dead = 0

    # -- the event loop ---------------------------------------------------
    def run(self, *, until: float | None = None, max_events: int | None = None) -> int:
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until {until}, already at {self._now}")
        self._stopped = False
        processed = 0
        truncated = False  # stopped early with events <= `until` still pending
        heap = self._heap
        pop = heapq.heappop
        while heap and not self._stopped:
            if max_events is not None and processed >= max_events:
                # Only live events count: the heap may still hold cancelled
                # garbage, and when garbage is reaped must not show in `now`.
                if self._live:
                    truncated = True
                break
            event = heap[0][2]
            if event.state == _CANCELLED:
                pop(heap)
                self._dead -= 1
                continue
            if until is not None and event.time > until:
                break
            pop(heap)
            event.state = _FIRED
            self._live -= 1
            self._now = event.time
            event.callback(*event.args)
            processed += 1
            self._events_processed += 1
            if heap is not self._heap:
                # The callback cancelled enough events to trigger a sweep,
                # which rebuilt the heap: rebind the local alias.
                heap = self._heap
        # Only advance to `until` when every event at or before it has been
        # processed.  After a `max_events` (or `stop()`) break, pending
        # events earlier than `until` may remain — jumping the clock over
        # them would make time run backwards on the next `run` call.
        if until is not None and not self._stopped and not truncated:
            self._now = max(self._now, until)
        return processed
