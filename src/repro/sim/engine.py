"""Discrete-event scheduler with deterministic ordering.

Events fire in ``(time, sequence-number)`` order: two events scheduled for
the same instant fire in scheduling order, which — together with seeded
randomness (:mod:`repro.sim.rng`) — makes whole simulations reproducible
bit-for-bit.  The queue is one ``heapq`` list of ``(time, seq, callback,
args)`` tuples; a cancellable event is queued as ``(time, seq, None,
handle)``.  ``seq`` is unique, so entries compare on ``(time, seq)`` alone
and never reach a callback.  Cancellation is lazy (a dead entry is dropped
when it surfaces, and a sweep rebuilds the heap once garbage piles up).
See ``docs/engine.md``; ``tests/reference_scheduler.py`` is the oracle
``tests/property/test_wheel_vs_heap.py`` pins this class to.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable

from ..errors import SimulationError

__all__ = ["EventHandle", "Scheduler"]

#: handle states — pending in the queue, already fired, cancelled (still in
#: the queue awaiting lazy removal), or dropped by :meth:`Scheduler.clear`.
_PENDING, _FIRED, _CANCELLED, _CLEARED = 0, 1, 2, 3

#: sweep policy: rebuild the heap when at least this many cancelled events
#: are buried in it *and* they outnumber the live ones.  A memory backstop
#: only: the trigger sits above the zombie plateau of timer re-arm
#: workloads (cancel rate x time to surface).
_SWEEP_MIN = 16384


class EventHandle:
    """A cancellable scheduled event: its callback, args and state.

    The scheduler queues the handle itself (as a ``(time, seq, None,
    handle)`` entry) and drops the callback and args once the event fired,
    was cancelled or was cleared, so a kept handle pins no callback.
    ``time`` is the virtual time the event was scheduled to fire at.
    """

    __slots__ = ("time", "callback", "args", "state", "owner")

    def __init__(self, time: float, callback: Callable[..., None], args: tuple[Any, ...],
                 owner: "Scheduler") -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.state = _PENDING
        self.owner = owner

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has succeeded on this handle."""
        return self.state == _CANCELLED

    @property
    def fired(self) -> bool:
        """True once the event's callback has run."""
        return self.state == _FIRED

    def cancel(self) -> bool:
        """Cancel the event; returns False if it already fired/was cancelled."""
        if self.state != _PENDING:
            return False
        self.state = _CANCELLED
        self.callback = None  # type: ignore[assignment]
        self.args = ()
        owner = self.owner
        owner._live -= 1
        owner._dead += 1
        if owner._dead >= _SWEEP_MIN and owner._dead > owner._live:
            owner._sweep()
        return True


class Scheduler:
    """A virtual-time event loop on one binary heap.

    The loop never advances past events: :attr:`now` is exactly the
    timestamp of the event being processed.  Callbacks may schedule further
    events at or after ``now`` (scheduling in the past raises
    :class:`~repro.errors.SimulationError`).
    """

    def __init__(self) -> None:
        self.now = 0.0  # current virtual time (read-only to callers)
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        self._running = False
        self._live = 0  # pending events in the heap
        self._dead = 0  # cancelled events awaiting lazy removal
        self._heap: list[tuple] = []  # (time, seq, callback | None, args | handle)

    @property
    def events_processed(self) -> int:
        """Total events fired over this scheduler's lifetime."""
        return self._events_processed

    def pending_events(self) -> int:
        """Number of scheduled (non-cancelled) events still in the queue."""
        return self._live

    # -- scheduling ------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire at absolute virtual ``time``.

        Returns an :class:`EventHandle` for cancellation; callers that
        never cancel should prefer :meth:`schedule_fire`, which skips the
        handle entirely.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self.now}"
            )
        handle = EventHandle(time, callback, args, self)
        self._insert(time, None, handle)
        return handle

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = self.now + delay
        handle = EventHandle(time, callback, args, self)
        self._insert(time, None, handle)
        return handle

    def schedule_fire(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule_at` with the handle dropped, so none is built.

        Same sequence numbering, same ordering; the data plane's message
        deliveries use this.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self.now}"
            )
        self._insert(time, callback, args)

    def schedule_batch(
        self, items: Iterable[tuple[float, Callable[..., None], tuple[Any, ...]]]
    ) -> None:
        """Schedule many fire-and-forget ``(time, callback, args)`` events.

        Sequence numbers follow item order, exactly as if each item had
        been passed to :meth:`schedule_fire` in turn.  Validation is
        atomic: one bad item rejects the whole batch.
        """
        staged = list(items)
        for time, _callback, _args in staged:
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule an event at {time} before current time {self.now}"
                )
        for time, callback, args in staged:
            self._insert(time, callback, args)

    def _insert(self, time: float, callback: Callable[..., None] | None, args: Any) -> None:
        """Queue one entry: the one place a sequence number is assigned."""
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap, (time, seq, callback, args))

    # -- control ---------------------------------------------------------
    def stop(self) -> None:
        """Make the running :meth:`run` return after the current event."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every pending event; :attr:`now` and :attr:`events_processed` stay.

        Outstanding handles of pending events then read neither fired nor
        cancellable, and lose their callback and args: a finished
        simulation is freed by refcounting alone.
        """
        if self._running:
            raise SimulationError("clear() while run() is firing events")
        for _time, _seq, callback, handle in self._heap:
            if callback is None and handle.state == _PENDING:
                handle.state = _CLEARED
                handle.callback = None
                handle.args = ()
        self._heap.clear()
        self._live = self._dead = 0

    def _sweep(self) -> None:
        """Drop buried cancelled events and rebuild the heap in place.

        ``(time, seq)`` totally orders events, so the survivors pop in the
        order the full heap would have produced; keeping the list object
        keeps a running loop's alias valid.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None or entry[3].state == _PENDING]
        heapify(heap)
        self._dead = 0

    # -- the event loop ---------------------------------------------------
    def run(self, *, until: float | None = None, max_events: int | None = None) -> int:
        """Process events in order; returns the number processed.

        ``until`` — stop once the next event would fire strictly after
        this time (and advance :attr:`now` to ``until``).  ``max_events``
        — safety valve against runaway event loops.  With neither bound
        the loop runs until the queue drains.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until {until}, already at {self.now}")
        if self._running:
            raise SimulationError("run() is not reentrant: already firing events")
        self._stopped = False
        self._running = True
        processed = 0
        truncated = False  # stopped early with events <= `until` still pending
        until_f = float("inf") if until is None else until
        limit = (1 << 62) if max_events is None else max_events
        heap = self._heap
        try:
            while heap:
                entry = heappop(heap)
                time, _seq, callback, args = entry
                if callback is None and args.state != _PENDING:  # a cancelled handle
                    self._dead -= 1
                    continue
                # Only a live event ends a run, so when garbage is reaped
                # never shows in `now`.  The limit check comes first: with
                # `max_events` exhausted AND the next event beyond `until`,
                # the run is truncated (clock parked), not drained.
                if processed >= limit:
                    heappush(heap, entry)
                    truncated = True
                    break
                if time > until_f:
                    heappush(heap, entry)
                    break
                if callback is None:
                    handle = args
                    handle.state = _FIRED
                    callback, args = handle.callback, handle.args
                    handle.callback, handle.args = None, ()
                self._live -= 1
                self.now = time
                callback(*args)
                processed += 1
                self._events_processed += 1
                if self._stopped:
                    break
        finally:
            self._running = False
        # Advance to `until` only when every event at or before it fired:
        # after a `max_events` (or `stop()`) break, jumping the clock over
        # pending events would make time run backwards on the next call.
        if until is not None and not self._stopped and not truncated and self.now < until:
            self.now = until
        return processed
