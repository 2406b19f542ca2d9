"""Discrete-event scheduler with deterministic ordering.

Events are ordered by ``(time, sequence-number)``: two events scheduled for
the same instant fire in scheduling order, which — together with seeded
randomness (:mod:`repro.sim.rng`) — makes whole simulations reproducible
bit-for-bit.

The queue is a hierarchical bucketed timer wheel (see ``docs/engine.md``
for the full design note): two 256-slot levels of width ``2**-10`` and
``256 * 2**-10`` virtual-time units, plus a sorted spill list for events
beyond the wheel's ~64k-tick span.  Inserts are O(1) regardless of how
many events are pending (the property that matters for grids with
thousands of processes), and slots are sorted by ``(time, seq)`` only when
the cursor reaches them.  Every queued entry is one ``(time, seq,
callback, args)`` tuple; a cancellable event is queued as ``(time, seq,
None, handle)`` and its :class:`EventHandle` holds the callback, the args
and the state.  The binary-heap loop the wheel replaced lives on as a
reference model in ``tests/reference_scheduler.py``;
``tests/property/test_wheel_vs_heap.py`` requires identical workloads to
produce identical fire sequences on both.

Semantics:

* cancellation is *lazy*: a cancelled event stays where it is and is
  discarded when the cursor reaches it, so ``cancel`` is O(1); the
  cascade reaps cancelled events block by block and a sweep rebuilds the
  structure once they pile up far ahead of the cursor, so cancel-heavy
  workloads (timer re-arming) never accumulate unbounded garbage;
* :meth:`Scheduler.schedule_batch` inserts many events at once (broadcast
  deliveries, cluster start-up staggering) and assigns sequence numbers in
  item order, so batching changes cost, never order;
* :meth:`Scheduler.schedule_fire` and :meth:`Scheduler.schedule_batch`
  create no :class:`EventHandle` for fire-and-forget events (the data
  plane's message deliveries).
"""

from __future__ import annotations

import heapq
from bisect import insort
from math import inf as _INF
from typing import Any, Callable, Iterable

from ..errors import SimulationError

__all__ = ["EventHandle", "Scheduler"]

#: handle states — pending in the queue, already fired, cancelled (still in
#: the queue awaiting lazy removal), or dropped by :meth:`Scheduler.clear`.
_PENDING, _FIRED, _CANCELLED, _CLEARED = 0, 1, 2, 3

#: sweep policy: rebuild the pending structure when at least this many
#: cancelled events are buried in it *and* they outnumber the live ones.
#: The cascade reaps garbage block by block anyway, so sweeping is a memory
#: backstop only and the trigger is deliberately high — above the zombie
#: plateau of timer re-arm workloads (cancel rate x reap lag), which
#: cascade reaping serves with no sweep at all.
_SWEEP_MIN = 16384

#: wheel geometry — two 256-slot levels (8 bits each); events further than
#: 2**16 ticks out go to the sorted spill list.
_L0_BITS = 8
_L0_SIZE = 1 << _L0_BITS  # 256 slots of one tick each
_L0_MASK = _L0_SIZE - 1
_SPAN = 1 << (2 * _L0_BITS)  # 65536 ticks covered by both levels

#: slot width in virtual-time units: ~1 ms when time is seconds, sized so
#: the repo's latency draws (~1e-3) land a slot or two ahead and protocol
#: periods (~0.5–10 s) stay inside the two-level span (~64 s).  It affects
#: bucketing cost only, never event ordering.
_QUANTUM = 2.0**-10


def _is_dead(entry: tuple) -> bool:
    """True for the entry of a cancelled handle (plain entries never die)."""
    return entry[2] is None and entry[3].state != _PENDING


class EventHandle:
    """A cancellable scheduled event: its callback, args and state.

    The scheduler queues the handle itself (as a ``(time, seq, None,
    handle)`` entry) and drops the callback and args once the event fired,
    was cancelled or was cleared, so a kept handle pins no callback.
    ``time`` is the virtual time the event was scheduled to fire at.
    """

    __slots__ = ("time", "callback", "args", "state", "owner")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        owner: "Scheduler",
    ) -> None:
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
        dead = owner._dead + 1
        owner._dead = dead
        if dead >= _SWEEP_MIN and dead > owner._live:
            owner._sweep()
        return True


class Scheduler:
    """A virtual-time event loop on a hierarchical timer wheel.

    The loop never advances past events: :attr:`now` is exactly the
    timestamp of the event being processed.  Callbacks may schedule further
    events at or after ``now`` (scheduling in the past raises
    :class:`~repro.errors.SimulationError`).
    """

    def __init__(self) -> None:
        #: current virtual time (read-only to callers; a plain attribute, so
        #: the hosts' per-message clock read costs no property frame)
        self.now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        self._live = 0  # pending events across all tiers
        self._dead = 0  # cancelled events awaiting lazy removal
        self._inv_quantum = 1.0 / _QUANTUM
        #: cursor: the tick currently (or next) being drained.  No pending
        #: event ever maps to a tick the cursor has fully passed.
        self._cursor = 0
        #: block start of the last block the run loop visited; the visit
        #: check cascades a block's level-1 slot exactly once on entry.
        self._block = -1
        #: every tier holds (time, seq, callback, args) entries; a
        #: cancellable event is (time, seq, None, handle)
        self._l0: list[list[tuple]] = [[] for _ in range(_L0_SIZE)]
        self._l1: list[list[tuple]] = [[] for _ in range(_L0_SIZE)]
        self._l0_count = 0  # events (incl. cancelled) currently in level 0
        self._l1_count = 0  # events (incl. cancelled) currently in level 1
        #: overflow tier, kept sorted ascending
        self._spill: list[tuple] = []
        #: while a slot is being drained, this is its (min-)heap of entries
        #: for same-tick inserts; None otherwise
        self._active: list[tuple] | None = None
        #: reusable drain buffers: `_merge_buf` backs `_active` and
        #: `_spare` replaces a detached slot list, so a steady-state
        #: drain allocates no lists at all.  Both are empty between runs.
        self._merge_buf: list[tuple] = []
        self._spare: list[tuple] = []

    # ------------------------------------------------------------------
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
        """Fire-and-forget :meth:`schedule_at`: no :class:`EventHandle`.

        Semantically identical to ``schedule_at(time, callback, *args)``
        with the returned handle dropped — same sequence numbering, same
        ordering — but skips the handle allocation.  The data plane's
        message deliveries use this.
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

        Sequence numbers are assigned in item order, so the fire order of
        same-timestamp events is exactly as if each had been passed to
        :meth:`schedule_fire` in turn — batching changes cost, never order.
        Validation is atomic: one bad item rejects the whole batch.
        """
        staged = list(items)
        now = self.now
        for time, _callback, _args in staged:
            if time < now:
                raise SimulationError(
                    f"cannot schedule an event at {time} before current time {now}"
                )
        insert = self._insert
        for time, callback, args in staged:
            insert(time, callback, args)

    def _insert(self, time: float, callback: Callable[..., None] | None, args: Any) -> None:
        """Queue one entry in its tier; the one tier dispatch.

        A tick at or behind the cursor goes to the cursor's own slot (safe
        because drains sort by real ``(time, seq)``, never by tick) or,
        while that slot is mid-drain, to its merge heap, so it fires in
        exact ``(time, seq)`` position.
        """
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        entry = (time, seq, callback, args)
        tick = int(time * self._inv_quantum)
        delta = tick - self._cursor
        if delta < _L0_SIZE:
            if delta > 0:
                self._l0[tick & _L0_MASK].append(entry)
                self._l0_count += 1
            elif self._active is not None:
                heapq.heappush(self._active, entry)
            else:
                self._l0[self._cursor & _L0_MASK].append(entry)
                self._l0_count += 1
        elif delta < _SPAN:
            self._l1[(tick >> _L0_BITS) & _L0_MASK].append(entry)
            self._l1_count += 1
        else:
            insort(self._spill, entry)

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
        if self._active is not None:
            raise SimulationError("clear() while run() is draining a slot")
        for slot in (*self._l0, *self._l1, self._spill):
            for _time, _seq, callback, handle in slot:
                if callback is None and handle.state == _PENDING:
                    handle.state = _CLEARED
                    handle.callback = None
                    handle.args = ()
            slot.clear()
        self._live = self._dead = self._l0_count = self._l1_count = 0

    # -- internal maintenance -------------------------------------------
    def _sweep(self) -> None:
        """Drop buried cancelled events from every tier.

        ``(time, seq)`` totally orders events and slot drains sort, so
        filtering slots can never change the fire sequence.  Empty slots
        are skipped, so the sweep's cost scales with the events it
        inspects rather than with the wheel geometry.  The wheel's
        cascade already reaps cancelled events block by block as the
        cursor reaches them; this sweep is only the memory backstop for
        garbage parked far ahead of the cursor, hence the high
        `_SWEEP_MIN` trigger.
        """
        for slots in (self._l0, self._l1):
            count = 0
            for index, slot in enumerate(slots):
                if not slot:
                    continue
                live = [entry for entry in slot if not _is_dead(entry)]
                if len(live) != len(slot):
                    slots[index] = live
                count += len(live)
            if slots is self._l0:
                self._l0_count = count
            else:
                self._l1_count = count
        self._spill = [entry for entry in self._spill if not _is_dead(entry)]
        self._dead = 0

    def _cascade(self, block: int) -> None:
        """Redistribute one level-1 slot into level 0 on block entry.

        Cancelled events are reaped here instead of being copied down —
        cancel-heavy workloads (timer re-arming) shed their garbage one
        block at a time without ever needing a full sweep.
        """
        slot = self._l1[block & _L0_MASK]
        if not slot:
            return
        self._l1[block & _L0_MASK] = []
        self._l1_count -= len(slot)
        l0 = self._l0
        inv = self._inv_quantum
        moved = 0
        for entry in slot:
            if _is_dead(entry):
                if self._dead > 0:
                    self._dead -= 1
            else:
                l0[int(entry[0] * inv) & _L0_MASK].append(entry)
                moved += 1
        self._l0_count += moved

    def _refill_from_spill(self) -> None:
        """Pull spill events that now fit inside the wheel's span."""
        spill = self._spill
        if not spill:
            return
        inv = self._inv_quantum
        cursor = self._cursor
        horizon = cursor + _SPAN
        taken = 0
        for entry in spill:
            tick = int(entry[0] * inv)
            if tick >= horizon:
                break
            taken += 1
            if _is_dead(entry):
                if self._dead > 0:
                    self._dead -= 1
            elif tick - cursor < _L0_SIZE:
                self._l0[(tick if tick > cursor else cursor) & _L0_MASK].append(entry)
                self._l0_count += 1
            else:
                self._l1[(tick >> _L0_BITS) & _L0_MASK].append(entry)
                self._l1_count += 1
        if taken:
            del spill[:taken]

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
        if self._active is not None:
            raise SimulationError("run() is not reentrant: already draining a slot")
        self._stopped = False
        processed = 0
        truncated = False  # stopped early with events <= `until` still pending
        inv = self._inv_quantum
        until_f = _INF if until is None else until
        limit_tick = (1 << 62) if until is None else int(until * inv)
        limit = (1 << 62) if max_events is None else max_events
        l0 = self._l0
        heappop = heapq.heappop
        while not self._stopped:
            if processed >= limit:
                # Garbage-independent rule: the break counts as truncated
                # only when *live* events remain.  Cancelled leftovers are
                # invisible — when they get reaped (cascade, sweep, drain)
                # is an implementation detail, and keying on them would
                # let it leak into `now`.
                if self._live:
                    truncated = True
                break
            # -- locate the next non-empty slot ------------------------
            cursor = self._cursor
            found = False
            while True:
                block_start = cursor & ~_L0_MASK
                if block_start != self._block:
                    # First visit to this block — no matter how the
                    # cursor got here (slot drain, block hop, or spill
                    # jump): pull its level-1 slot down into level 0 and
                    # top the wheel up from the spill list.  Keying the
                    # cascade on the visited-block marker (instead of the
                    # hop sites) also makes `until`/`max_events` breaks
                    # safe: a block the cursor rests in without having
                    # cascaded is cascaded first thing on the next run.
                    self._block = block_start
                    self._cascade(cursor >> _L0_BITS)
                    self._refill_from_spill()
                if cursor > limit_tick:
                    # The cursor may legitimately rest past `until`'s tick
                    # (it hopped over empty slots toward later work during
                    # an earlier call).  Events scheduled since then — at
                    # times >= now, but with ticks behind the cursor — were
                    # clamped into the cursor's own slot, so that slot must
                    # still be offered to the drain: its (time, seq) sort
                    # fires exactly the events at or before `until` and
                    # puts the rest back.  Skipping it here would silently
                    # strand events that are due.
                    if l0[cursor & _L0_MASK]:
                        found = True
                    break
                if self._l0_count == 0:
                    if self._l1_count == 0:
                        spill = self._spill
                        if not spill:
                            break  # queue fully drained
                        first_tick = int(spill[0][0] * inv)
                        if first_tick > limit_tick:
                            break
                        # Jump the cursor to the spill's first block (the
                        # spill head is always at least a full span ahead,
                        # so the jump target is past the current block;
                        # fall back to a one-block hop if it ever is not).
                        jump = first_tick & ~_L0_MASK
                        cursor = jump if jump > cursor else block_start + _L0_SIZE
                        self._cursor = cursor
                        continue
                    # Level 0 is empty: hop to the next block; the visit
                    # check above cascades and refills it.
                    cursor = block_start + _L0_SIZE
                    self._cursor = cursor
                    continue
                # Level 0 holds events: scan slots up to the block end.
                block_end = block_start + _L0_SIZE
                index = cursor & _L0_MASK
                while cursor < block_end:
                    if l0[index]:
                        found = True
                        break
                    cursor += 1
                    index = (index + 1) & _L0_MASK
                self._cursor = cursor
                if found:
                    if cursor > limit_tick:
                        found = False
                    break
                # cursor == block_end: loop back — the visit check hops
                # the scan into the next block.
            if not found:
                break
            # -- drain the slot ----------------------------------------
            # The slot list is swapped against the (empty) spare and the
            # merge heap reuses a persistent buffer: no allocations here.
            # Entries sort as plain tuples: seq is unique, so a comparison
            # never reaches the callback.
            index = cursor & _L0_MASK
            batch = l0[index]
            l0[index] = self._spare
            self._spare = batch
            self._l0_count -= len(batch)
            if len(batch) > 1:
                batch.sort()
            self._active = extra = self._merge_buf
            i = 0
            blen = len(batch)
            interrupted = False
            try:
                while True:
                    if extra:
                        # Rare merge path: a callback scheduled into the
                        # slot being drained — interleave by (time, seq).
                        if i < blen:
                            entry = batch[i]
                            if extra[0] < entry:
                                entry = heappop(extra)
                            else:
                                i += 1
                        else:
                            entry = heappop(extra)
                    elif i < blen:
                        entry = batch[i]
                        i += 1
                    else:
                        break
                    time, _seq, callback, args = entry
                    if callback is None and args.state != _PENDING:
                        # lazily-deleted cancellation surfacing
                        if self._dead > 0:
                            self._dead -= 1
                        continue
                    # The limit check comes first: when `max_events` is
                    # exhausted AND the next event lies beyond `until`,
                    # the run counts as truncated (clock parked), not as
                    # drained (clock advanced to `until`).
                    if processed >= limit:
                        self._putback(index, entry, batch, i, extra)
                        truncated = True
                        interrupted = True
                        break
                    if time > until_f:
                        self._putback(index, entry, batch, i, extra)
                        interrupted = True
                        break
                    if callback is None:
                        handle = args
                        handle.state = _FIRED
                        callback = handle.callback
                        args = handle.args
                        handle.callback = None
                        handle.args = ()
                    self._live -= 1
                    self.now = time
                    callback(*args)
                    processed += 1
                    self._events_processed += 1
                    if self._stopped:
                        self._putback(index, None, batch, i, extra)
                        interrupted = True
                        break
            except BaseException:
                # A callback raised: the fired event is gone, everything
                # undrained returns to its slot so the queue stays usable.
                self._putback(index, None, batch, i, extra)
                raise
            finally:
                # Any putback has already copied survivors out of the
                # buffers; empty them for the next drain (`batch` is now
                # `self._spare` and must be reinstallable as a slot).
                self._active = None
                del batch[:]
                del extra[:]
            if interrupted:
                break
            self._cursor = cursor + 1
        # Only advance to `until` when every event at or before it has
        # been processed.  After a `max_events` (or `stop()`) break,
        # pending events earlier than `until` may remain — jumping the
        # clock over them would make time run backwards on the next call.
        if until is not None and not self._stopped and not truncated:
            if self.now < until:
                self.now = until
        return processed

    def _putback(
        self,
        index: int,
        current: tuple | None,
        batch: list[tuple],
        i: int,
        extra: list[tuple],
    ) -> None:
        """Return undrained events to their slot after an early break."""
        slot = self._l0[index]
        if current is not None:
            slot.append(current)
        slot.extend(batch[i:])
        slot.extend(extra)
        self._l0_count += len(slot)
