"""The timer wheel pinned to the heap loop, its behavioural oracle.

``tests/reference_scheduler.py`` holds the audited reference implementation
kept for differential debugging (see docs/engine.md).  Hypothesis drives
both schedulers through identical operation scripts — interleaved
``schedule_at`` / ``schedule_after`` / ``schedule_fire`` /
``schedule_batch`` / ``cancel`` / ``run`` calls, including zero-delay
rescheduling chains on both the cancellable and the fire-and-forget path,
mid-callback cancellations, and ``max_events``-truncated run segments — and
every observable must match: the fire sequence (tag and clock stamp), each
``run`` call's return value, and the clock trajectory between segments.

Two invariants get dedicated suites on top of the oracle comparison:

* same-tick ordering — events inside one wheel slot fire in exact
  ``(time, seq)`` order, so batching never reorders ties;
* ``max_events`` breaks leave ``now`` monotone and never past a pending
  event (the PR 3 heap regression, generalised to both schedulers).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Scheduler
from tests.reference_scheduler import ReferenceHeapScheduler

# -- operation scripts ----------------------------------------------------

#: offset magnitudes chosen to exercise every tier: sub-quantum ties
#: (1e-4 < 2**-10), level-0 slots (1e-2), level-1 blocks (1.0–70.0), and
#: the sorted spill list (beyond the ~64 s two-level span).
_SCALES = (1e-4, 1e-2, 1.0, 70.0, 300.0)

_OFFSETS = st.tuples(
    st.integers(min_value=0, max_value=9), st.sampled_from(_SCALES)
).map(lambda pair: pair[0] * pair[1])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _OFFSETS),
        st.tuples(st.just("after"), _OFFSETS),
        st.tuples(st.just("fire"), _OFFSETS),
        st.tuples(st.just("batch"), st.lists(_OFFSETS, min_size=1, max_size=6)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=512)),
        # chain: a callback that re-arms itself `repeats` times with
        # `delay` (zero-delay chains re-enter the slot being drained).
        st.tuples(
            st.just("chain"),
            _OFFSETS,
            st.integers(min_value=1, max_value=4),
            st.sampled_from((0.0, 1e-4, 1e-2, 1.5)),
        ),
        # fire_chain: the data plane's path — a fire-and-forget callback
        # that re-schedules itself through `schedule_fire` (zero delays go
        # through the merge heap of the slot being drained) and cancels an
        # earlier handle at every step.
        st.tuples(
            st.just("fire_chain"),
            _OFFSETS,
            st.integers(min_value=1, max_value=4),
            st.sampled_from((0.0, 1e-4, 1e-2, 1.5)),
            st.integers(min_value=0, max_value=512),
        ),
        # cancel_in: a callback that cancels an earlier handle mid-drain.
        st.tuples(st.just("cancel_in"), _OFFSETS, st.integers(min_value=0, max_value=512)),
        st.tuples(
            st.just("run"),
            _OFFSETS,
            st.sampled_from((None, 1, 3, 17)),
        ),
    ),
    min_size=1,
    max_size=24,
)


def _interpret(factory, ops) -> list:
    """Run one operation script and return every observable it produced."""
    s = factory()
    log: list = []
    handles: list = []
    pending: dict[int, float] = {}  # tag -> scheduled time, while live
    tag_box = [0]

    def fire(tag):
        pending.pop(tag, None)
        log.append(("fire", tag, round(s.now, 9)))

    def make_chain(repeats, delay):
        def chained(tag):
            pending.pop(tag, None)
            log.append(("fire", tag, round(s.now, 9)))
            if repeats[0] > 0:
                repeats[0] -= 1
                tag_box[0] += 1
                tag = tag_box[0]
                pending[tag] = s.now + delay
                # tracked like every other handle: a later `cancel` of it
                # must clear its tag from `pending`
                track(s.schedule_after(delay, chained, tag) if delay else s.schedule_at(s.now, chained, tag), tag)

        return chained

    def make_fire_chain(repeats, delay, target):
        def chained(tag):
            pending.pop(tag, None)
            log.append(("fire", tag, round(s.now, 9)))
            cancel(target)
            if repeats[0] > 0:
                repeats[0] -= 1
                tag_box[0] += 1
                pending[tag_box[0]] = s.now + delay
                s.schedule_fire(s.now + delay, chained, tag_box[0])

        return chained

    def cancel(target):
        if handles:
            victim = handles[target % len(handles)]
            victim.cancel()
            pending.pop(victim_tags.get(id(victim)), None)

    def make_canceller(target):
        def cancelling(tag):
            pending.pop(tag, None)
            log.append(("fire", tag, round(s.now, 9)))
            cancel(target)

        return cancelling

    victim_tags: dict[int, int] = {}

    def track(handle, tag):
        handles.append(handle)
        victim_tags[id(handle)] = tag
        return handle

    for op in ops:
        kind = op[0]
        if kind == "at":
            tag_box[0] += 1
            tag = tag_box[0]
            pending[tag] = s.now + op[1]
            track(s.schedule_at(s.now + op[1], fire, tag), tag)
        elif kind == "after":
            tag_box[0] += 1
            tag = tag_box[0]
            pending[tag] = s.now + op[1]
            track(s.schedule_after(op[1], fire, tag), tag)
        elif kind == "fire":
            tag_box[0] += 1
            pending[tag_box[0]] = s.now + op[1]
            s.schedule_fire(s.now + op[1], fire, tag_box[0])
        elif kind == "batch":
            entries = []
            for offset in op[1]:
                tag_box[0] += 1
                pending[tag_box[0]] = s.now + offset
                entries.append((s.now + offset, fire, (tag_box[0],)))
            s.schedule_batch(entries)
        elif kind == "cancel":
            cancel(op[1])
        elif kind == "chain":
            tag_box[0] += 1
            tag = tag_box[0]
            pending[tag] = s.now + op[1]
            track(s.schedule_at(s.now + op[1], make_chain([op[2]], op[3]), tag), tag)
        elif kind == "fire_chain":
            tag_box[0] += 1
            pending[tag_box[0]] = s.now + op[1]
            s.schedule_fire(s.now + op[1], make_fire_chain([op[2]], op[3], op[4]), tag_box[0])
        elif kind == "cancel_in":
            tag_box[0] += 1
            tag = tag_box[0]
            pending[tag] = s.now + op[1]
            track(s.schedule_at(s.now + op[1], make_canceller(op[2]), tag), tag)
        else:  # run
            horizon = s.now + op[1]
            n = s.run(until=horizon, max_events=op[2])
            log.append(("ran", n))
            log.append(("now", round(s.now, 9)))
            # The PR 3 regression, generalised: a `max_events` (or
            # `until`) break must never advance the clock past an event
            # that is still due — time would run backwards when it fires.
            if pending:
                assert s.now <= min(pending.values()) + 1e-12, (
                    factory.__name__,
                    s.now,
                    min(pending.values()),
                )
    # Final drain: everything still outstanding fires in both schedulers.
    n = s.run(until=s.now + 2000.0)
    log.append(("ran", n))
    log.append(("now", round(s.now, 9)))
    return log


class TestWheelMatchesHeapOracle:
    @settings(max_examples=80, deadline=None)
    @given(ops=_OPS)
    def test_identical_observables(self, ops):
        wheel = _interpret(Scheduler, ops)
        heap = _interpret(ReferenceHeapScheduler, ops)
        assert wheel == heap


class TestSameTickOrdering:
    @settings(max_examples=40, deadline=None)
    @given(
        # sub-quantum jitters: many distinct times inside one ~1 ms slot,
        # plus exact duplicates forcing pure-seq tie-breaks.
        jitters=st.lists(
            st.integers(min_value=0, max_value=6), min_size=2, max_size=20
        ),
        base=st.integers(min_value=0, max_value=5),
    )
    def test_one_slot_fires_in_time_then_seq_order(self, jitters, base):
        for factory in (Scheduler, ReferenceHeapScheduler):
            s = factory()
            t0 = base * 0.37
            fired: list[int] = []
            expected = sorted(
                range(len(jitters)),
                key=lambda i: (t0 + jitters[i] * 1e-5, i),
            )
            for i, jitter in enumerate(jitters):
                s.schedule_at(t0 + jitter * 1e-5, fired.append, i)
            s.run()
            assert fired == expected, factory.__name__

