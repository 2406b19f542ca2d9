"""The timer-based cores against the scan-based reference model.

``repro.baselines`` answers ``next_wakeup()`` from a lazily-invalidated heap,
serves ``suspects()`` from a cache and keeps phi's window estimates between
arrivals; ``tests/reference_baselines.py`` scans, copies and recomputes on
every call.  Driven by the same time-ordered script they must agree after
every step (suspects, next deadline, effects, and ``phi`` bit for bit), or
a host schedules a different event and a golden moves.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gossip import GossipHeartbeat, GossipHeartbeatDetector
from repro.baselines.heartbeat import Heartbeat, HeartbeatDetector
from repro.baselines.phi_accrual import PhiAccrualDetector
from tests.reference_baselines import (
    ReferenceGossipHeartbeatDetector,
    ReferenceHeartbeatDetector,
    ReferencePhiAccrualDetector,
)

#: id universes: orderable ints, strings, and ids no ``<`` can compare
ID_SPACES = (
    (1, 2, 3, 4, 5),
    ("a", "b", "c", "d", "e"),
    (1, "1", (1, 2), "n2", ("x",)),
)
STRANGER = "nobody"

# Steps on a 0.25 grid land exactly on deadlines (``now >= deadline`` with
# equality); the free floats do not.
advances = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.25, 0.5, 0.75, 1.0, 2.0, 5.0]),
    st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
)
# Sequence numbers are relative to the highest one the script has used for
# that id: +1 / +3 fresh (in order, with a gap), 0 duplicate, -1 / -2 stale.
# An index past the membership is the stranger; index 1 speaks most, so its
# window fills and its timer is re-armed many times within one script.
senders = st.sampled_from([1, 1, 1, 1, 2, 2, 3, 4, 0, 5])
freshness = st.sampled_from([1, 1, 1, 1, 3, 0, -1, -2])
# A message step is (sender, [(id, freshness), ...]): a gossip vector's
# entries, or the one entry a plain beat reads its own freshness from.
entries = st.tuples(senders, freshness)
bursts = st.tuples(st.just("burst"), senders, st.integers(2, 6))
beats = st.one_of(
    st.tuples(st.just("message"), senders, st.lists(entries, min_size=1, max_size=1)), bursts
)
vectors = st.one_of(
    st.tuples(st.just("message"), senders, st.lists(entries, max_size=6)), bursts
)
wakeups = st.tuples(st.just("wakeup"), st.sampled_from(["due", "early", "spurious"]))
others = st.sampled_from([("start",), ("foreign",)])


def scripts(messages):
    """Timed steps; most scripts start the core first, some only later or never."""
    step = st.one_of(messages, messages, wakeups, wakeups, others)
    start = [(0.0, ("start",))]
    return st.builds(
        lambda head, tail: head + tail,
        st.sampled_from([start, start, start, []]),
        st.lists(st.tuples(advances, step), max_size=60),
    )


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def run_both(production, reference, ids, script, *, gossip=False, compare=lambda now: None):
    """Play ``script`` into both cores; they must agree after every call."""
    highest: dict = {}

    def member(index):
        return ids[index] if index < len(ids) else STRANGER

    def numbered(pid, delta):
        seq = max(0, highest.get(pid, 0) + delta)
        highest[pid] = max(seq, highest.get(pid, 0))
        return seq

    def message(sender, entries):
        if gossip:
            vector = tuple((member(i), numbered(member(i), delta)) for i, delta in entries)
            return GossipHeartbeat(sender=sender, vector=vector)
        return Heartbeat(sender=sender, seq=numbered(sender, entries[0][1]))

    now = 0.0
    served = production.suspects()
    for advance, step in script:
        kind, repeat = step[0], 1
        if kind == "burst":
            # in-order beats `advance` apart: windows fill, timers re-arm
            kind, repeat = "message", step[2]
            step = ("message", step[1], [(step[1], 1)])
        for _ in range(repeat):
            now += advance
            if kind == "start":
                call = ("start", now)
            elif kind == "wakeup":
                due = reference.next_wakeup()
                if step[1] == "due" and due is not None and due >= now:
                    now = due
                elif step[1] == "early":
                    now -= advance  # again at the time of the previous call
                call = ("on_wakeup", now)
            elif kind == "message":
                sender = member(step[1])
                call = ("on_message", now, sender, message(sender, step[2]))
            else:
                call = ("on_message", now, member(1), object())
            name, *args = call
            assert getattr(production, name)(*args) == getattr(reference, name)(*args), call
            assert production.next_wakeup() == reference.next_wakeup(), call
            suspects = production.suspects()
            assert suspects == reference.suspects(), call
            # identity-stable: a new object exactly when the content changed
            assert (suspects is served) == (suspects == served), call
            served = suspects
            compare(now)


def membership(ids_index, n):
    ids = ID_SPACES[ids_index][:n]
    return ids, frozenset(ids)


@given(
    ids_index=st.integers(0, 2),
    n=st.integers(2, 5),
    period=st.sampled_from([0.5, 1.0]),
    timeout=st.sampled_from([0.75, 2.0]),
    adaptive=st.booleans(),
    timeout_increment=st.sampled_from([0.0, 0.5]),
    script=scripts(beats),
)
@settings(max_examples=300, deadline=None)
def test_heartbeat_matches_the_scan(
    ids_index, n, period, timeout, adaptive, timeout_increment, script
):
    ids, members = membership(ids_index, n)
    kwargs = dict(
        period=period, timeout=timeout, adaptive=adaptive, timeout_increment=timeout_increment
    )
    production = HeartbeatDetector(ids[0], members, **kwargs)
    reference = ReferenceHeartbeatDetector(ids[0], members, **kwargs)

    def compare(now):
        for peer in ids[1:]:
            assert production.timeout_of(peer) == reference.timeout_of(peer)
        assert len(production._timers._heap) <= 2 * (n - 1)

    run_both(production, reference, ids, script, compare=compare)


@given(
    ids_index=st.integers(0, 2),
    n=st.integers(2, 5),
    period=st.sampled_from([0.5, 1.0]),
    timeout=st.sampled_from([1.25, 2.0]),
    script=scripts(vectors),
)
@settings(max_examples=300, deadline=None)
def test_gossip_matches_the_scan(ids_index, n, period, timeout, script):
    ids, members = membership(ids_index, n)
    production = GossipHeartbeatDetector(ids[0], members, period=period, timeout=timeout)
    reference = ReferenceGossipHeartbeatDetector(ids[0], members, period=period, timeout=timeout)

    def compare(now):
        assert production.heartbeat_vector() == reference.heartbeat_vector()
        assert len(production._timers._heap) <= 2 * (n - 1)

    run_both(production, reference, ids, script, gossip=True, compare=compare)


@given(
    ids_index=st.integers(0, 2),
    n=st.integers(2, 5),
    threshold=st.sampled_from([0.3, 1.0, 8.0]),
    window_size=st.sampled_from([2, 3, 100]),
    min_std=st.sampled_from([0.05, 0.5]),
    eval_fraction=st.sampled_from([0.25, 1.0]),
    script=scripts(beats),
)
@settings(max_examples=300, deadline=None)
def test_phi_matches_the_recomputation(
    ids_index, n, threshold, window_size, min_std, eval_fraction, script
):
    ids, members = membership(ids_index, n)
    kwargs = dict(
        period=1.0,
        threshold=threshold,
        window_size=window_size,
        min_std=min_std,
        eval_fraction=eval_fraction,
    )
    production = PhiAccrualDetector(ids[0], members, **kwargs)
    reference = ReferencePhiAccrualDetector(ids[0], members, **kwargs)

    def compare(now):
        for peer in ids[1:]:
            for at in (now, now + 0.4, now + 3.0):
                assert bits(production.phi(peer, at)) == bits(reference.phi(peer, at))

    run_both(production, reference, ids, script, compare=compare)
