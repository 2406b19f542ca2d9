"""Differential: ``TimeFreeDetector`` over a learned view against the removed partial core.

Unknown participants used to run on a second Algorithm 1 core,
``PartialTimeFreeDetector``, kept verbatim in ``tests/reference_partial.py``.
Production now runs the one core over a learned membership view
(``DetectorConfig(membership=None, range_density=d)``).  Hypothesis drives
both with the same script — round start / finish / abort, responses for
stale, current and future rounds, and queries carrying random tagged
suspicion and mistake records, from the node itself and from others — with
mobility on and off, and requires after every step: the same return value
(the broadcast query, the whole ``QueryRoundOutcome``, the response sent),
a ``ProtocolError`` on both sides or on neither, and equal ``known()``,
``suspects()``, ``mistakes()``, ``counter``, ``collecting`` and
``quorum_reached()``.  The error texts are not compared: the learned view
now reports the given view's wording.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import Query, Response
from repro.core.protocol import DetectorConfig, TimeFreeDetector
from repro.errors import ProtocolError
from tests.reference_partial import PartialDetectorConfig, PartialTimeFreeDetector

OWN = 1
PIDS = st.integers(min_value=1, max_value=7)  # includes the node's own id
TAGS = st.integers(min_value=0, max_value=12)
RECORDS = st.lists(st.tuples(PIDS, TAGS), max_size=4, unique_by=lambda r: r[0]).map(tuple)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("start")),
        st.tuples(st.just("finish")),
        st.tuples(st.just("abort")),
        # round id relative to the round in progress: stale, current, future
        st.tuples(st.just("response"), PIDS, st.integers(min_value=-1, max_value=1)),
        st.tuples(st.just("query"), PIDS, st.integers(min_value=1, max_value=3), RECORDS, RECORDS),
    ),
    max_size=50,
)
#: (d, f): quorum 1 (the node alone), 2 and 3
VIEWS = st.sampled_from([(2, 1), (3, 1), (5, 2)])


def pair(d, f, mobility):
    learned = DetectorConfig(process_id=OWN, membership=None, f=f, range_density=d)
    reference = PartialDetectorConfig(process_id=OWN, range_density=d, f=f)
    return (
        TimeFreeDetector(learned, mobility=mobility),
        PartialTimeFreeDetector(reference, mobility=mobility),
    )


def step(detector, op, *args):
    """Apply one script step; a ``ProtocolError`` is an observable, not a failure."""
    try:
        if op == "start":
            return detector.start_round().message
        if op == "finish":
            return detector.finish_round()
        if op == "abort":
            return detector.abort_round()
        if op == "response":
            sender, delta = args
            return detector.on_response(
                Response(sender=sender, round_id=detector._round_id + delta)
            )
        sender, round_id, suspected, mistakes = args
        reply = detector.on_query(
            Query(sender=sender, round_id=round_id, suspected=suspected, mistakes=mistakes)
        )
        return None if reply is None else (reply.destination, reply.message)
    except ProtocolError:
        return ProtocolError


def observables(detector):
    return (
        detector.known(),
        detector.suspects(),
        detector.mistakes(),
        detector.counter,
        detector.collecting,
        detector.quorum_reached(),
        detector.rounds_completed,
    )


#: a learned neighbour falls silent, is suspected, refutes through a relay
#: and is evicted (first six steps); it is heard again, then the stale
#: mistake arrives through another relay
EVICTION = [
    ("query", 5, 1, (), ()), ("query", 6, 1, (), ()), ("start",), ("response", 6, 0),
    ("finish",), ("query", 7, 2, (), ((5, 1),)), ("start",), ("response", 7, 0),
    ("response", 6, 0), ("finish",), ("query", 5, 3, (), ()), ("query", 4, 3, (), ((5, 1),)),
]
#: refuting a suspicion of the node itself, then errors on both sides
SELF_REFUTE = [
    ("query", 4, 1, ((OWN, 3),), ()), ("start",), ("start",), ("abort",), ("finish",),
    ("query", OWN, 1, (), ()),
]


@given(view=VIEWS, mobility=st.booleans(), script=STEPS)
@example(view=(2, 1), mobility=True, script=EVICTION)
@example(view=(2, 1), mobility=False, script=EVICTION)
@example(view=(3, 1), mobility=True, script=SELF_REFUTE)
@settings(max_examples=150, deadline=None)
def test_the_learned_view_matches_the_removed_partial_core(view, mobility, script):
    core, reference = pair(*view, mobility)
    assert core.config.quorum == reference.config.quorum
    for op, *args in script:
        assert step(core, op, *args) == step(reference, op, *args), (op, args)
        assert observables(core) == observables(reference), (op, args)


def test_the_examples_reach_what_they_name():
    for mobility in (True, False):
        core, _ = pair(2, 1, mobility)
        results = [step(core, *s) for s in EVICTION[:6]]
        assert results[4].newly_suspected == (5,)  # 5 learned, then silent
        assert core.suspects() == frozenset() and core.mistakes() == frozenset({5})
        assert (5 in core.known()) is not mobility  # evicted only with mobility
        results = [step(core, *s) for s in EVICTION[6:]]
        # without eviction the silent mover is suspected again (the ping-pong)
        assert results[3].newly_suspected == (() if mobility else (5,))
        assert core.known() == frozenset({4, 5, 6, 7})  # a stale mistake never evicts
    core, _ = pair(3, 1, True)
    results = [step(core, *s) for s in SELF_REFUTE]
    assert results[1].mistakes == ((OWN, 4),)
    assert results[2] is ProtocolError and results[4] is ProtocolError
    assert results[5] is None
