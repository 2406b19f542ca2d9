"""Random operation sequences against the detector cores.

Hypothesis drives each sans-I/O core through arbitrary (legal) event
interleavings — queries with random record payloads, responses with random
round ids, round starts/finishes, wakeups — and checks the invariants that
no interleaving may break.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gossip import GossipHeartbeat, GossipHeartbeatDetector
from repro.baselines.heartbeat import Heartbeat, HeartbeatDetector
from repro.core.messages import Query, Response
from repro.core.protocol import DetectorConfig, TimeFreeDetector

PIDS = st.integers(min_value=2, max_value=9)
TAGS = st.integers(min_value=0, max_value=15)
RECORDS = st.lists(st.tuples(PIDS, TAGS), max_size=4, unique_by=lambda r: r[0]).map(tuple)


def learned_detector():
    return TimeFreeDetector(
        DetectorConfig(process_id=1, membership=None, f=1, range_density=3)
    )


PARTIAL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("query"), PIDS, RECORDS, RECORDS),
        st.tuples(st.just("response"), PIDS, st.integers(min_value=1, max_value=5), st.just(())),
        st.tuples(st.just("cycle"), st.just(0), st.just(()), st.just(())),
    ),
    max_size=40,
)


def drive_partial(detector, operations):
    for op, pid, a, b in operations:
        if op == "query":
            detector.on_query(Query(sender=pid, round_id=1, suspected=a, mistakes=b))
        elif op == "response":
            if detector.collecting:
                detector.on_response(Response(sender=pid, round_id=a))
        elif op == "cycle":
            if not detector.collecting:
                detector.start_round()
            if detector.quorum_reached():
                detector.finish_round()


class TestPartialDetectorInvariants:
    @given(operations=PARTIAL_OPS)
    @settings(max_examples=150, deadline=None)
    def test_state_invariants(self, operations):
        detector = learned_detector()
        drive_partial(detector, operations)
        assert detector.state.invariant_violations() == []

    @given(operations=PARTIAL_OPS)
    @settings(max_examples=100, deadline=None)
    def test_never_knows_or_suspects_itself(self, operations):
        detector = learned_detector()
        drive_partial(detector, operations)
        assert 1 not in detector.known()
        assert 1 not in detector.suspects()

    @given(operations=PARTIAL_OPS)
    @settings(max_examples=100, deadline=None)
    def test_mobility_rule_only_shrinks_known_to_heard_senders(self, operations):
        # Every member of `known` was, at some point, a query sender.
        detector = learned_detector()
        senders = {pid for op, pid, *_ in operations if op == "query"}
        drive_partial(detector, operations)
        assert detector.known() <= senders


TIMED_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("beat"), PIDS, st.integers(min_value=1, max_value=30)),
        st.tuples(st.just("wakeup"), st.just(0), st.just(0)),
        st.tuples(st.just("sleep"), st.just(0), st.integers(min_value=1, max_value=20)),
    ),
    max_size=40,
)


class TestHeartbeatInvariants:
    @given(events=TIMED_EVENTS)
    @settings(max_examples=150, deadline=None)
    def test_suspects_are_always_known_peers(self, events):
        detector = HeartbeatDetector(1, frozenset(range(1, 6)), period=1.0, timeout=2.0)
        now = 0.0
        detector.start(now)
        for kind, pid, value in events:
            if kind == "beat":
                detector.on_message(now, pid, Heartbeat(sender=pid, seq=value))
            elif kind == "wakeup":
                detector.on_wakeup(now)
            elif kind == "sleep":
                now += value / 10.0
        assert detector.suspects() <= frozenset({2, 3, 4, 5})
        assert 1 not in detector.suspects()

    @given(events=TIMED_EVENTS)
    @settings(max_examples=100, deadline=None)
    def test_next_wakeup_never_none_after_start(self, events):
        # The beat timer always exists, so a started detector always has a
        # wakeup scheduled (it must keep emitting beats).
        detector = HeartbeatDetector(1, frozenset(range(1, 6)), period=1.0, timeout=2.0)
        now = 0.0
        detector.start(now)
        for kind, pid, value in events:
            if kind == "beat":
                detector.on_message(now, pid, Heartbeat(sender=pid, seq=value))
            elif kind == "wakeup":
                detector.on_wakeup(now)
            elif kind == "sleep":
                now += value / 10.0
            assert detector.next_wakeup() is not None


class TestGossipInvariants:
    @given(
        vectors=st.lists(
            st.tuples(PIDS, RECORDS),
            max_size=25,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_vector_entries_never_decrease(self, vectors):
        detector = GossipHeartbeatDetector(
            1, frozenset(range(1, 10)), period=1.0, timeout=2.0
        )
        detector.start(0.0)
        floor = detector.heartbeat_vector()
        now = 0.0
        for sender, vector in vectors:
            now += 0.1
            detector.on_message(now, sender, GossipHeartbeat(sender=sender, vector=vector))
            current = detector.heartbeat_vector()
            for pid, value in floor.items():
                assert current[pid] >= value
            floor = current

    @given(
        vectors=st.lists(st.tuples(PIDS, RECORDS), max_size=25),
        wake_at=st.floats(min_value=2.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_own_entry_only_grows_through_own_beats(self, vectors, wake_at):
        detector = GossipHeartbeatDetector(
            1, frozenset(range(1, 10)), period=1.0, timeout=2.0
        )
        detector.start(0.0)
        own_before = detector.heartbeat_vector()[1]
        for sender, vector in vectors:
            detector.on_message(1.0, sender, GossipHeartbeat(sender=sender, vector=vector))
        assert detector.heartbeat_vector()[1] == own_before
