"""Differential: one insertion-ordered dict against the list + set it replaced.

The query core used to track a round's responders twice, a list for the
arrival order and a set for membership, re-created every round.  It now
keeps one ``dict`` (the responder contract on
:class:`repro.sim.node.QueryDetectorCore`).  The subclasses below carry the
old bookkeeping, one per membership view; hypothesis drives a core and its
list + set twin with the same script (duplicates, stale and future round ids, responses
before any round, aborts mid-round, the node's own id, quorum met exactly
and overshot) and requires every observable to agree after every step:
return values, ``quorum_reached()``, the whole ``QueryRoundOutcome`` and
the text of every ``ProtocolError``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DetectorConfig, TimeFreeDetector
from repro.core.messages import Query, Response
from repro.core.protocol import QueryRoundOutcome
from repro.core.tags import MergeOutcome
from repro.errors import ProtocolError

OWN = 1
N = 6


class _ListAndSet:
    """The bookkeeping the core carried before: ``_responders`` + ``_responder_set``."""

    def start_round(self):
        broadcast = super().start_round()
        self._responders = [self.process_id]
        self._responder_set = {self.process_id}
        return broadcast

    def on_response(self, response):
        if not self._collecting or response.round_id != self._round_id:
            return False
        if response.sender in self._responder_set:
            return False
        self._responder_set.add(response.sender)
        self._responders.append(response.sender)
        return True

    def abort_round(self):
        self._collecting = False
        self._responders = []
        self._responder_set = set()

    def _close(self, missing_sorted):
        newly = []
        for pj in missing_sorted:
            result = self._state.suspect_locally(pj)
            if result.outcome is MergeOutcome.SUSPICION_ADOPTED:
                newly.append(pj)
        counter_after = self._state.end_round()
        outcome = QueryRoundOutcome(
            round_id=self._round_id,
            responders=tuple(self._responders),
            winners=frozenset(self._responders[: self._quorum]),
            newly_suspected=tuple(newly),
            counter_after=counter_after,
            suspects_after=self.suspects(),
        )
        self._collecting = False
        self._rounds_completed += 1
        return outcome


class ListAndSetTimeFree(_ListAndSet, TimeFreeDetector):
    def __init__(self, config):
        super().__init__(config)
        self._responders, self._responder_set = [], set()

    def finish_round(self):
        if not self._collecting:
            raise ProtocolError(f"{self.process_id!r}: no round in progress")
        if not self.quorum_reached():
            raise ProtocolError(
                f"{self.process_id!r}: round {self._round_id} has "
                f"{len(self._responders)}/{self._config.quorum} responses; "
                "cannot terminate the query before the quorum (line 7)"
            )
        rec_from = self._responder_set
        members_sorted = sorted(self._config.membership, key=repr)
        return self._close([pj for pj in members_sorted if pj not in rec_from])


class ListAndSetPartial(_ListAndSet, TimeFreeDetector):
    """The twin over a learned view (the removed partial core's bookkeeping)."""

    def __init__(self, config):
        super().__init__(config)
        self._responders, self._responder_set = [], set()

    def finish_round(self):
        if not self._collecting:
            raise ProtocolError(f"{self.process_id!r}: no round in progress")
        if not self.quorum_reached():
            raise ProtocolError(
                f"{self.process_id!r}: round {self._round_id} has "
                f"{len(self._responders)}/{self._config.quorum} responses; "
                "cannot terminate the query before the quorum (line 7)"
            )
        return self._close(sorted(self._known - self._responder_set, key=repr))


def time_free_pair():
    config = DetectorConfig.for_process(OWN, range(1, N + 1), f=2)  # quorum 4
    return TimeFreeDetector(config), ListAndSetTimeFree(config)


def partial_pair():
    config = DetectorConfig(process_id=OWN, membership=None, f=2, range_density=5)  # quorum 3
    return TimeFreeDetector(config), ListAndSetPartial(config)


SENDERS = st.integers(min_value=1, max_value=N)  # includes the node's own id
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("start"), st.just(0), st.just(0)),
        # round id relative to the round in progress: stale, current, future
        st.tuples(st.just("response"), SENDERS, st.integers(min_value=-1, max_value=1)),
        st.tuples(st.just("query"), SENDERS, st.just(0)),
        st.tuples(st.just("finish"), st.just(0), st.just(0)),
        st.tuples(st.just("abort"), st.just(0), st.just(0)),
    ),
    max_size=60,
)

START, FINISH, ABORT = ("start", 0, 0), ("finish", 0, 0), ("abort", 0, 0)


def answer(sender, delta=0):
    return ("response", sender, delta)


def step(detector, op, sender, delta):
    """Apply one script step; a ``ProtocolError`` is an observable, not a failure."""
    try:
        if op == "start":
            return detector.start_round().message
        if op == "response":
            return detector.on_response(Response(sender=sender, round_id=detector._round_id + delta))
        if op == "query":
            reply = detector.on_query(Query(sender=sender, round_id=1, suspected=(), mistakes=()))
            return None if reply is None else (reply.destination, reply.message)
        if op == "finish":
            return detector.finish_round()
        detector.abort_round()
        return None
    except ProtocolError as error:
        return ("ProtocolError", str(error))


def assert_same_observables(pair, script):
    dict_core, twin = pair
    for op, sender, delta in script:
        assert step(dict_core, op, sender, delta) == step(twin, op, sender, delta), (op, sender)
        assert dict_core.quorum_reached() == twin.quorum_reached()
        assert dict_core.collecting == twin.collecting
        assert list(dict_core._responders) == twin._responders
        assert dict_core.suspects() == twin.suspects()


EXACT = [START, answer(2), answer(3), answer(4), FINISH]
OVERSHOT = [START, answer(5), answer(2), answer(2), answer(3), answer(6), answer(4), FINISH]
EARLY_AND_ABORTED = [answer(2), START, answer(2), ABORT, answer(3), FINISH, START, START, FINISH]
KNOWN_BUT_SILENT = [("query", 2, 0), ("query", 3, 0), ("query", 4, 0), START, answer(OWN),
                    answer(4), answer(4, -1), answer(3, 1), answer(2), FINISH, START, FINISH]


@given(script=STEPS)
@example(script=EXACT)
@example(script=OVERSHOT)
@example(script=EARLY_AND_ABORTED)
@example(script=KNOWN_BUT_SILENT)
@settings(max_examples=200, deadline=None)
def test_time_free_core_matches_its_list_and_set_twin(script):
    assert_same_observables(time_free_pair(), script)


@given(script=STEPS)
@example(script=EXACT)
@example(script=OVERSHOT)
@example(script=EARLY_AND_ABORTED)
@example(script=KNOWN_BUT_SILENT)
@settings(max_examples=200, deadline=None)
def test_partial_core_matches_its_list_and_set_twin(script):
    assert_same_observables(partial_pair(), script)


def test_each_core_holds_one_responder_structure():
    for core in (time_free_pair()[0], partial_pair()[0]):
        core.start_round()
        assert type(core._responders) is dict and not hasattr(core, "_responder_set")
        core.abort_round()
        assert core._responders == {}


def test_the_examples_reach_what_they_name():
    """The hand-written scripts do hit exact quorum, overshoot, and a new suspicion."""
    core, _ = time_free_pair()
    outcomes = [step(core, *s) for s in EXACT]
    assert outcomes[-1].responders == (1, 2, 3, 4) and outcomes[-1].winners == {1, 2, 3, 4}
    core, _ = time_free_pair()
    outcome = [step(core, *s) for s in OVERSHOT][-1]
    assert outcome.responders == (1, 5, 2, 3, 6, 4) and outcome.winners == {1, 5, 2, 3}
    core, _ = partial_pair()
    results = [step(core, *s) for s in KNOWN_BUT_SILENT]
    assert results[9].newly_suspected == (3,)
    assert results[-1] == (
        "ProtocolError",
        "1: round 2 has 1/3 responses; cannot terminate the query before the quorum (line 7)",
    )
    core, _ = time_free_pair()
    results = [step(core, *s) for s in EARLY_AND_ABORTED]
    assert results[0] is False and results[4] is False
    assert results[5] == ("ProtocolError", "1: no round in progress")
    assert results[7][0] == "ProtocolError" and "still collecting" in results[7][1]
