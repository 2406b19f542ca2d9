"""Lemma 1 as a property test: freshest-record convergence.

The propagation lemma says: if a correct process holds the most recent
status record about some process, then (absent newer information) every
correct process eventually holds exactly that record.  We materialise the
lemma: hypothesis scatters arbitrary counter-tagged suspicion/mistake
records about *phantom* subjects (ids outside the membership, so no round
logic interferes) across a full-mesh system, the exchange runs query
rounds until a fixpoint, and every detector must converge on the unique
globally-freshest record per subject — ties resolved mistake-over-
suspicion, exactly as the proof stipulates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetectorConfig, TimeFreeDetector
from tests.reference_tags import merge_remote_mistake, merge_remote_suspicion

from ..helpers import InstantExchange

#: Subjects deliberately outside the membership id range.
SUBJECTS = st.sampled_from([101, 102, 103])
KINDS = st.sampled_from(["suspicion", "mistake"])
TAGS = st.integers(min_value=0, max_value=20)

RECORDS = st.lists(
    st.tuples(SUBJECTS, KINDS, TAGS, st.integers(min_value=0, max_value=4)),
    min_size=1,
    max_size=12,
)


def build_system(n):
    membership = frozenset(range(1, n + 1))
    detectors = {
        pid: TimeFreeDetector(DetectorConfig(process_id=pid, membership=membership, f=1))
        for pid in sorted(membership)
    }
    return detectors


def seed_records(detectors, records, n):
    for subject, kind, tag, holder_index in records:
        holder = detectors[(holder_index % n) + 1]
        if kind == "suspicion":
            merge_remote_suspicion(holder.state, subject, tag)
        else:
            merge_remote_mistake(holder.state, subject, tag)


def expected_winner(records_for_subject):
    """The record that must win: max tag, mistakes beating tied suspicions."""
    best_tag = max(tag for _kind, tag in records_for_subject)
    kinds_at_best = {kind for kind, tag in records_for_subject if tag == best_tag}
    kind = "mistake" if "mistake" in kinds_at_best else "suspicion"
    return kind, best_tag


def run_to_fixpoint(exchange, detectors, max_sweeps=10):
    def snapshot():
        return {
            pid: (d.state.suspected.snapshot(), d.state.mistakes.snapshot())
            for pid, d in detectors.items()
        }

    before = snapshot()
    for _ in range(max_sweeps):
        for pid in sorted(detectors):
            exchange.run_round(pid)
        after = snapshot()
        if after == before:
            return
        before = after
    raise AssertionError("gossip did not reach a fixpoint")


class TestFloodingConvergence:
    @given(n=st.integers(min_value=3, max_value=5), records=RECORDS)
    @settings(max_examples=60, deadline=None)
    def test_everyone_converges_on_the_freshest_record(self, n, records):
        detectors = build_system(n)
        seed_records(detectors, records, n)
        exchange = InstantExchange(detectors)
        run_to_fixpoint(exchange, detectors)
        by_subject: dict = {}
        for subject, kind, tag, _holder in records:
            by_subject.setdefault(subject, []).append((kind, tag))
        for subject, subject_records in by_subject.items():
            kind, tag = expected_winner(subject_records)
            for pid, detector in detectors.items():
                if kind == "suspicion":
                    assert detector.state.suspected.tag_of(subject) == tag, (
                        f"{pid} disagrees on suspicion of {subject}"
                    )
                    assert subject not in detector.state.mistakes
                else:
                    assert detector.state.mistakes.tag_of(subject) == tag, (
                        f"{pid} disagrees on mistake of {subject}"
                    )
                    assert subject not in detector.state.suspected

    @given(n=st.integers(min_value=3, max_value=5), records=RECORDS)
    @settings(max_examples=30, deadline=None)
    def test_fixpoint_states_are_identical_across_processes(self, n, records):
        detectors = build_system(n)
        seed_records(detectors, records, n)
        exchange = InstantExchange(detectors)
        run_to_fixpoint(exchange, detectors)
        states = {
            (d.state.suspected.snapshot(), d.state.mistakes.snapshot())
            for d in detectors.values()
        }
        assert len(states) == 1
