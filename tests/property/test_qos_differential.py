"""Differential: the epoch scorers against the removed crash-stop scorers.

Every cell is scored against the fault plan's down windows
(:func:`repro.metrics.detection_stats` / :func:`repro.metrics.mistake_stats`);
the crash-stop scorers they replaced are kept verbatim in
``tests/reference_qos.py``.  On a crash-only plan, with mistakes scored over
the plan's correct set, the two must agree: the same windows in the same
order (the plan's crash order, which hypothesis draws apart from pid
order), equal latency dicts by value and key order, equal ``undetected``,
``count`` and ``unresolved``, and a bit-equal ``total_duration``.

The traces let victims suspect, and be suspected, before they crash, and
hold instant suspicions (suspected and withdrawn at one time, through a
toggle pair or an explicit instant), suspicions begun at the horizon and
suspicions still open there.  The rule both scorers follow: an instant
suspicion of an up target is one mistake of length 0.

``total_duration`` is a float sum over pairs.  The epoch scorer adds the
pairs in ``repr`` order of the members (so its sums do not depend on the
hash seed), the oracle in set order: observers in ``frozenset(correct)``,
each one's targets in ``targets_of(observer) & correct``.  An intersection
of a few ids lives in an 8-slot table, so ``8`` and ``9`` come before
``1..7`` there (``{3, 6, 8}`` iterates ``8, 3, 6``).  So the sum is
bit-equal whenever the two orders agree (always for ids ``1..7``), and for
any number of ids at times on a binary grid (every partial sum exact);
otherwise only the last place may differ.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import e1_density
from repro.metrics import detection_stats, mistake_stats
from repro.sim.faults import CrashFault, FaultPlan
from repro.sim.trace import TraceRecorder
from tests import reference_qos

HORIZON = 20.0

#: any float in the run (crashes strictly before the horizon, so every
#: crash is a window of the run; suspicions up to and at the horizon)
FLOAT_CRASHES = st.floats(0.0, HORIZON, exclude_max=True)
FLOAT_EVENTS = st.floats(0.0, HORIZON)
#: sixteenths of a second: every duration and every sum of them is exact
GRID_CRASHES = st.integers(0, 16 * 20 - 1).map(lambda k: k / 16)
GRID_EVENTS = st.integers(0, 16 * 20).map(lambda k: k / 16)


@st.composite
def cells(draw, *, ids, crash_times, event_times):
    n = draw(ids)
    members = tuple(range(1, n + 1))
    order = draw(st.permutations(members))
    victims = order[: draw(st.integers(0, min(4, n - 1)))]
    plan = FaultPlan.of(crashes=[CrashFault(pid, draw(crash_times)) for pid in victims])
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(members),  # observer
                event_times,
                st.sampled_from(members),  # target
                st.booleans(),  # an instant suspicion, not a toggle
            ),
            max_size=40,
        )
    )
    return members, plan, record(members, plan, events)


def record(members, plan, events):
    """Each observer toggles (or instantly suspects) its targets in time
    order, and records nothing from its own crash on."""
    crash_at = {fault.process: fault.time for fault in plan.crashes}
    trace = TraceRecorder()
    for observer in members:
        suspects = frozenset()
        mine = sorted((e for e in events if e[0] == observer), key=lambda e: e[1])
        for _, time, target, instant in mine:
            if time >= crash_at.get(observer, math.inf):
                break
            if target == observer:
                continue
            if instant and target not in suspects:
                trace.record_suspicion_change(time, observer, suspects, suspects | {target})
                trace.record_suspicion_change(time, observer, suspects | {target}, suspects)
                continue
            after = suspects ^ {target}
            trace.record_suspicion_change(time, observer, suspects, after)
            suspects = after
    return trace


def window_rows(windows):
    return [
        (w.crashed, w.crash_time, list(w.latencies.items()), w.undetected)
        for w in windows
    ]


def assert_same_scores(members, plan, trace, *, exact_sum=True):
    windows = detection_stats(trace, plan, members, horizon=HORIZON)
    expected = reference_qos.all_detection_stats(trace, plan, members)
    assert window_rows(windows) == window_rows(expected)

    correct = plan.correct_processes(members)
    mistakes = mistake_stats(trace, plan, correct, horizon=HORIZON)
    reference = reference_qos.mistake_stats(trace, correct, horizon=HORIZON)
    assert (mistakes.count, mistakes.unresolved) == (reference.count, reference.unresolved)
    if exact_sum:
        assert mistakes.total_duration.hex() == reference.total_duration.hex()
    else:
        assert math.isclose(mistakes.total_duration, reference.total_duration, rel_tol=1e-12)


def oracle_sums_in_repr_order(members, plan, trace):
    """Whether the oracle visits the mistake pairs in ``repr`` order."""
    correct = frozenset(plan.correct_processes(members))
    observers = list(correct)
    if observers != sorted(observers, key=repr):
        return False
    for observer in observers:
        targets = list(trace.targets_of(observer) & correct)
        if targets != sorted(targets, key=repr):
            return False
    return True


def eight_before_three_and_six():
    """Observer 1's targets ``{3, 6, 8}`` iterate ``8, 3, 6``; the two sums
    differ in the last place."""
    members = tuple(range(1, 9))
    plan = FaultPlan.of(crashes=[])
    events = [(1, 0.1, 3, False), (1, 0.1, 6, False), (1, 0.2, 8, False)]
    return members, plan, record(members, plan, events)


def instant_then_crash_out_of_pid_order():
    """Victim 3 crashes before victim 2; both accused beforehand, 3 accuses
    2 before its crash, and 1 holds an instant suspicion of 2 and one begun
    at the horizon."""
    members = (1, 2, 3, 4)
    plan = FaultPlan.of(crashes=[CrashFault(3, 5.0), CrashFault(2, 8.0)])
    events = [
        (1, 1.0, 2, True), (1, 2.0, 3, False), (3, 3.0, 2, False),
        (4, 4.0, 2, False), (4, 4.0, 2, False), (1, HORIZON, 4, False),
    ]
    return members, plan, record(members, plan, events)


class TestCrashOnlyPlans:
    @settings(max_examples=300, deadline=None)
    @given(cells(ids=st.integers(2, 9), crash_times=FLOAT_CRASHES, event_times=FLOAT_EVENTS))
    @example(instant_then_crash_out_of_pid_order())
    @example(eight_before_three_and_six())
    def test_up_to_nine_ids_at_any_time(self, cell):
        assert_same_scores(*cell, exact_sum=oracle_sums_in_repr_order(*cell))

    def test_the_oracle_sums_ids_up_to_seven_in_repr_order(self):
        members = tuple(range(1, 8))
        plan = FaultPlan.of(crashes=[CrashFault(7, 1.0)])
        events = [(o, 0.5, t, False) for o in members for t in members]
        assert oracle_sums_in_repr_order(members, plan, record(members, plan, events))

    def test_the_oracle_sums_eight_first(self):
        cell = eight_before_three_and_six()
        assert not oracle_sums_in_repr_order(*cell)
        mistakes = mistake_stats(cell[2], cell[1], cell[0], horizon=HORIZON)
        reference = reference_qos.mistake_stats(cell[2], cell[0], horizon=HORIZON)
        assert mistakes.total_duration != reference.total_duration

    @settings(max_examples=200, deadline=None)
    @given(cells(ids=st.integers(10, 14), crash_times=GRID_CRASHES, event_times=GRID_EVENTS))
    def test_any_number_of_ids_on_a_binary_grid(self, cell):
        assert_same_scores(*cell)

    @settings(max_examples=100, deadline=None)
    @given(cells(ids=st.integers(10, 14), crash_times=FLOAT_CRASHES, event_times=FLOAT_EVENTS))
    def test_ten_or_more_ids_at_any_time(self, cell):
        assert_same_scores(*cell, exact_sum=False)


def test_a_default_size_e1_cell_scores_the_same_both_ways(monkeypatch):
    """One real cell (n = 50, five crashes in random order): e1 scores it
    with the epoch scorer, and the oracle scores the same trace."""
    seen = []

    def both_ways(trace, plan, membership, *, horizon):
        windows = detection_stats(trace, plan, membership, horizon=horizon)
        expected = reference_qos.all_detection_stats(trace, plan, membership)
        seen.append((window_rows(windows), window_rows(expected), plan))
        return windows

    monkeypatch.setattr(e1_density, "detection_stats", both_ways)
    params = e1_density.E1Params()
    e1_density.run_cell(params, e1_density.SPEC.cells(params)[0], seed=0)
    [(windows, expected, plan)] = seen
    assert windows == expected
    assert [pid for pid, *_ in windows] != sorted(pid for pid, *_ in windows)
    assert len(windows) == len(plan.crashes) == params.crashes
