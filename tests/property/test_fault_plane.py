"""Property tests for the fault plane.

Hypothesis generates random (but valid-by-construction) interleavings of
crashes, crash-recovery windows, partitions/heals and membership churn,
then checks:

* **Recorder equality** — the same plan driven through a full cluster run
  produces identical observables under the production columnar recorder
  and the object-store reference (``tests/reference_trace.py``, the
  audited oracle, as in ``test_trace_backends``).
* **Epoch ground truth** — a process is never alive and down at the same
  instant: ``alive_intervals`` and ``down_intervals`` are disjoint and
  together tile ``[0, horizon)``; incarnations are monotone.
* **Heals restore the pre-partition link set** — partitions never mutate
  the topology, so after every active partition ends, the reachable pair
  set is exactly the baseline, whatever the begin/end interleaving.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import cluster as cluster_module
from repro.detectors import sim_driver_factory
from repro.sim.cluster import SimCluster
from repro.sim.engine import Scheduler
from repro.sim.faults import (
    CrashFault,
    FaultPlan,
    JoinFault,
    LeaveFault,
    PartitionFault,
    RecoveryFault,
)
from repro.sim.latency import ConstantLatency
from repro.sim.network import SimNetwork
from repro.sim.rng import RngStreams
from repro.sim.topology import full_mesh
from repro.sim.trace import TraceRecorder
from tests.reference_trace import ReferenceTraceRecorder

MEMBERS = (1, 2, 3, 4, 5)
HORIZON = 8.0

# Fault instants on a 0.25s lattice strictly inside the horizon: keeps the
# schedules readable in falsifying examples and avoids float-roundoff
# interval edge cases that the unit suite covers explicitly.
_T = st.integers(min_value=1, max_value=int(HORIZON * 4) - 1).map(lambda i: i / 4.0)


@st.composite
def fault_plans(draw):
    """A valid FaultPlan over MEMBERS with disjoint per-process roles."""
    order = draw(st.permutations(MEMBERS))
    kinds = draw(
        st.lists(
            st.sampled_from(("recovery", "recovery2", "crash", "leave", "join")),
            max_size=4,
            unique=True,
        )
    )
    crashes, recoveries, joins, leaves = [], [], [], []
    for pid, kind in zip(order, kinds):
        if kind == "recovery":
            lo, hi = sorted(draw(st.lists(_T, min_size=2, max_size=2, unique=True)))
            persistent = draw(st.booleans())
            recoveries.append(
                RecoveryFault(pid, crash=lo, recover=hi, persistent=persistent)
            )
        elif kind == "recovery2":
            ts = sorted(draw(st.lists(_T, min_size=4, max_size=4, unique=True)))
            recoveries.append(RecoveryFault(pid, crash=ts[0], recover=ts[1]))
            recoveries.append(RecoveryFault(pid, crash=ts[2], recover=ts[3]))
        elif kind == "crash":
            crashes.append(CrashFault(pid, draw(_T)))
        elif kind == "leave":
            leaves.append(LeaveFault(pid, draw(_T)))
        elif kind == "join":
            joins.append(JoinFault(pid, draw(_T)))
    partitions = []
    if draw(st.booleans()):
        side = draw(st.frozensets(st.sampled_from(MEMBERS), min_size=1, max_size=4))
        rest = tuple(sorted(set(MEMBERS) - side))
        if rest:
            lo, hi = sorted(draw(st.lists(_T, min_size=2, max_size=2, unique=True)))
            partitions.append(
                PartitionFault(sides=(tuple(sorted(side)), rest), start=lo, end=hi)
            )
    return FaultPlan.of(
        crashes=crashes,
        recoveries=recoveries,
        joins=joins,
        leaves=leaves,
        partitions=partitions,
    )


# -- epoch ground truth -----------------------------------------------------

_INSTANTS = [i / 8.0 for i in range(0, int(HORIZON * 8) + 1)]


@settings(max_examples=150, deadline=None)
@given(plan=fault_plans())
def test_alive_and_down_tile_the_horizon(plan):
    for pid in MEMBERS:
        down = plan.down_intervals(pid, horizon=HORIZON)
        alive = plan.alive_intervals(pid, horizon=HORIZON)
        pieces = sorted(down + alive)
        # Non-empty, start at 0, end at the horizon, abut exactly: together
        # they tile [0, horizon) with no overlap and no gap.
        assert pieces[0][0] == 0.0
        assert pieces[-1][1] == HORIZON
        for (_, prev_end), (cur_start, _) in zip(pieces, pieces[1:]):
            assert prev_end == cur_start
        for t in _INSTANTS:
            in_down = any(start <= t < end for start, end in down)
            if t < HORIZON:
                assert plan.alive_at(pid, t) != in_down


@settings(max_examples=150, deadline=None)
@given(plan=fault_plans())
def test_incarnations_are_monotone(plan):
    for pid in MEMBERS:
        incarnations = [plan.incarnation_of(pid, t) for t in _INSTANTS]
        assert incarnations == sorted(incarnations)
        assert incarnations[0] >= 0


@settings(max_examples=150, deadline=None)
@given(plan=fault_plans())
def test_down_at_matches_interval_membership(plan):
    for t in _INSTANTS[:-1]:
        down = plan.down_at(t)
        for pid in MEMBERS:
            in_down = any(
                start <= t < end
                for start, end in plan.down_intervals(pid, horizon=HORIZON)
            )
            assert (pid in down) == in_down


# -- heals restore the pre-partition link set -------------------------------


@settings(max_examples=100, deadline=None)
@given(
    splits=st.lists(
        st.tuples(
            st.frozensets(st.sampled_from(MEMBERS), min_size=1, max_size=4),
            st.booleans(),  # heal this partition again?
        ),
        min_size=1,
        max_size=3,
    )
)
def test_heal_restores_pre_partition_links(splits):
    network = SimNetwork(
        Scheduler(), full_mesh(MEMBERS), ConstantLatency(0.001), RngStreams(1)
    )

    def reachable():
        return frozenset(
            (a, b)
            for a, b in itertools.permutations(MEMBERS, 2)
            if not network.is_separated(a, b)
        )

    baseline = reachable()
    active = []
    for side, heal in splits:
        rest = tuple(sorted(set(MEMBERS) - side))
        if not rest:
            continue
        fault = PartitionFault(
            sides=(tuple(sorted(side)), rest), start=0.0, end=None
        )
        network.begin_partition(fault)
        cross = frozenset(
            (a, b)
            for a, b in itertools.permutations(MEMBERS, 2)
            if (a in side) != (b in side)
        )
        assert reachable().isdisjoint(cross)
        if heal:
            network.end_partition(fault)
        else:
            active.append(fault)
    for fault in active:
        network.end_partition(fault)
    assert reachable() == baseline


# -- recorder equality under fault interleavings ----------------------------


def _run(plan, recorder, seed):
    # The whole cluster runs on `recorder`: SimCluster has no argument for
    # it, so the class it instantiates is swapped for the build.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster_module, "TraceRecorder", recorder)
        cluster = SimCluster(
            n=len(MEMBERS),
            driver_factory=sim_driver_factory("heartbeat", 1, period=0.5, timeout=1.5),
            latency=ConstantLatency(0.001),
            seed=seed,
            fault_plan=plan,
        )
    cluster.run(until=HORIZON)
    trace = cluster.trace
    assert type(trace) is recorder
    return [
        list(trace.suspicion_changes),
        list(trace.rounds),
        [(e.time, e.process, e.incarnation) for e in trace.recoveries],
        [(e.time, e.process, e.kind) for e in trace.membership_events],
        dict(trace.messages_by_sender),
        trace.messages_dropped,
        {pid: cluster.suspects_of(pid) for pid in MEMBERS},
        {pid: cluster.processes[pid].incarnation for pid in MEMBERS},
    ]


@settings(max_examples=25, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=1, max_value=2**16))
def test_trace_backends_agree_under_faults(plan, seed):
    assert _run(plan, TraceRecorder, seed) == _run(plan, ReferenceTraceRecorder, seed)
