"""Task T1 on ``TimedDriver`` against the scheduler-callback driver it replaced.

Production hosts every query core on ``TimedDriver`` through
``QueryRoundFacade``: one timer at the facade's one deadline, a suspect set
compared against the last one recorded.  ``tests/reference_driver.py`` is
the driver that ran T1 with a scheduled event per pacing step and a
before/after snapshot per hand-off.  The same cluster (seed, latency,
loss, pacing, faults) runs on both and must leave the same record: equal
suspicion changes, equal round records, equal listener calls in the same
order, equal retry counts, equal message counts and equal final
suspect sets (and leaders, under Ω) per node.  Any difference in the
order of scheduled events or random draws would show up here, as it would
in a golden.

Two regions are left out, each for a stated reason.  Lifecycle events
that land before a node's (staggered) start make the reference driver
start a round twice and raise, so mobility and recovery come after it.
And a ``retry`` is drawn only with bounded latency and longer than the
grace plus a round trip: otherwise a quorum can arrive so late that its
close falls after the pending retry timer, which the host keeps (the rule
every family shares: a deadline that moved later does not re-arm) where
the reference cancelled it and scheduled the close at the quorum.  The
close happens at the same instant either way; only its order against
other events at that instant can differ.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.effects import Broadcast
from repro.core.messages import Response
from repro.core.omega import OmegaElector
from repro.core.protocol import DetectorConfig, QueryPacing, TimeFreeDetector
from repro.sim.cluster import SimCluster
from repro.sim.faults import (
    CrashFault,
    FaultPlan,
    JoinFault,
    LeaveFault,
    MobilityFault,
    RecoveryFault,
)
from repro.sim.latency import ConstantLatency, ExponentialLatency, UniformLatency
from repro.sim.node import QueryResponseDriver
from tests.reference_driver import ReferenceQueryResponseDriver

HORIZON = 3.0

times = st.sampled_from([0.0, 0.05, 0.3, 0.51, 1.0, 1.2])
#: mobility and recovery land after every node has started (stagger <= 0.05)
later = st.sampled_from([0.06, 0.3, 0.51, 1.0, 1.2])
gaps = st.sampled_from([0.07, 0.2, 0.7])
faults = st.one_of(
    st.tuples(st.just("crash"), times),
    st.tuples(st.just("move"), later, gaps),
    st.tuples(st.just("recover"), times, gaps, st.booleans()),
    st.tuples(st.just("leave"), times),
    st.tuples(st.just("join"), times),
)
#: (model, the longest one-way delay it draws: None when unbounded)
latencies = st.sampled_from([
    (ConstantLatency(0.01), 0.01),
    (UniformLatency(0.005, 0.015), 0.015),
    (ExponentialLatency(0.01), None),
    (ExponentialLatency(0.02, floor=0.001), None),
])


def plan_of(drawn, n):
    """One fault per process, on the highest ids (node 1 always stays up)."""
    kinds: dict = {"crashes": [], "moves": [], "recoveries": [], "leaves": [], "joins": []}
    for pid, (kind, at, *rest) in zip(range(n, 1, -1), drawn):
        if kind == "crash":
            kinds["crashes"].append(CrashFault(pid, at))
        elif kind == "move":
            kinds["moves"].append(MobilityFault(pid, at, at + rest[0]))
        elif kind == "recover":
            kinds["recoveries"].append(RecoveryFault(pid, at, at + rest[0], rest[1]))
        elif kind == "leave":
            kinds["leaves"].append(LeaveFault(pid, at))
        else:
            kinds["joins"].append(JoinFault(pid, at))
    return FaultPlan.of(**kinds)


def factory(driver_cls, family, f, pacing, log):
    def build(process, cluster):
        elector = None
        if family == "partial":
            config = DetectorConfig(
                process_id=process.pid,
                membership=None,
                f=f,
                range_density=cluster.range_density,
            )
            detector = TimeFreeDetector(config)
        else:
            config = DetectorConfig.for_process(process.pid, cluster.membership, f)
            if family == "omega":
                elector = OmegaElector(config)
                detector = TimeFreeDetector(
                    config, extra_provider=elector.payload, extra_consumer=elector.consume
                )
            else:
                detector = TimeFreeDetector(config)
        driver = driver_cls(process, detector, pacing, elector=elector)
        clock = cluster.scheduler

        def on_suspicion_change(pid, suspects):
            log.append(("suspects", clock.now, pid, suspects))
            # Traffic of its own, as the consensus layer sends: its latency
            # draws must come before the next round's query (a stale-round
            # RESPONSE, which every core counts for nothing).
            process.execute(Broadcast(Response(sender=pid, round_id=0)))

        driver.suspicion_listeners.append(on_suspicion_change)
        driver.round_listeners.append(
            lambda pid, outcome: log.append(("round", clock.now, pid, outcome))
        )
        return driver

    return build


def run(driver_cls, case):
    log: list = []
    cluster = SimCluster(
        n=case["n"],
        driver_factory=factory(
            driver_cls, case["family"], case["f"], case["pacing"], log
        ),
        latency=case["latency"],
        seed=case["seed"],
        fault_plan=plan_of(case["faults"], case["n"]),
        loss_rate=case["loss"],
        start_stagger=case["stagger"],
    )
    cluster.run(until=HORIZON)
    trace = cluster.trace
    record = {
        "log": log,
        "changes": trace.suspicion_changes,
        "rounds": trace.rounds,
        "messages": (trace.messages_by_kind, trace.messages_total, trace.messages_dropped),
        "suspects": {pid: cluster.suspects_of(pid) for pid in cluster.membership},
        "leaders": {pid: e.leader() for pid, e in cluster.electors().items()},
        "now": cluster.scheduler.now,
    }
    retries = {}
    for pid, driver in cluster.drivers.items():
        counter = driver if driver_cls is ReferenceQueryResponseDriver else driver.core
        retries[pid] = counter.retries_sent
    record["retries"] = retries
    cluster.close()
    return record


@given(
    family=st.sampled_from(["time-free", "partial", "omega"]),
    n=st.integers(3, 6),
    f_share=st.sampled_from([1, 2]),
    grace=st.sampled_from([0.0, 0.0, 0.02, 0.05]),
    idle=st.sampled_from([0.0, 0.0, 0.03]),
    retry_slack=st.sampled_from([None, None, 0.001, 0.05]),
    loss=st.sampled_from([0.0, 0.0, 0.15]),
    latency=latencies,
    stagger=st.sampled_from([0.0, 0.05]),
    faults=st.lists(faults, max_size=3),
    seed=st.integers(1, 50),
)
@settings(max_examples=60, deadline=None)
def test_timed_driver_runs_task_t1_as_the_reference_driver_did(
    family, n, f_share, grace, idle, retry_slack, loss, latency, stagger, faults, seed
):
    model, longest = latency
    retry = None
    if retry_slack is not None and longest is not None:
        retry = grace + 2 * longest + retry_slack
    f = max(1, min(f_share, (n - 1) // 2))
    case = dict(
        family=family, n=n, f=f, pacing=QueryPacing(grace=grace, idle=idle, retry=retry),
        loss=loss, latency=model, stagger=stagger, faults=faults[: n - 1], seed=seed,
    )
    production = run(QueryResponseDriver, case)
    reference = run(ReferenceQueryResponseDriver, case)
    for key in reference:
        assert production[key] == reference[key], key
