"""Engine microbenchmarks, foldable into the canonical artifact format.

The scheduler hot-path workloads, measured and reported like any
experiment grid: ``repro bench`` evaluates the workloads and writes a
``BENCH_MICRO.json`` artifact shaped like the
experiment artifacts (schema/params/cells/tables), so CI can archive and
diff engine throughput the same way it archives experiment results.
Unlike experiment artifacts, timings are inherently machine-dependent —
the artifact is for tracking, not byte-identity.

Workloads:

* ``chain``   — one event schedules the next (timer-wheel pattern;
  pure push/pop throughput at a tiny heap).
* ``fanout``  — pre-schedule N events, drain them (large-heap pops).
* ``churn``   — schedule two, cancel one, repeat (the heartbeat re-arm
  pattern; exercises lazy deletion and compaction).
* ``batch``   — schedule N events in batches of 100 (broadcast /
  cluster-start pattern; uses ``schedule_batch``).
* ``cluster`` — end-to-end ``SimCluster`` heartbeat run (n=40).
* ``broadcast`` — network data plane: a 60-node full mesh where nodes
  broadcast ``Query`` messages round-robin (neighbor resolution, loss
  branch, latency sampling, per-message trace accounting).
* ``trace-query`` — metrics read path: per-(observer, target) timeline
  queries over a synthetic suspicion trace, the access pattern of
  ``repro.metrics`` tabulation (events = queries executed).
* ``trace``   — trace plane end-to-end: record a drifting suspicion trace
  into the columnar store, then tabulate it with the pruned per-pair query
  mix (events = changes recorded + queries executed).  Its committed floor
  sits ~2x above what the pre-columnar object recorder managed on the
  same script, so losing the per-pair index trips the gate.
* ``cells``   — one end-to-end experiment cell: a time-free cluster with
  a crash, run to horizon, then the full QoS tabulation (detection,
  mistakes, message load) — the workload grid runs scale by.
* ``consensus`` — consensus workload plane: a detector-generic
  ``ConsensusHarness`` run deciding a self-clocked chain of CT-◇S
  instances over a time-free cluster, folded through the decision-ledger
  metrics — the workload the ``c1`` grid scales by.
* ``merge``   — protocol-core hot path: steady-state query merging on an
  n=32 membership where every received record is stale (Algorithm 1
  re-ships the full sets each round), exercising the batched
  ``SuspicionState.merge_query`` fast path (events = records merged).
* ``timed``   — timed-core hosting: one node of a 40-member full mesh
  (``TimedDriver`` + the ``heartbeat`` core on a live scheduler) is handed
  its 39 peers' beats once per period (events = beats delivered): the
  per-message cost every timer-based cell pays n² times a period.  Its
  committed floor sits above what the per-message deadline scan (now
  ``tests/reference_baselines.py``) sustained on the same box.

``repro bench --check`` compares a fresh run against the committed
per-workload kev/s floors (``benchmarks/bench_floors.json``) and fails
when any workload regresses below its floor — the CI regression gate.

``repro bench --mem`` re-runs each workload under :mod:`tracemalloc` and
records its peak traced allocation (``peak_kb``).
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from ..errors import ConfigurationError
from ..experiments.report import Table
from ..sim.engine import Scheduler
from ..sim.trace import TraceRecorder
from .artifacts import ARTIFACT_SCHEMA, artifact_name

__all__ = [
    "MICROBENCH_ID",
    "WORKLOADS",
    "DEFAULT_FLOORS_PATH",
    "run_microbench",
    "microbench_table",
    "write_microbench_artifact",
    "load_floors",
    "check_floors",
]

MICROBENCH_ID = "micro"

#: committed kev/s floors for the regression gate (repo-relative)
DEFAULT_FLOORS_PATH = "benchmarks/bench_floors.json"

FLOORS_SCHEMA = "repro-bench-floors/1"

#: artifact schema for microbenchmarks (timings, not deterministic values)
MICROBENCH_SCHEMA = ARTIFACT_SCHEMA + "+microbench"


def _timed(fn: Callable[[], None]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _noop() -> None:
    return None


def bench_chain(n: int) -> float:
    scheduler = Scheduler()
    remaining = [n]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            scheduler.schedule_after(0.001, tick)

    scheduler.schedule_at(0.0, tick)
    return _timed(scheduler.run)


def bench_fanout(n: int) -> float:
    scheduler = Scheduler()
    for i in range(n):
        scheduler.schedule_at(i * 0.001, _noop)
    return _timed(scheduler.run)


def bench_churn(n: int) -> float:
    scheduler = Scheduler()
    remaining = [n]

    def rearm() -> None:
        if remaining[0] <= 0:
            return
        remaining[0] -= 1
        doomed = scheduler.schedule_after(10.0, _noop)
        scheduler.schedule_after(0.001, rearm)
        doomed.cancel()

    scheduler.schedule_at(0.0, rearm)
    return _timed(scheduler.run)


def bench_batch(n: int) -> float:
    scheduler = Scheduler()
    batch_size = 100

    def fill() -> None:
        base = scheduler.now
        scheduler.schedule_batch(
            [(base + i * 0.001, _noop, ()) for i in range(batch_size)]
        )

    for round_index in range(n // batch_size):
        scheduler.schedule_at(round_index * 1.0, fill)
    return _timed(scheduler.run)


def bench_cluster(n: int) -> float:
    from ..detectors import sim_driver_factory
    from ..sim.cluster import SimCluster

    horizon = max(5.0, n / 10_000)
    cluster = SimCluster(
        n=40,
        driver_factory=sim_driver_factory("heartbeat", 0, period=0.5, timeout=1.5),
        seed=7,
        start_stagger=0.5,
    )
    elapsed = _timed(lambda: cluster.run(until=horizon))
    # Normalise to events for the kev/s report.
    bench_cluster.events = cluster.scheduler.events_processed  # type: ignore[attr-defined]
    return elapsed


def bench_broadcast(n: int) -> float:
    """Data-plane fan-out: Query broadcasts round-robin on a 60-node mesh."""
    from ..core.messages import Query
    from ..sim.latency import ExponentialLatency
    from ..sim.network import SimNetwork
    from ..sim.rng import RngStreams
    from ..sim.topology import full_mesh

    size = 60
    scheduler = Scheduler()
    network = SimNetwork(
        scheduler,
        full_mesh(range(1, size + 1)),
        ExponentialLatency(0.001),
        RngStreams(11),
    )

    def sink(src, message) -> None:
        return None

    for pid in range(1, size + 1):
        network.register(pid, sink)
    query = Query(sender=1, round_id=0, suspected=(), mistakes=())
    remaining = [max(1, n // size)]

    def step() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            network.broadcast(1 + remaining[0] % size, query)
            scheduler.schedule_after(0.01, step)

    scheduler.schedule_at(0.0, step)
    elapsed = _timed(scheduler.run)
    bench_broadcast.events = scheduler.events_processed  # type: ignore[attr-defined]
    return elapsed


def bench_trace_query(n: int) -> float:
    """Metrics read path: per-pair timeline queries over a synthetic trace.

    Builds a time-ordered suspicion trace (40 observers, ``n / 1000``
    changes each, ≥ 50) and then issues the exact query mix metrics
    tabulation issues: ``first_suspicion_time`` / ``permanent_suspicion_time``
    / ``suspicion_intervals`` per (observer, target) pair, plus sampled
    ``suspects_at`` and ``false_suspicion_count_at``.  Reported events are
    the queries executed, so kev/s = thousand queries per second.
    """
    import random as _random

    observers = 40
    per_observer = max(50, n // 1000)
    rng = _random.Random(5)
    trace = TraceRecorder()
    ids = list(range(1, observers + 1))
    current: dict[int, frozenset[int]] = {pid: frozenset() for pid in ids}
    now = 0.0
    for _ in range(per_observer):
        for observer in ids:
            now += rng.random() * 0.01
            after = frozenset(rng.sample(ids, rng.randrange(0, 4)))
            trace.record_suspicion_change(now, observer, current[observer], after)
            current[observer] = after
    horizon = now + 1.0
    sample_times = [horizon * i / 25.0 for i in range(25)]
    queries = 0

    def sweep() -> None:
        nonlocal queries
        for observer in ids:
            for target in ids:
                if observer == target:
                    continue
                trace.first_suspicion_time(observer, target)
                trace.permanent_suspicion_time(observer, target)
                trace.suspicion_intervals(observer, target, horizon=horizon)
                queries += 3
            for t in sample_times:
                trace.suspects_at(observer, t)
                queries += 1
        for t in sample_times:
            trace.false_suspicion_count_at(t, frozenset())
            queries += 1

    elapsed = _timed(sweep)
    bench_trace_query.events = queries  # type: ignore[attr-defined]
    return elapsed


def bench_trace(n: int) -> float:
    """Trace plane tabulation at large-n shape: the QoS metrics read path.

    Records (untimed) an interleaved trace — 96 observers whose drifting
    suspect sets stay inside a 16-process neighborhood, the large-n
    partial-topology regime the columnar store exists for — then times the
    tabulation passes the QoS metrics stack runs: a detection-style pass
    (``first_suspicion_time`` / ``permanent_suspicion_time`` per
    (observer, victim), *unpruned* — most observers never suspected a given
    victim, the case the per-pair transition index turns into an O(1) miss
    where a list-of-objects store scans the observer's whole timeline), a
    mistake/accuracy-style pass (``suspicion_intervals`` twice plus
    ``permanent_suspicion_time`` for the ``targets_of``-pruned pairs with
    history), and time-increasing ``suspects_at`` /
    ``false_suspicion_count_at`` sweeps.  Events are queries executed.  The
    ``--mem`` pass covers the recording too; ``tests/unit/test_microbench.py``
    runs this script on the object-store reference as well and holds the
    columnar store to a third of its peak.
    """
    import random as _random

    observers = 96
    per_observer = max(100, n // 2000)
    rng = _random.Random(17)
    ids = [f"n{i}" for i in range(observers)]
    trace = TraceRecorder()
    ops = 0

    neighborhood = 16
    pools = {
        pid: [ids[(i + k) % observers] for k in range(1, neighborhood + 1)]
        for i, pid in enumerate(ids)
    }
    current: dict[str, frozenset[str]] = {pid: frozenset() for pid in ids}
    now = 0.0
    for _ in range(per_observer):
        for observer in ids:
            now += rng.random() * 0.01
            cur = current[observer]
            nxt = set(cur)
            if nxt and (rng.random() >= 0.65 or len(nxt) >= neighborhood - 4):
                nxt.discard(min(nxt))
            else:
                nxt.add(rng.choice(pools[observer]))
            after = frozenset(nxt)
            trace.record_suspicion_change(now, observer, cur, after)
            current[observer] = after
    horizon = now + 1.0

    def tabulate() -> None:
        nonlocal ops
        for observer in ids:
            for victim in ids:
                if victim == observer:
                    continue
                trace.first_suspicion_time(observer, victim)
                trace.permanent_suspicion_time(observer, victim)
                ops += 2
            for target in trace.targets_of(observer):
                trace.suspicion_intervals(observer, target, horizon=horizon)
                trace.suspicion_intervals(observer, target, horizon=horizon)
                trace.permanent_suspicion_time(observer, target)
                ops += 3
            for i in range(5):
                trace.suspects_at(observer, horizon * i / 5.0)
                ops += 1
        for i in range(25):
            trace.false_suspicion_count_at(horizon * i / 25.0, frozenset())
            ops += 1

    elapsed = _timed(tabulate)
    bench_trace.events = ops  # type: ignore[attr-defined]
    return elapsed


def bench_cells(n: int) -> float:
    """One end-to-end experiment cell: run a cluster, then tabulate QoS."""
    from ..detectors import sim_driver_factory
    from ..metrics import detection_stats, message_load, mistake_stats
    from ..sim.cluster import SimCluster
    from ..sim.faults import CrashFault, FaultPlan

    horizon = max(5.0, n / 15_000)
    victim = 30
    plan = FaultPlan.of(crashes=[CrashFault(victim, horizon / 3.0)])
    cluster = SimCluster(
        n=30,
        driver_factory=sim_driver_factory("time-free", 6, grace=0.5),
        seed=13,
        fault_plan=plan,
        start_stagger=0.5,
    )

    def cell() -> None:
        cluster.run(until=horizon)
        detection_stats(cluster.trace, plan, cluster.membership, horizon=horizon)
        mistake_stats(cluster.trace, plan, cluster.correct_processes(), horizon=horizon)
        message_load(cluster.trace, horizon=horizon, n=30)

    elapsed = _timed(cell)
    bench_cells.events = cluster.scheduler.events_processed  # type: ignore[attr-defined]
    return elapsed


def bench_consensus(n: int) -> float:
    """Consensus workload plane end-to-end: a multi-instance CT sequence.

    Runs the detector-generic :class:`~repro.consensus.sim_runner.
    ConsensusHarness` — an n=16 time-free cluster deciding a self-clocked
    chain of CT-◇S instances (each decision proposes the next) — then folds
    the decision ledger through :func:`~repro.metrics.consensus_stats` and
    the ``"consensus.instance"`` entry of
    :func:`~repro.metrics.message_load`, the read path the ``c1``
    grid scales by.  Reported events are scheduler events processed, so the
    number covers ballot fan-out, envelope routing, oracle queries and the
    decision-ledger bookkeeping together.
    """
    from ..consensus import ConsensusHarness
    from ..experiments.scenarios import Scenario
    from ..metrics import consensus_stats, message_load
    from ..sim.latency import LogNormalLatency

    size = 16
    horizon = max(10.0, n / 12_000)
    scenario = Scenario(
        detector="time-free",
        n=size,
        f=5,
        latency=LogNormalLatency(median=0.001, sigma=0.5),
        seed=13,
        start_stagger=0.0,
        horizon=horizon,
    )
    harness = ConsensusHarness(
        scenario,
        protocol="ct",
        instances=max(2, int(horizon // 2)),
        propose_at=0.5,
        instance_gap=2.0,
    )

    def run() -> None:
        result = harness.run()
        consensus_stats(result)
        message_load(harness.cluster.trace, horizon=horizon, n=size).get(
            "consensus.instance", 0.0
        )

    elapsed = _timed(run)
    bench_consensus.events = harness.cluster.scheduler.events_processed  # type: ignore[attr-defined]
    return elapsed


def bench_merge(n: int) -> float:
    """Protocol-core hot path: steady-state query merging, all records stale.

    Builds one n=32 time-free detector whose ``suspected``/``mistake`` sets
    are dense (every other member has a record), then replays queries from
    all 31 peers carrying exactly those sets — the steady state of
    Algorithm 1, where every merged record is stale.  Reported events are
    the records merged, so kev/s = thousand records per second.  This is
    the workload the batched ``merge_query`` fast path exists for; its
    committed floor sits above the per-record implementation's speed, so
    reverting the batched path trips the ``bench-gate`` CI job.
    """
    from ..core.messages import Query
    from ..core.protocol import DetectorConfig, TimeFreeDetector

    size = 32
    members = frozenset(range(1, size + 1))
    detector = TimeFreeDetector(DetectorConfig.for_process(1, members, f=8))
    state = detector.state
    for pid in range(2, size // 2 + 2):
        state.suspected.add(pid, 5)
    for pid in range(size // 2 + 2, size + 1):
        state.mistakes.add(pid, 5)
    state.counter = 10
    suspected = state.suspected.snapshot()
    mistakes = state.mistakes.snapshot()
    queries = [
        Query(sender=pid, round_id=1, suspected=suspected, mistakes=mistakes)
        for pid in range(2, size + 1)
    ]
    records_per_pass = len(queries) * (len(suspected) + len(mistakes))
    iters = max(1, n // records_per_pass)

    def sweep() -> None:
        on_query = detector.on_query
        for _ in range(iters):
            for query in queries:
                on_query(query)

    elapsed = _timed(sweep)
    bench_merge.events = iters * records_per_pass  # type: ignore[attr-defined]
    return elapsed


def bench_timed(n: int) -> float:
    """Timed-core hosting: what one delivered heartbeat costs its host.

    One node of a 40-member full mesh is hosted for real — ``SimProcess``,
    ``TimedDriver`` and the ``heartbeat`` core on a live scheduler — on a
    topology of its own, so its beats go nowhere; the loop plays the 39
    peers, handing the driver each one's beat once per period and letting
    the scheduler fire the node's wake-ups in between.  Each delivery is
    the whole hosting path: suspect-set snapshot, core, ``next_wakeup()``,
    re-arm, comparison.  Reported events are beats delivered.  With the
    core's deadline heap this is O(log n) per beat; the scan it replaced
    read all 39 deadlines per beat, and the committed floor sits above
    what that sustained, so reverting the index trips ``bench-gate``.
    """
    from ..baselines.heartbeat import Heartbeat, HeartbeatDetector
    from ..sim.latency import ConstantLatency
    from ..sim.network import SimNetwork
    from ..sim.node import SimProcess, TimedDriver
    from ..sim.rng import RngStreams
    from ..sim.topology import full_mesh

    size, period = 40, 0.5
    scheduler = Scheduler()
    trace = TraceRecorder()
    network = SimNetwork(
        scheduler, full_mesh([1]), ConstantLatency(0.001), RngStreams(3), trace=trace
    )
    process = SimProcess(1, scheduler, network, trace)
    core = HeartbeatDetector(
        1, frozenset(range(1, size + 1)), period=period, timeout=3 * period
    )
    driver = TimedDriver(process, core)
    process.bind(driver)
    process.start()
    peers = range(2, size + 1)
    periods = max(1, n // len(peers))

    def run() -> None:
        deliver = driver.on_message
        for seq in range(1, periods + 1):
            scheduler.run(until=seq * period)  # the node's own beat
            for peer in peers:
                deliver(peer, Heartbeat(sender=peer, seq=seq))

    elapsed = _timed(run)
    bench_timed.events = periods * len(peers)  # type: ignore[attr-defined]
    return elapsed


WORKLOADS: dict[str, Callable[[int], float]] = {
    "chain": bench_chain,
    "fanout": bench_fanout,
    "churn": bench_churn,
    "batch": bench_batch,
    "cluster": bench_cluster,
    "broadcast": bench_broadcast,
    "trace-query": bench_trace_query,
    "trace": bench_trace,
    "cells": bench_cells,
    "consensus": bench_consensus,
    "merge": bench_merge,
    "timed": bench_timed,
}


def _peak_kb(fn: Callable[[int], float], events: int) -> float:
    """Peak traced allocation of one workload run, in KiB."""
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        fn(events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024


def run_microbench(
    events: int = 200_000, only: Iterable[str] = (), mem: bool = False
) -> dict[str, Any]:
    """Run the workloads; returns the ``BENCH_MICRO.json`` payload.

    With ``mem=True`` each workload runs a second time under
    :mod:`tracemalloc` (timings come from the first, uninstrumented run) and
    its cell gains ``peak_kb``.
    """
    wanted = list(only) or list(WORKLOADS)
    unknown = sorted(set(wanted) - set(WORKLOADS))
    if unknown:
        raise ConfigurationError(
            f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}"
        )
    cells = []
    for name in wanted:
        fn = WORKLOADS[name]
        # Measurement protocol: collect leftover garbage from previous
        # workloads, then keep the cyclic collector out of the timed
        # section — GC pauses landing inside a run were the dominant
        # run-to-run variance (±40% on `cells`), drowning real regressions.
        # The caller's GC state is restored, not assumed.
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            elapsed = fn(events)
        finally:
            if gc_was_enabled:
                gc.enable()
        processed = getattr(fn, "events", events)
        value: dict[str, Any] = {
            "events": processed,
            "seconds": round(elapsed, 6),
            "kev_per_s": round(processed / elapsed / 1000, 1),
        }
        if mem:
            value["peak_kb"] = round(_peak_kb(fn, events), 1)
        cells.append({"coords": {"workload": name}, "value": value})
    payload = {
        "schema": MICROBENCH_SCHEMA,
        "experiment": MICROBENCH_ID,
        "title": "sim.engine scheduler hot-path microbenchmarks",
        "params": {"events": events, "workloads": wanted, "mem": mem},
        "cells": cells,
    }
    table = microbench_table(payload)
    payload["tables"] = [
        {
            "title": table.title,
            "headers": list(table.headers),
            "rows": [list(row) for row in table.rows],
            "notes": list(table.notes),
        }
    ]
    return payload


def microbench_table(payload: dict[str, Any]) -> Table:
    """Render a microbench payload as a report table."""
    with_mem = any("peak_kb" in cell["value"] for cell in payload["cells"])
    headers = ["workload", "events", "seconds", "kev/s"]
    if with_mem:
        headers.append("peak KiB")
    table = Table(title=payload["title"], headers=headers, precision=3)
    for cell in payload["cells"]:
        value = cell["value"]
        row = [
            cell["coords"]["workload"],
            value["events"],
            value["seconds"],
            value["kev_per_s"],
        ]
        if with_mem:
            row.append(value.get("peak_kb", "-"))
        table.add_row(*row)
    table.add_note("timings are machine-dependent; artifact is for tracking, not identity")
    return table


def load_floors(path: str | Path = DEFAULT_FLOORS_PATH) -> dict[str, float]:
    """Read the committed per-workload kev/s floors."""
    floors_path = Path(path)
    try:
        payload = json.loads(floors_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"floors file not found: {floors_path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed floors file {floors_path}: {exc}") from exc
    if payload.get("schema") != FLOORS_SCHEMA:
        raise ConfigurationError(
            f"{floors_path} has schema {payload.get('schema')!r}, "
            f"expected {FLOORS_SCHEMA!r}"
        )
    floors = payload.get("floors_kev_per_s")
    if not isinstance(floors, dict) or not floors:
        raise ConfigurationError(f"{floors_path} has no floors_kev_per_s mapping")
    return {str(name): float(value) for name, value in floors.items()}


def check_floors(
    payload: dict[str, Any], floors: dict[str, float]
) -> list[str]:
    """Compare a microbench payload against kev/s floors.

    Returns human-readable failure lines, one per workload below its floor
    (empty = gate passed).  Workloads without a committed floor are
    ignored — adding a workload must not break the gate until its floor is
    recorded — but a floor naming an unknown/unrun workload fails loudly,
    so a renamed workload cannot silently lose its gate.
    """
    measured = {
        cell["coords"]["workload"]: cell["value"]["kev_per_s"]
        for cell in payload["cells"]
    }
    failures = []
    for name, floor in sorted(floors.items()):
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: floor {floor} kev/s but workload was not run")
        elif got < floor:
            failures.append(
                f"{name}: {got} kev/s below the committed floor of {floor} kev/s"
            )
    return failures


def write_microbench_artifact(out_dir: str | Path, payload: dict[str, Any]) -> Path:
    """Write ``BENCH_MICRO.json`` in the canonical artifact rendering."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / artifact_name(MICROBENCH_ID)
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path
