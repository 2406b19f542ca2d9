"""Where the tracer's spans sit, and how they become per-layer metrics.

:func:`install` puts timing shims around the *public* entry points of each
layer of ``repro`` — class-level for methods, everywhere-bound for module
functions — and :func:`layer_metrics` folds the resulting aggregates into
the ``per_layer`` metrics ``BENCHMARK.json`` lists.  Nothing under ``src/``
is edited; :meth:`Tracer.uninstall` restores every attribute.

Two boundaries are only reachable through a private name, so the public
*registration* call is wrapped instead and the callable passed through it is
traced: the message handler a service installs with
``Transport.set_handler``, and the timer callbacks drivers hand to
``Scheduler.schedule_at`` / ``schedule_after``.

A span is named ``"<layer>:<operation>"``.  The layers below partition a
traced run: every nanosecond of the root span is the self time of exactly
one of them (``bench`` is the benchmark's own code).
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Callable

from .tracer import Tracer

__all__ = ["install", "layer_metrics", "layer_self_seconds", "PARTITION"]

EXPERIMENT_IDS = (
    "t1", "t2", "t3", "t4", "f1", "f2", "f3", "e1", "e2", "a1", "a2", "q1", "c1",
)

#: metric -> layer whose self time it reports
LAYER_SELF = {
    "bench.self_s": "bench",
    "harness.overhead_s": "harness",
    "experiments.self_s": "experiments",
    "sim.engine.self_s": "sim.engine",
    "sim.network.self_s": "sim.network",
    "sim.latency.self_s": "sim.latency",
    "sim.node.self_s": "sim.node",
    "sim.cluster.build_s": "sim.cluster",
    "sim.topology.build_s": "sim.topology",
    "core.self_s": "core",
    "partial.self_s": "partial",
    "baselines.self_s": "baselines",
    "detectors.facade_s": "detectors",
    "consensus.self_s": "consensus",
    "metrics.self_s": "metrics",
    "runtime.service.self_s": "runtime.service",
    "runtime.memory.self_s": "runtime.memory",
    "runtime.udp.self_s": "runtime.udp",
    "runtime.loop_other_s": "runtime.loop",
}

#: the metrics that partition a traced run: they sum to its wall-clock (plus
#: the busy time of worker processes, which overlap it).  The trace store and
#: the codec have no traced children, so their span totals are self times.
PARTITION = (
    *LAYER_SELF,
    "sim.trace.record_s", "sim.trace.query_s",
    "core.messages.encode_s", "core.messages.decode_s",
)

_LAYERS = sorted(
    [*LAYER_SELF.values(), "sim.trace", "core.messages"], key=len, reverse=True
)

#: per-layer values only a workload can know; zero where it does not apply
_WORKLOAD_SUPPLIED = (
    "trace_overhead_ratio", "harness.serial_wall_s", "harness.pool2_efficiency",
    "harness.steal2_efficiency", "runtime.service.rounds", "runtime.service.retries",
    "runtime.service.false_suspects",
)

_DRIVER_EVENTS = (
    "on_start", "on_crash", "on_detach", "on_attach", "on_recover", "on_leave",
)
_QUERY_CORE = {
    "start_round": "round", "finish_round": "round", "abort_round": "round",
    "on_query": "on_query", "on_response": "on_response",
}
_TIMED_CORE = {"start": "start", "on_message": "on_message", "on_wakeup": "on_wakeup"}


def layer_of(module_name: str) -> str:
    """The layer a ``repro`` module belongs to (longest matching prefix)."""
    name = module_name.removeprefix("repro.")
    for layer in _LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    head = name.split(".", 1)[0]
    return {"sim": "sim.cluster", "runtime": "runtime.service"}.get(head, head)


def _resolve(path: str) -> Any:
    module_name, _, attr = path.partition(":")
    target = importlib.import_module(module_name)
    for part in attr.split(".") if attr else ():
        target = getattr(target, part)
    return target


def install(tracer: Tracer) -> None:
    """Install every boundary; must run before the workload builds anything."""
    from repro.experiments.api import all_experiments

    specs = all_experiments()  # imports every experiment module first
    for module in ("repro.harness.cli", "repro.runtime", "repro.consensus",
                   "repro.metrics", "repro.partial"):
        importlib.import_module(module)

    methods = tracer.patch_methods
    function = tracer.patch_function

    # -- harness ----------------------------------------------------------
    function(_resolve("repro.harness.cli:main"), "harness:cli", coarse=True)
    function(_resolve("repro.harness.runner:run_grid"), "harness:run_grid",
             coarse=True, detail=lambda spec, *a, **k: spec.exp_id)
    function(_resolve("repro.harness.grid:run_grid_worker"), "harness:run_grid_worker",
             coarse=True, detail=lambda spec, *a, **k: spec.exp_id)
    function(_resolve("repro.harness.spec:canonical_json"), "harness:canonical_json")
    function(_resolve("repro.harness.artifacts:write_artifact"), "harness:artifact_write",
             coarse=True)
    function(_resolve("repro.harness.streaming:write_artifact_streaming"),
             "harness:artifact_write", coarse=True)
    function(_resolve("repro.harness.grid:ensure_manifest"), "harness:manifest")
    function(_resolve("repro.harness.grid:assemble_artifact"), "harness:assemble",
             coarse=True)
    function(_resolve("repro.harness.lease:open_ledger"), "harness:lease")
    cache = _resolve("repro.harness.cache:ResultCache")
    methods(cache, ["get"], "harness:cache_get", coarse=True,
            tally=("harness.cache_hits", lambda args, value: value is not None))
    methods(cache, ["put"], "harness:cache_put", coarse=True)
    for ledger in ("SqliteLedger", "FileLedger"):
        methods(_resolve(f"repro.harness.lease:{ledger}"),
                ["claim", "renew", "complete", "release", "reap", "counts",
                 "owners", "done_indices"], "harness:lease")
    for exp_id, spec in specs.items():
        # The pool pickles run_cell by qualified name, so the module binding
        # must be the shim too; patch_function returns the one shim for both.
        shim = function(spec.run_cell, f"experiments:run_cell.{exp_id}", coarse=True)
        tracer.patch_attr(spec, "run_cell", lambda _orig, shim=shim: shim)
        shim = function(spec.tabulate, "harness:tabulate", coarse=True)
        tracer.patch_attr(spec, "tabulate", lambda _orig, shim=shim: shim)

    # -- simulator --------------------------------------------------------
    scheduler = _resolve("repro.sim.engine:Scheduler")
    methods(scheduler, ["run"], "sim.engine:run",
            tally=("sim.engine.events", lambda args, processed: processed))
    methods(scheduler, ["schedule_fire", "schedule_batch"], "sim.engine:schedule")
    for name in ("schedule_at", "schedule_after"):
        tracer.patch_attr(scheduler, name, lambda fn: _trace_timers(tracer, fn))
    network = _resolve("repro.sim.network:SimNetwork")
    methods(network, ["send"], "sim.network:send",
            tally=("sim.network.messages", lambda args, sent: int(sent)))
    methods(network, ["broadcast"], "sim.network:broadcast",
            tally=("sim.network.messages", lambda args, sent: sent))
    latency = _resolve("repro.sim.latency:LatencyModel")
    for cls in _subclasses_in("repro.sim.latency", latency):
        methods(cls, ["sample", "sample_at", "sample_many"], "sim.latency:sample")
    for driver in ("QueryResponseDriver", "TimedDriver"):
        cls = _resolve(f"repro.sim.node:{driver}")
        methods(cls, ["on_message"], "sim.node:handler")
        methods(cls, _DRIVER_EVENTS, "sim.node:lifecycle")
    methods(_resolve("repro.sim.node:SimProcess"),
            ["start", "crash", "detach", "attach", "recover", "join", "leave"],
            "sim.node:lifecycle")
    recorder = _resolve("repro.sim.trace:TraceRecorder")
    methods(recorder, ["record_suspicion_change"], "sim.trace:record",
            tally=("sim.trace.changes", lambda args, change: change is not None))
    methods(recorder, ["record_round"], "sim.trace:record",
            tally=("sim.node.rounds", lambda args, _: 1))
    methods(recorder, ["record_crash", "record_mobility", "record_recovery",
                       "record_membership"], "sim.trace:record")
    methods(recorder, ["record_drop"], "sim.trace:record",
            tally=("sim.network.dropped", lambda args, _: 1))
    methods(recorder, ["record_drops"], "sim.trace:record",
            tally=("sim.network.dropped", lambda args, _: args[1]))
    methods(recorder, ["changes_of", "suspects_at", "first_suspicion_time",
                       "permanent_suspicion_time", "suspicion_intervals",
                       "false_suspicion_count_at", "targets_of", "rounds_of",
                       "crash_time_of", "crashed_processes"], "sim.trace:query")
    for view in ("suspicion_changes", "rounds"):
        tracer.patch_attr(recorder, view, lambda prop: property(
            tracer.wrap("sim.trace:query", prop.fget), prop.fset))
    cluster = _resolve("repro.sim.cluster:SimCluster")
    methods(cluster, ["__init__"], "sim.cluster:build", coarse=True)
    methods(cluster, ["run"], "sim.cluster:run", coarse=True)
    for builder in ("full_mesh", "ring", "grid", "star", "random_geometric",
                    "manet_topology"):
        function(_resolve(f"repro.sim.topology:{builder}"), "sim.topology:build",
                 coarse=True)
    for check in ("validate_f_covering", "validate_f_covering_fast",
                  "validate_mobility_scenario"):
        function(_resolve(f"repro.partial.covering:{check}"), "sim.topology:validate",
                 coarse=True)

    # -- protocol cores (shared by the simulator and the asyncio runtime) --
    for path, layer in (("repro.core.protocol:TimeFreeDetector", "core"),
                        ("repro.partial.protocol:PartialTimeFreeDetector", "partial")):
        for attr, op in _QUERY_CORE.items():
            methods(_resolve(path), [attr], f"{layer}:{op}")
    methods(_resolve("repro.core.omega:OmegaElector"),
            ["observe_round", "payload", "consume"], "core:omega")
    for module in ("heartbeat", "gossip", "phi_accrual"):
        for cls in _classes_in(f"repro.baselines.{module}"):
            for attr, op in _TIMED_CORE.items():
                methods(cls, [attr], f"baselines:{op}")
    for attr, op in _TIMED_CORE.items():
        methods(_resolve("repro.detectors.facade:QueryRoundFacade"), [attr],
                "detectors:facade")
    methods(_resolve("repro.consensus.protocol:ChandraTouegConsensus"),
            ["propose", "on_message", "poke"], "consensus:participant")
    node = _resolve("repro.consensus.sim_runner:ConsensusNodeDriver")
    methods(node, ["on_message", *_DRIVER_EVENTS], "consensus:driver")
    harness = _resolve("repro.consensus.sim_runner:ConsensusHarness")
    methods(harness, ["__init__"], "consensus:build", coarse=True)
    methods(harness, ["run"], "consensus:run", coarse=True, tally=(
        "consensus.decisions",
        lambda args, result: sum(len(out.decisions) for out in result.instances),
    ))
    for module in ("repro.metrics.qos", "repro.metrics.consensus"):
        for fn in _public_functions(module):
            function(fn, "metrics:call")

    # -- asyncio runtime ----------------------------------------------------
    transport = _resolve("repro.runtime.transport:Transport")
    tracer.patch_attr(transport, "set_handler", lambda fn: (
        lambda self, handler: fn(self, tracer.wrap("runtime.service:handler", handler))
    ))
    methods(_resolve("repro.runtime.memory:MemoryHub"), ["submit"],
            "runtime.memory:submit")
    methods(_resolve("repro.runtime.udp:UdpTransport"), ["send"], "runtime.udp:send")
    function(_resolve("repro.core.messages:encode_message"), "core.messages:encode",
             tally=("core.messages.bytes", lambda args, data: len(data)))
    function(_resolve("repro.core.messages:decode_message"), "core.messages:decode")


def _trace_timers(tracer: Tracer, schedule: Callable) -> Callable:
    """``schedule_at``/``schedule_after`` that trace the callback they are given.

    A bound method of a ``repro`` class is traced at class level the first
    time it is seen (the call in flight keeps the unwrapped function; every
    later ``self._callback`` lookup finds the shim), so the per-timer cost is
    one dictionary probe.  Anything else — the consensus runner's lambdas —
    is wrapped per call.
    """
    timed = tracer.wrap("sim.engine:schedule", schedule)
    learned: set[Callable] = set()

    def traced_schedule(self, when, callback, *args):
        function = getattr(callback, "__func__", None)
        if function is None:
            module = getattr(callback, "__module__", None) or ""
            if module.startswith("repro"):
                callback = tracer.wrap(f"{layer_of(module)}:timer", callback)
        elif function not in learned:
            learned.add(function)
            owner = None if hasattr(function, "__wrapped__") else next(
                (cls for cls in type(callback.__self__).__mro__
                 if vars(cls).get(function.__name__) is function
                 and cls.__module__.startswith("repro")),
                None,
            )
            if owner is not None:
                tracer.patch_methods(
                    owner, [function.__name__], f"{layer_of(owner.__module__)}:timer"
                )
        return timed(self, when, callback, *args)

    return traced_schedule


def _classes_in(module_name: str) -> list[type]:
    module = importlib.import_module(module_name)
    return [
        value for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module_name
    ]


def _subclasses_in(module_name: str, base: type) -> list[type]:
    return [cls for cls in _classes_in(module_name) if issubclass(cls, base)]


def _public_functions(module_name: str) -> list[Callable]:
    module = importlib.import_module(module_name)
    return [
        value for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module_name
        and not name.startswith("_")
    ]


# ---------------------------------------------------------------------------
# aggregates -> metrics
# ---------------------------------------------------------------------------


def layer_self_seconds(snapshot: dict[str, Any]) -> dict[str, float]:
    """Self time per layer: each span's duration minus what its children cover."""
    self_ns: dict[str, int] = {}
    for row in snapshot["aggregates"]:
        layer = row["name"].split(":", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + row["total_ns"] - row["child_ns"]
    return {layer: ns / 1e9 for layer, ns in sorted(self_ns.items())}


def layer_metrics(
    snapshot: dict[str, Any], *, units: int, extras: dict[str, float]
) -> dict[str, float]:
    """Every ``per_layer`` metric, per traced unit of work.

    ``snapshot`` is :meth:`Tracer.snapshot` (worker processes already merged
    in); ``units`` is how many traced units it covers — times and counts are
    divided by it; ``extras`` are the values only the workload knows (serial
    reference wall, efficiencies, service counters, the overhead ratio).
    """
    self_s = layer_self_seconds(snapshot)
    total_ns: dict[str, int] = {}
    count: dict[str, int] = {}
    root_ns = 0
    for row in snapshot["aggregates"]:
        if not row["parent"]:
            root_ns += row["total_ns"]
        total_ns[row["name"]] = total_ns.get(row["name"], 0) + row["total_ns"]
        count[row["name"]] = count.get(row["name"], 0) + row["count"]
    tallies = snapshot["tallies"]

    def seconds(ns: float) -> float:
        return ns / 1e9 / units

    def span_s(name: str) -> float:
        return seconds(total_ns.get(name, 0))

    def calls(name: str) -> float:
        return count.get(name, 0) / units

    def tallied(name: str) -> float:
        return tallies.get(name, 0) / units

    out = {metric: self_s.get(layer, 0.0) / units for metric, layer in LAYER_SELF.items()}
    cell_spans = [name for name in count if name.startswith("experiments:run_cell.")]
    gets = calls("harness:cache_get")
    events = tallied("sim.engine.events")
    encodes = count.get("core.messages:encode", 0)
    window_messages = tallied("runtime.window_messages")
    out.update({
        "traced_wall_s": seconds(root_ns),
        "harness.cells": sum(calls(name) for name in cell_spans),
        "harness.cache_put_s": span_s("harness:cache_put"),
        "harness.cache_get_s": span_s("harness:cache_get"),
        "harness.cache_hits": tallied("harness.cache_hits"),
        "harness.cache_misses": gets - tallied("harness.cache_hits"),
        "harness.canonical_json_s": span_s("harness:canonical_json"),
        "harness.tabulate_s": span_s("harness:tabulate"),
        "harness.artifact_write_s": span_s("harness:artifact_write"),
        "harness.lease_s": span_s("harness:lease"),
        "harness.lease_ops": calls("harness:lease"),
        "harness.manifest_s": span_s("harness:manifest"),
        "harness.assemble_s": span_s("harness:assemble"),
        "sim.engine.events": events,
        "sim.engine.us_per_event": (
            span_s("sim.engine:run") * 1e6 / events if events else 0.0
        ),
        "sim.network.broadcasts": calls("sim.network:broadcast"),
        "sim.network.sends": calls("sim.network:send"),
        "sim.network.messages": tallied("sim.network.messages"),
        "sim.network.dropped": tallied("sim.network.dropped"),
        "sim.node.rounds": tallied("sim.node.rounds"),
        "sim.trace.record_s": span_s("sim.trace:record"),
        "sim.trace.changes": tallied("sim.trace.changes"),
        "sim.trace.query_s": span_s("sim.trace:query"),
        "sim.trace.queries": calls("sim.trace:query"),
        "core.calls": sum(calls(n) for n in count if n.startswith("core:")),
        "consensus.decisions": tallied("consensus.decisions"),
        "runtime.memory.messages": calls("runtime.memory:submit"),
        "runtime.udp.datagrams": calls("runtime.udp:send"),
        "core.messages.encode_s": span_s("core.messages:encode"),
        "core.messages.decode_s": span_s("core.messages:decode"),
        "core.messages.bytes_per_msg": (
            tallies.get("core.messages.bytes", 0) / encodes if encodes else 0.0
        ),
        "runtime.us_per_msg": (
            span_s("runtime.loop:window") * 1e6 / window_messages
            if window_messages else 0.0
        ),
    })
    for exp_id in EXPERIMENT_IDS:
        out[f"experiments.{exp_id}.wall_s"] = span_s(f"experiments:run_cell.{exp_id}")
    for name in _WORKLOAD_SUPPLIED:
        out[name] = extras.get(name, 0.0)
    return out
