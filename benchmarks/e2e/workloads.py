"""The six workloads.

Each workload is a class with three phases the child process times apart:

``setup()``
    what a user pays before the first result: imports, directories, and for
    the runtime workloads cluster construction, socket binding and warm-up;
``reference()``
    work the *checks* need but no metric times (``grid_dist2``'s serial run);
``measure()``
    the measured section — whole *units* of fixed work, repeated until
    ``--seconds`` is used up; every timing reported is the fastest unit.

A unit is small (1–3 s) on purpose: this benchmark runs on a shared two-core
sandbox that flips between two speeds every 10–30 s, and the fastest of many
short units spread over the run rejects the slow stretches one long run would
absorb.  Every unit draws its own seed from ``--seed``, so a run also samples
several inputs instead of inheriting the luck of one.

The program is driven through public entry points only:
``repro.harness.cli.main``, ``run_grid``, ``run_grid_worker`` (via the CLI),
``LocalCluster``, ``DetectorService`` and ``UdpTransport``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import io
import itertools
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from .checks import Tally, host_reference_s
from .tracer import Tracer

__all__ = ["Context", "WORKLOADS", "unit_seed"]

ROOT = Path(__file__).resolve().parents[2]

#: cached re-runs per cold pass; the first is discarded (it pays the page cache)
WARM_RUNS = 5
DETECT_TIMEOUT_S = 10.0


@dataclasses.dataclass
class Context:
    name: str
    seed: int
    seconds: float
    quick: bool
    trace: bool
    workdir: Path
    tally: Tally
    tracer: Tracer | None = None
    #: numbers and facts that belong beside the metrics (sample counts, the
    #: configured grace, where the traffic went)
    notes: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: per-layer values only the workload can know
    layer_extras: dict[str, float] = dataclasses.field(default_factory=dict)
    traced_units: int = 0
    #: readings of the host reference loop, taken all through the run
    host_samples: list[float] = dataclasses.field(default_factory=list)

    def sample_host(self) -> None:
        self.host_samples.append(host_reference_s())

    def start_tracing(self) -> Tracer:
        from .layers import install

        self.tracer = Tracer(self.name)
        install(self.tracer)
        return self.tracer


def unit_seed(seed: int, unit: int) -> int:
    return seed * 1000 + unit


def measure_units(ctx: Context, unit: Callable[[int, int], dict[str, Any]]) -> list[dict]:
    """Run ``unit(index, seed)`` until ``ctx.seconds`` is used up; returns the samples.

    Untraced: every unit has its own seed.  Traced: untraced units for a
    quarter of the time, then traced units until it is up, all on the *same*
    seed, so the overhead ratio compares identical work and the per-layer
    counts are exact; only the untraced units' samples are returned.
    """
    started = time.perf_counter()
    indices = itertools.count()

    def repeat(run: Callable[[int], None], seconds: float) -> list[float]:
        durations = []
        while True:
            began = time.perf_counter()
            run(next(indices))
            durations.append(time.perf_counter() - began)
            gc.collect()  # units are independent: none inherits another's garbage
            ctx.sample_host()
            spent = time.perf_counter() - started
            if ctx.quick or spent + statistics.median(durations) > seconds:
                return durations

    samples: list[dict] = []
    durations = repeat(
        lambda i: samples.append(unit(i, unit_seed(ctx.seed, 0 if ctx.trace else i))),
        ctx.seconds / 4 if ctx.trace else ctx.seconds,
    )
    if ctx.trace:
        tracer = ctx.start_tracing()

        def traced_unit(index: int) -> None:
            with tracer.span("bench:unit", str(index)):
                unit(index, unit_seed(ctx.seed, 0))

        try:
            traced = repeat(traced_unit, ctx.seconds)
        finally:
            tracer.uninstall()
        ctx.traced_units = len(traced)
        ctx.layer_extras["trace_overhead_ratio"] = min(traced) / min(durations)
    ctx.notes.update(units=len(samples), unit_samples=samples)
    return samples


def fastest(samples: list[dict], key: str) -> float:
    """The run's reading of a unit timing: the fastest unit.

    Interference on a shared host only ever slows a unit down, so the
    minimum is the steadiest estimate of what the code costs (the reasoning
    of :mod:`timeit`); on the sandbox this was built on it halved the
    run-to-run spread of the median.  All samples stay in ``result.json``.
    """
    return min(sample[key] for sample in samples)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """``repro.harness.cli.main`` with its stdout captured (it prints per grid)."""
    from repro.harness import cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


def _override_args(params: Any) -> list[str]:
    """``-p field=value`` for every field that differs from the default."""
    default = type(params)()
    args = []
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if field.name != "seed" and value != getattr(default, field.name):
            args += ["-p", f"{field.name}={json.dumps(value)}"]
    return args


_SUMMARY = re.compile(r"\[(\w+): (\d+) cells \((\d+) cached\)")


class _Workload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        import repro.harness  # noqa: F401  (the import is the set-up being timed)
        from repro.experiments.api import all_experiments

        self.specs = all_experiments()
        self.ctx.workdir.mkdir(parents=True, exist_ok=True)

    def reference(self) -> None:
        pass

    def measure(self) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def check_grid(self, exp_id: str, params: Any, values: list) -> None:
        """Every cell returned and the experiment's declared shapes hold."""
        from repro.experiments.api import check_shapes

        spec = self.specs[exp_id]
        tally = self.ctx.tally
        tally.check(len(values) == len(spec.grid(params)),
                    f"{exp_id}: {len(values)} cells returned, "
                    f"{len(spec.grid(params))} expected")
        violations = check_shapes(spec, params, values)
        tally.check(not violations, f"{exp_id}: declared shapes violated: {violations[:3]}")


# ---------------------------------------------------------------------------
# grid_cold
# ---------------------------------------------------------------------------


class GridCold(_Workload):
    """All 13 registered grids through the CLI: cold cache, then cached re-runs."""

    def setup(self) -> None:
        super().setup()
        from tests.goldens import smoke_params

        # The goldens' smoke sizing: every grid keeps its shape (all detector
        # families, faults, consensus, MANET topologies) in ~2 s per pass,
        # short enough to repeat the cold pass several times per run.
        self.params = smoke_params()

    def _pass(self, out: Path, seed: int, *, expect_cached: bool) -> float:
        started = time.perf_counter()
        outputs = []
        for exp_id, params in self.params.items():
            outputs.append(_run_cli(
                ["run", exp_id, "--quiet", "--out", str(out), "--workers", "1",
                 "--seed", str(seed), *_override_args(params)]
            ))
        elapsed = time.perf_counter() - started
        for exp_id, (code, text) in zip(self.params, outputs):
            match = _SUMMARY.search(text)
            cached_ok = match is not None and (
                (match.group(3) == match.group(2)) if expect_cached else match.group(3) == "0"
            )
            self.ctx.tally.check(
                code == 0 and cached_ok,
                f"{exp_id}: exit {code}, summary {text.strip()!r} "
                f"(expected {'all' if expect_cached else 'no'} cells cached)",
            )
        return elapsed

    def _unit(self, index: int, seed: int) -> dict[str, Any]:
        from repro.harness import artifact_name

        out = self.ctx.workdir / f"cold-{index}"
        cold_s = self._pass(out, seed, expect_cached=False)
        paths = {exp_id: out / artifact_name(exp_id) for exp_id in self.params}
        cold = {exp_id: path.read_bytes() for exp_id, path in paths.items()}
        for exp_id, params in self.params.items():
            cells = json.loads(cold[exp_id])["cells"]
            self.check_grid(exp_id, dataclasses.replace(params, seed=seed),
                            [cell["value"] for cell in cells])
        warm = []
        for rerun in range(1 if self.ctx.quick else WARM_RUNS + 1):
            elapsed = self._pass(out, seed, expect_cached=True)
            if rerun or self.ctx.quick:
                warm.append(elapsed)
            for exp_id, path in paths.items():
                self.ctx.tally.same_bytes(
                    f"warm artifact {path.name}", path.read_bytes(), cold[exp_id]
                )
        return {"cold_s": cold_s, "warm": warm}

    def measure(self) -> dict[str, float]:
        samples = measure_units(self.ctx, self._unit)
        warm = [t for sample in samples for t in sample["warm"]]
        self.ctx.notes.update(
            cells_per_pass=sum(len(self.specs[e].grid(p)) for e, p in self.params.items()),
            cold_passes=len(samples), warm_samples=len(warm),
        )
        self.ctx.notes.update(cold_median_s=statistics.median(s["cold_s"] for s in samples),
                              warm_median_ms=statistics.median(warm) * 1e3)
        return {"wall_s": fastest(samples, "cold_s"), "warm_wall_ms": min(warm) * 1e3}


# ---------------------------------------------------------------------------
# grid_dist2
# ---------------------------------------------------------------------------


class GridDist2(_Workload):
    """One q1 grid three ways: serial, a two-process pool, two ``--steal`` workers."""

    def setup(self) -> None:
        super().setup()
        from repro.experiments.q1_qos_comparison import Q1Params
        from tests.goldens import smoke_params

        # One seed for every unit: the serial reference below is what pool
        # and steal artifacts are compared with, and it runs once.
        self.seed = unit_seed(self.ctx.seed, 0)
        params = smoke_params()["q1"] if self.ctx.quick else Q1Params(trials=2)
        self.argv = ["run", "q1", "--quiet", "--seed", str(self.seed),
                     *_override_args(params)]

    def reference(self) -> None:
        from repro.harness import artifact_name

        out = self.ctx.workdir / "serial"
        started = time.perf_counter()
        code, _ = _run_cli([*self.argv, "--workers", "1", "--out", str(out)])
        self.serial_s = time.perf_counter() - started
        self.artifact = artifact_name("q1")
        self.ctx.tally.check(code == 0, f"serial reference exited {code}")
        self.serial = (out / self.artifact).read_bytes()
        self.ctx.layer_extras["harness.serial_wall_s"] = self.serial_s

    def _merge_worker_traces(self, directory: Path) -> None:
        """Fold in what traced pool / steal workers wrote on their way out."""
        if self.ctx.tracer is not None:
            for path in sorted(directory.glob("agg-*.json")):
                self.ctx.tracer.merge(json.loads(path.read_text(encoding="utf-8")))

    def _steal(self, index: int) -> float:
        """Launch two ``--steal`` workers; time until the artifact is on disk.

        Whichever worker completes the last cell assembles the artifact at
        once; the other may sleep out a 0.5 s poll before it notices.  A user
        waits for the file, so the clock stops there, and the stragglers are
        reaped outside the timed section.
        """
        shared = self.ctx.workdir / f"shared-{index}"
        out = self.ctx.workdir / f"steal-{index}"
        command = [sys.executable, "-m", "benchmarks.e2e.steal_worker"]
        tracer = self.ctx.tracer
        if tracer is not None:
            command += ["--trace-dir", str(shared / "trace"), "--workload", self.ctx.name]
        command += [*self.argv, "--workers-dir", str(shared), "--steal", "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
        artifact = out / self.artifact
        started = time.perf_counter()
        workers = [
            subprocess.Popen([*command, "--worker-name", f"w{k}"], env=env, cwd=ROOT,
                             stdout=subprocess.DEVNULL)
            for k in (1, 2)
        ]
        try:
            while not artifact.exists() and any(w.poll() is None for w in workers):
                time.sleep(0.002)
            elapsed = time.perf_counter() - started
        finally:
            for worker in workers:
                try:
                    worker.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()
        self.ctx.tally.check(all(w.returncode == 0 for w in workers),
                             f"steal workers exited {[w.returncode for w in workers]}")
        self._merge_worker_traces(shared / "trace")
        return elapsed

    def _unit(self, index: int, seed: int) -> dict[str, Any]:
        out = self.ctx.workdir / f"pool-{index}"
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.dump_forked_children_to(out / "trace")
        started = time.perf_counter()
        code, _ = _run_cli([*self.argv, "--workers", "2", "--out", str(out)])
        pool_s = time.perf_counter() - started
        self._merge_worker_traces(out / "trace")
        self.ctx.tally.check(code == 0, f"pool run exited {code}")
        self.ctx.tally.same_bytes("pool artifact", (out / self.artifact).read_bytes(),
                                  self.serial)
        steal_s = self._steal(index)
        steal_artifact = self.ctx.workdir / f"steal-{index}" / self.artifact
        self.ctx.tally.same_bytes(
            "steal artifact",
            steal_artifact.read_bytes() if steal_artifact.exists() else b"", self.serial,
        )
        return {"pool_s": pool_s, "steal_s": steal_s}

    def measure(self) -> dict[str, float]:
        samples = measure_units(self.ctx, self._unit)
        pool_s, steal_s = fastest(samples, "pool_s"), fastest(samples, "steal_s")
        self.ctx.notes.update(serial_wall_s=self.serial_s,
                              cells=len(json.loads(self.serial)["cells"]))
        self.ctx.layer_extras.update({
            "harness.pool2_efficiency": self.serial_s / (2 * pool_s),
            "harness.steal2_efficiency": self.serial_s / (2 * steal_s),
        })
        return {"pool2_wall_s": pool_s, "steal2_wall_s": steal_s}


# ---------------------------------------------------------------------------
# sim_dense / sim_large_n
# ---------------------------------------------------------------------------


class SimDense(_Workload):
    """Full-mesh n=40 q1 (all six families), then the full-size c1 consensus grid."""

    def _params(self, seed: int) -> dict[str, Any]:
        from repro.experiments.c1_consensus_qos import C1Params
        from repro.experiments.q1_qos_comparison import Q1Params
        from tests.goldens import smoke_params

        if self.ctx.quick:
            smoke = smoke_params()
            sized = {"q1": smoke["q1"], "c1": smoke["c1"]}
        else:
            sized = {
                # Q1Params.full()'s cluster (n=40, f=8) on a horizon cut from
                # 80 s to 15 s: one cell per family still sees the crash.
                "q1": dataclasses.replace(Q1Params.full(), trials=1, horizon=15.0,
                                          crash_at=6.0),
                "c1": dataclasses.replace(C1Params.full(),
                                          faults=("coordcrash", "partition")),
            }
        return {exp: dataclasses.replace(p, seed=seed) for exp, p in sized.items()}

    def _unit(self, index: int, seed: int) -> dict[str, Any]:
        from repro.harness import run_grid

        timings = {}
        for exp_id, params in self._params(seed).items():
            started = time.perf_counter()
            result = run_grid(self.specs[exp_id], params, workers=1)
            timings[exp_id] = time.perf_counter() - started
            self.check_grid(exp_id, params, result.values)
            if exp_id == "q1" and self.ctx.tracer and "q1_layers_s" not in self.ctx.notes:
                # Nothing but q1 has run under the shims yet: its own breakdown.
                from .layers import layer_self_seconds

                self.ctx.notes["q1_layers_s"] = layer_self_seconds(
                    self.ctx.tracer.snapshot())
        return {"wall_s": sum(timings.values()), **timings}

    def measure(self) -> dict[str, float]:
        samples = measure_units(self.ctx, self._unit)
        self.ctx.notes.update(q1_wall_s=fastest(samples, "q1"),
                              c1_wall_s=fastest(samples, "c1"))
        return {"wall_s": fastest(samples, "wall_s")}


class SimLargeN(_Workload):
    """One e1 cell on a sparse 800-node MANET with the partial detector."""

    def _params(self, seed: int) -> Any:
        from repro.experiments.e1_density import E1Params
        from tests.goldens import smoke_params

        if self.ctx.quick:
            base = smoke_params()["e1"]
        else:
            # E1Params.large_n() shrunk from n=2000 to n=800 at the same node
            # density (area scaled by sqrt 0.4) and cut to the first 3.5
            # simulated seconds, with the crashes early enough that every
            # observer still detects them: ~3 s a cell, so three fit in a run.
            base = dataclasses.replace(
                E1Params.large_n(), n=800, area=1581.0, densities=(10,),
                horizon=3.5, crash_window=(1.0, 1.3),
            )
        return dataclasses.replace(base, detectors=("partial",), seed=seed)

    def _unit(self, index: int, seed: int) -> dict[str, Any]:
        from repro.harness import run_grid

        params = self._params(seed)
        started = time.perf_counter()
        result = run_grid(self.specs["e1"], params, workers=1)
        wall_s = time.perf_counter() - started
        self.check_grid("e1", params, result.values)
        pairs = params.crashes * (params.n - params.crashes)
        for value in result.values:
            self.ctx.tally.check(
                value["undetected"] == 0 and len(value["latencies"]) == pairs,
                f"e1 seed {seed}: {value['undetected']} undetected, "
                f"{len(value['latencies'])} latencies (expected 0 and {pairs})",
            )
        self.ctx.notes.update(n=params.n, observer_crash_pairs=pairs)
        return {"wall_s": wall_s}

    def measure(self) -> dict[str, float]:
        return {"wall_s": fastest(measure_units(self.ctx, self._unit), "wall_s")}


# ---------------------------------------------------------------------------
# runtime_mem / runtime_udp
# ---------------------------------------------------------------------------


class _Cluster:
    """n detector services on one event loop, over either transport."""

    def __init__(self, services: dict, crash: Callable) -> None:
        self.services = services
        self._crash = crash
        self.crashed: set = set()

    async def crash(self, pid) -> None:
        self.crashed.add(pid)
        await self._crash(pid)

    def live(self) -> list:
        return [s for pid, s in self.services.items() if pid not in self.crashed]

    async def until_all_suspect(self, pid) -> None:
        await asyncio.gather(*(
            service.wait_until_suspected(pid, timeout=DETECT_TIMEOUT_S)
            for service in self.live()
        ))

    async def stop(self) -> None:
        await asyncio.gather(*(service.stop() for service in self.services.values()))


class _Runtime(_Workload):
    """Closed-loop round throughput and crash-detection latency, in turn.

    Closed loop: the n services are the n clients — each starts its next
    query round only when the previous one closed (``grace=0``), so a slower
    substrate is offered less load.  One cluster settles into its own rhythm
    (which services run in lock-step decides how often the event loop
    idles), so the rate is read on a *fresh cluster per window*.  Detection:
    a fresh cluster per episode at the default 20 ms grace; ``f`` members are
    crashed one after another and each sample is the time until every live
    service suspects the victim.  Windows and episodes alternate for the whole
    run, so both metrics sample every speed the host goes through.
    """

    n: int
    f: int
    retry: float | None
    transport: str

    WARM_UP_S = 0.3
    WINDOW_S = 0.5
    #: longest pause before a crash: two query rounds at the 20 ms grace
    CRASH_JITTER_S = 0.05

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        if ctx.quick:
            self.n, self.f = 4, 1
        self.loop = asyncio.new_event_loop()
        self.cluster: _Cluster | None = None

    async def _start(self, grace: float, seed: int) -> _Cluster:
        raise NotImplementedError

    def setup(self) -> None:
        import repro.runtime  # noqa: F401  (the import is the set-up being timed)

        self.ctx.workdir.mkdir(parents=True, exist_ok=True)
        self.cluster = self.loop.run_until_complete(self._warm_cluster(0))

    async def _warm_cluster(self, index: int) -> _Cluster:
        cluster = await self._start(0.0, unit_seed(self.ctx.seed, index))
        await asyncio.sleep(self.WARM_UP_S)
        return cluster

    def measure(self) -> dict[str, float]:
        return self.loop.run_until_complete(self._measure())

    def close(self) -> None:
        async def drain() -> None:
            if self.cluster is not None:
                await self.cluster.stop()
            # In-flight hub deliveries outlive the services that sent them.
            pending = asyncio.all_tasks() - {asyncio.current_task()}
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

        self.loop.run_until_complete(drain())
        self.loop.close()

    def _span(self, name: str, detail: str = ""):
        tracer = self.ctx.tracer
        return tracer.span(name, detail) if tracer else contextlib.nullcontext()

    def _messages_sent(self) -> int:
        """Messages the traced transports have been handed so far."""
        if self.ctx.tracer is None:
            return 0
        return sum(row[0] for (name, _), row in self.ctx.tracer.agg.items()
                   if name in ("runtime.memory:submit", "runtime.udp:send"))

    async def _window(self, cluster: _Cluster) -> dict[str, float]:
        """Round rate of one warmed-up cluster, and what its services saw."""
        services = list(cluster.services.values())
        watchers = [(service.watch(), service.suspects()) for service in services]
        rounds = sum(s.rounds_completed for s in services)
        sent = self._messages_sent()
        with self._span("runtime.loop:window"):
            began = time.perf_counter()
            await asyncio.sleep(self.WINDOW_S)
            window_s = time.perf_counter() - began
        rounds = sum(s.rounds_completed for s in services) - rounds
        if self.ctx.tracer:
            self.ctx.tracer.add("runtime.window_messages", self._messages_sent() - sent)
        false_suspects = 0
        for queue, seen in watchers:
            while not queue.empty():
                after = queue.get_nowait()
                false_suspects += len(after - seen)
                seen = after
        for service in services:
            self.ctx.tally.check(service.running,
                                 f"service {service.process_id} died in the closed loop")
        return {"rate": rounds / window_s, "rounds": rounds, "window_s": window_s,
                "false_suspects": false_suspects,
                "retries": sum(s.retries_sent for s in services)}

    async def _detect(self, episode: int) -> list[float]:
        """One episode: build, warm up, crash ``f`` members in turn.

        A crash comes after a random pause: straight after the previous
        detection it would coincide with the end of a query round, and the
        latencies would fall into two clumps one round apart with the
        reported percentiles on the edge between them.
        """
        seed = unit_seed(self.ctx.seed, episode)
        rng = random.Random(seed)
        cluster = await self._start(0.02, seed)
        latencies = []
        try:
            await asyncio.sleep(0.2)
            for victim in rng.sample(sorted(cluster.services), self.f):
                await asyncio.sleep(rng.uniform(0.0, self.CRASH_JITTER_S))
                with self._span("runtime.loop:detect", str(victim)):
                    started = time.perf_counter()
                    await cluster.crash(victim)
                    try:
                        await cluster.until_all_suspect(victim)
                        latencies.append(time.perf_counter() - started)
                        ok = True
                    except TimeoutError:
                        ok = False
                self.ctx.tally.check(
                    ok, f"episode {episode}: not every live service suspected "
                        f"{victim} within {DETECT_TIMEOUT_S} s")
            for service in cluster.live():
                self.ctx.tally.check(service.running,
                                     f"service {service.process_id} died in episode {episode}")
        finally:
            await cluster.stop()
        return latencies

    async def _alternate(self, seconds: float, first: int) -> tuple[list[dict], list[float]]:
        """A window on a fresh cluster (the set-up one first), then detection
        episodes, until ``seconds`` are used up (``--quick``: until five detections)."""
        began = time.perf_counter()
        windows: list[dict] = []
        latencies: list[float] = []
        while True:
            index = first + len(windows)
            cluster = self.cluster or await self._warm_cluster(index)
            self.cluster = None
            try:
                windows.append(await self._window(cluster))
            finally:
                await cluster.stop()
            # ~4 detections a window: f per episode (n - f must stay a quorum)
            for episode in range(-(-4 // self.f)):
                latencies += await self._detect(1000 + 10 * index + episode)
            self.ctx.sample_host()
            spent = time.perf_counter() - began
            done = (len(latencies) >= 5 if self.ctx.quick
                    else spent + spent / len(windows) > seconds)
            if done:
                return windows, latencies

    async def _measure(self) -> dict[str, float]:
        ctx = self.ctx
        budget = ctx.seconds / (2 if ctx.trace else 1)
        windows, latencies = await self._alternate(budget, 0)
        rate = closed_loop_rate(windows)
        seen = windows
        if ctx.trace:
            # Clusters built from here on install their handlers through the shims.
            tracer = ctx.start_tracing()
            try:
                seen, _ = await self._alternate(budget, len(windows))
            finally:
                tracer.uninstall()
            ctx.traced_units = len(seen)
            ctx.layer_extras["trace_overhead_ratio"] = rate / closed_loop_rate(seen)
        ctx.layer_extras.update({
            f"runtime.service.{key}": sum(w[source] for w in seen) / len(seen)
            for key, source in (("rounds", "rounds"), ("retries", "retries"),
                                ("false_suspects", "false_suspects"))
        })
        ctx.notes.update(
            transport=self.transport, n=self.n, f=self.f, clients=self.n,
            closed_loop_grace_s=0.0, detect_grace_s=0.02, retry_s=self.retry,
            windows=len(windows), window_s=self.WINDOW_S, detect_samples=len(latencies),
            window_rates=[w["rate"] for w in windows], detect_latencies_s=latencies,
            median_rate=statistics.median(w["rate"] for w in windows),
            est_msgs_per_s=rate * 2 * (self.n - 1),
            false_suspects=sum(w["false_suspects"] for w in windows),
            retries_sent=sum(w["retries"] for w in windows),
        )
        if not latencies:
            return {"rounds_per_s": rate}
        ordered = sorted(latencies)
        return {
            "rounds_per_s": rate,
            "detect_p50_ms": statistics.median(ordered) * 1e3,
            # a quarter of the samples lie beyond it: ten when there are forty
            "detect_p75_ms": ordered[max(0, (3 * len(ordered)) // 4 - 1)] * 1e3,
        }


def closed_loop_rate(windows: list[dict]) -> float:
    """The run's reading of the round rate: the fastest window.

    The same reasoning as :func:`fastest`.  Window rates of one run range
    over ±25 % (the host, and each cluster's rhythm); across runs the
    fastest window spread 5–8 % where the median window spread 10–36 %.
    """
    return max(w["rate"] for w in windows)


class RuntimeMem(_Runtime):
    n, f, retry, transport = 16, 4, None, "in-process memory hub, no serialization"

    async def _start(self, grace: float, seed: int) -> _Cluster:
        from repro.runtime import LocalCluster, ServicePacing

        cluster = LocalCluster(self.n, self.f, detector="time-free",
                               pacing=ServicePacing(grace=grace), seed=seed)
        await cluster.start()

        async def crash(pid) -> None:
            cluster.crash(pid)

        return _Cluster(cluster.services, crash)


class RuntimeUdp(_Runtime):
    n, f, retry = 8, 2, 0.25
    transport = "UDP datagrams over the host loopback (127.0.0.1), not a link"

    async def _start(self, grace: float, seed: int) -> _Cluster:
        from repro import DetectorConfig
        from repro.runtime import DetectorService, ServicePacing, UdpTransport

        membership = frozenset(range(1, self.n + 1))
        transports = {
            pid: UdpTransport(pid, ("127.0.0.1", 0), peers={}) for pid in membership
        }
        # Ports are kernel-assigned, so the peer directory can only be filled
        # after every socket is bound — the recipe of examples/udp_cluster.py.
        for transport in transports.values():
            await transport.start()
        for pid, transport in transports.items():
            for other, peer in transports.items():
                if other != pid:
                    transport._peers[other] = peer.local_address
        services = {
            pid: DetectorService(
                DetectorConfig(process_id=pid, membership=membership, f=self.f),
                transports[pid], pacing=ServicePacing(grace=grace, retry=self.retry),
            )
            for pid in sorted(membership)
        }
        await asyncio.gather(*(service.start() for service in services.values()))

        async def crash(pid) -> None:
            await services[pid].stop()

        return _Cluster(services, crash)


WORKLOADS: dict[str, type[_Workload]] = {
    "grid_cold": GridCold,
    "grid_dist2": GridDist2,
    "sim_dense": SimDense,
    "sim_large_n": SimLargeN,
    "runtime_mem": RuntimeMem,
    "runtime_udp": RuntimeUdp,
}
