"""One workload run, in a process of its own.

``python -m benchmarks.e2e.child --workload NAME --seed N --seconds S
--trace 0|1 --workdir DIR`` does set-up, the golden preflight, the workload's
reference work and its measured section, and prints one JSON object as the
last line of its standard output.  A fresh process per run keeps
``peak_rss_mb``, imports and garbage-collector state from leaking between
workloads; ``--setup-only`` stops after set-up so the parent can sample
set-up time several times.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before the program's imports: they are set-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child", allow_abbrev=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    from .checks import Tally, golden_preflight
    from .workloads import WORKLOADS, Context

    ctx = Context(
        name=args.workload, seed=args.seed, seconds=args.seconds, quick=args.quick,
        trace=bool(args.trace), workdir=args.workdir, tally=Tally(),
    )
    workload = WORKLOADS[args.workload](ctx)
    load_start = os.getloadavg()[0]
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    started = time.perf_counter()
    golden_preflight(ctx.tally, ctx.workdir)
    preflight_s = time.perf_counter() - started
    workload.reference()
    ctx.sample_host()
    started = time.perf_counter()
    metrics = workload.measure()
    measured_s = time.perf_counter() - started
    workload.close()

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "workload": ctx.name, "seed": ctx.seed, "seconds": ctx.seconds,
        "trace": int(ctx.trace), "quick": ctx.quick,
        "setup_s": setup_s, "preflight_s": preflight_s, "measured_s": measured_s,
        "metrics": {**metrics, "peak_rss_mb": usage / 1024.0},
        "host_ref_s": min(ctx.host_samples),
        "attempted": ctx.tally.attempted, "failed": ctx.tally.failed,
        "failures": ctx.tally.failures, "notes": ctx.notes,
        "load_avg": {"start": load_start, "end": os.getloadavg()[0]},
    }
    if ctx.tracer is not None:
        from .layers import PARTITION, layer_metrics

        snapshot = ctx.tracer.snapshot()
        layers = layer_metrics(snapshot, units=ctx.traced_units, extras=ctx.layer_extras)
        result["layers"] = layers
        result["partition_sum_s"] = sum(layers[name] for name in PARTITION)
        (ctx.workdir / "trace.json").write_text(json.dumps(snapshot), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
