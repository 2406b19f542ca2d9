"""One ``--steal`` worker of ``grid_dist2``: ``repro run ...`` in its own process.

``python -m benchmarks.e2e.steal_worker [--trace-dir DIR --workload NAME] ARGS``
hands ``ARGS`` to ``repro.harness.cli.main`` unchanged.  With ``--trace-dir``
the tracer is installed first and the worker's aggregates are written to
``DIR/agg-<pid>.json`` for the benchmark to merge — a subprocess cannot be
reached by the parent's shims.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.steal_worker")
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--workload", default="grid_dist2")
    options, cli_args = parser.parse_known_args(argv)

    from repro.harness import cli

    if options.trace_dir is None:
        return cli.main(cli_args)

    from .layers import install
    from .tracer import Tracer

    tracer = Tracer(options.workload)
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(options.trace_dir / f"agg-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
