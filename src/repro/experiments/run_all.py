"""Regenerate every table and figure: ``python -m repro.experiments.run_all``.

Kept as a thin sequential wrapper over the experiment registry for
backwards compatibility — prefer ``python -m repro run`` (parallel
workers, result caching, JSON artifacts).  The experiment set is the
:mod:`repro.experiments.api` registry in canonical order — historically a
hard-coded module tuple sat between registration and this wrapper, so a
newly registered experiment was silently missing from ``run_all`` and the
reports until someone edited the tuple; now anything the registry knows
is included automatically (built-in auto-import is conformance-tested,
so an in-repo module cannot register without being discovered).
``--full`` runs paper-scale parameters (minutes); the
default quick presets finish in well under a minute and show the same
shapes.  ``--only T1,F2`` restricts to a comma-separated subset.
``--markdown`` emits the tables as Markdown.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..harness.registry import all_specs
from ..harness.runner import run_grid
from .report import Table


def run_experiment(exp_id: str, *, full: bool = False) -> list[Table]:
    """Run one experiment by id; returns its table(s)."""
    spec = all_specs()[exp_id.lower()]
    return run_grid(spec, spec.make_params(full=full)).tables()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="paper-scale parameters")
    parser.add_argument("--only", default="", help="comma-separated experiment ids")
    parser.add_argument("--markdown", action="store_true", help="markdown output")
    args = parser.parse_args(argv)
    known = [exp_id.upper() for exp_id in all_specs()]
    wanted = [e.strip().upper() for e in args.only.split(",") if e.strip()] or known
    unknown = [e for e in wanted if e not in known]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}; choose from {known}")
    for exp_id in wanted:
        started = time.perf_counter()
        tables = run_experiment(exp_id, full=args.full)
        elapsed = time.perf_counter() - started
        for table in tables:
            print(table.render_markdown() if args.markdown else table.render())
            print()
        print(f"[{exp_id} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
