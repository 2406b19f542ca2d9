#!/usr/bin/env python3
"""Run one large_n experiment cell under a hard address-space ceiling.

CI's large-n smoke: proves the columnar trace plane keeps an n=2000
cell inside a bounded memory envelope.  The ceiling is enforced with
``RLIMIT_AS`` *before* the cell runs, so a memory regression fails
with ``MemoryError`` instead of quietly leaning on a big runner — a
per-change suspect snapshot (what the pre-columnar recorder stored, see
``tests/reference_trace.py``) would alone blow through it.  Peak RSS and
``VmPeak`` (the address space ``RLIMIT_AS`` actually bounds; CI's ceiling is
set to about 1.5 x the value printed here) are reported either way.

Usage: python scripts/large_n_smoke.py [--exp e1] [--cell 0] [--limit-gb 2.0]
"""

from __future__ import annotations

import argparse
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exp", default="e1", help="experiment id (default: e1)")
    parser.add_argument(
        "--cell", type=int, default=0, help="grid index of the large_n cell to run"
    )
    parser.add_argument(
        "--limit-gb",
        type=float,
        default=2.0,
        help="hard RLIMIT_AS address-space ceiling in GiB (default: 2.0)",
    )
    args = parser.parse_args()

    limit = int(args.limit_gb * 1024**3)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from repro.harness import get_spec, run_cells

    spec = get_spec(args.exp)
    params = spec.make_params(preset="large_n")
    grid = spec.grid(params)
    coords = grid[args.cell]
    print(f"[large-n] {args.exp} preset large_n: cell {args.cell}/{len(grid)} "
          f"{coords} under a {args.limit_gb:g} GiB address-space ceiling")
    started = time.perf_counter()
    (value,) = run_cells(spec, params, [coords])
    elapsed = time.perf_counter() - started
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"[large-n] ok in {elapsed:.1f}s, peak RSS {peak_mib:.0f} MiB, "
          f"VmPeak {_vm_peak_mib():.0f} MiB, value keys {sorted(value)}")
    return 0


def _vm_peak_mib() -> float:
    """Peak address-space size from ``/proc/self/status`` (Linux; nan elsewhere)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return float("nan")


if __name__ == "__main__":
    sys.exit(main())
