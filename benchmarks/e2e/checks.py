"""Correctness accounting shared by every workload.

Every check is one *attempted operation*; a check that does not hold is a
*failed* one and names what differed.  ``failed / attempted`` is the
benchmark's ``failed_share``; any failure makes the run incorrect.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Tally", "first_difference", "golden_preflight", "host_reference_s"]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def same_bytes(self, label: str, got: bytes, expected: bytes) -> bool:
        offset = first_difference(got, expected)
        return self.check(
            offset is None,
            f"{label}: differs from its reference at byte offset {offset} "
            f"({len(got)} vs {len(expected)} bytes)",
        )


def first_difference(a: bytes, b: bytes) -> int | None:
    """Offset of the first differing byte, ``None`` when identical."""
    if a == b:
        return None
    for offset, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return offset
    return min(len(a), len(b))


def golden_preflight(tally: Tally, scratch: Path) -> None:
    """Re-run every committed golden grid and byte-compare the artifacts.

    The goldens live under ``tests/goldens`` — outside the benchmark's own
    paths on purpose: a change that deliberately regenerates one carries the
    new expectation with it.
    """
    from repro.harness import get_spec, run_grid, write_artifact
    from tests.goldens import (
        GOLDEN_DIR,
        chaos_params,
        consensus_params,
        smoke_params,
    )

    jobs = [(exp_id, params, GOLDEN_DIR) for exp_id, params in smoke_params().items()]
    jobs += [("q1", p, GOLDEN_DIR / "chaos" / name) for name, p in chaos_params().items()]
    jobs += [
        ("c1", p, GOLDEN_DIR / "consensus" / name)
        for name, p in consensus_params().items()
    ]
    for exp_id, params, golden_dir in jobs:
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            written = write_artifact(out, run_grid(get_spec(exp_id), params))
            golden = golden_dir / written.name
            tally.same_bytes(
                f"golden {golden.relative_to(GOLDEN_DIR)}",
                written.read_bytes(),
                golden.read_bytes(),
            )


def _reference_loop() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - started


def host_reference_s(samples: int = 3) -> float:
    """Fastest of a few runs of a fixed interpreter-only loop: the host's speed.

    Touches nothing under ``src/``, so no change to the program can move it.
    A run reads it after every unit of work and keeps the fastest reading; it
    fills the (metric, workload) pairs a metric does not apply to — the
    result contract wants every workload to report every end-to-end metric —
    and, read beside the real numbers, says how fast the host was.  The
    minimum, because interference only ever slows the loop down.
    """
    return min(_reference_loop() for _ in range(samples))
