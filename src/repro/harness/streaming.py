"""Bounded-memory artifacts: the one spill path.

:func:`repro.harness.runner.run_grid` holds every cell outcome in memory
until the grid completes — fine for the paper's grids, prohibitive for the
QoS-style all-detector comparison sweeps (thousands of cells at n >= 60).
:func:`spill_artifact` takes any stream of outcomes in cell order, spills
each to a JSONL side file the moment it arrives, tabulates from a lazy,
disk-backed value sequence and renders the artifact from the spill —
byte-identical to :func:`repro.harness.artifacts.write_artifact`, because
both go through the one renderer
(:func:`~repro.harness.artifacts.render_artifact`).  Streaming changes
memory, never bytes.

Two callers feed it: :func:`run_grid_streaming` (``repro run --stream``)
with the windowed :func:`~repro.harness.runner.stream_outcomes`, and the
distributed assembler (:func:`repro.harness.grid.assemble_artifact`) with
the run's cells read back from the shared cache.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .artifacts import artifact_name, cell_record, render_artifact
from .cache import ResultCache
from .runner import DEFAULT_WINDOW, CellOutcome, StreamStats, stream_outcomes, tabulate
from .spec import ScenarioSpec

__all__ = [
    "StreamedGridRun",
    "SpilledValues",
    "spill_artifact",
    "run_grid_streaming",
    "write_artifact_streaming",
]


@dataclass
class StreamedGridRun:
    """Result of :func:`run_grid_streaming` (tables + run accounting)."""

    path: Path
    stats: StreamStats
    tables: list[Any] = field(default_factory=list)


class SpilledValues(Sequence):
    """Lazy, disk-backed view of the spilled cell values, in cell order.

    Quacks like the ``values`` list ``tabulate`` receives from the classic
    runner — iteration streams the spill file, random access seeks a
    persistent handle, and slicing returns another lazy view over the
    sliced offsets (f2's tabulate slices its values in half) — while
    holding only one parsed value at a time.
    """

    def __init__(self, path: Path, offsets: list[int]) -> None:
        self._path = path
        self._offsets = offsets
        self._fh = None  # persistent random-access handle, opened lazily

    def __len__(self) -> int:
        return len(self._offsets)

    def __iter__(self) -> Iterator[Any]:
        # A dedicated handle per pass: iteration must not disturb the
        # random-access handle's position, and nested iteration must work.
        with self._path.open("r", encoding="utf-8") as fh:
            for offset in self._offsets:
                fh.seek(offset)
                yield json.loads(fh.readline())["value"]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SpilledValues(
                self._path, self._offsets[index]
            )  # lazy sub-view: no values materialise
        offsets = self._offsets
        if index < 0:
            index += len(offsets)
        if not 0 <= index < len(offsets):
            raise IndexError(index)
        if self._fh is None:
            self._fh = self._path.open("r", encoding="utf-8")
        self._fh.seek(offsets[index])
        return json.loads(self._fh.readline())["value"]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def spill_artifact(
    spec: ScenarioSpec,
    params: Any,
    outcomes: Iterable[CellOutcome],
    out_dir: str | os.PathLike,
) -> tuple[Path, list[Any]]:
    """Spill ``outcomes``, tabulate from the spill, write the artifact.

    Returns ``(artifact path, tables)``.  The spill file is created under a
    unique name in ``out_dir`` (two runs into one directory never share
    one) and removed however the run ends.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / artifact_name(spec.exp_id)
    fd, name = tempfile.mkstemp(dir=out, prefix=path.name + ".", suffix=".spill")
    spill = Path(name)
    offsets: list[int] = []
    values = SpilledValues(spill, offsets)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for outcome in outcomes:
                offsets.append(fh.tell())
                fh.write(json.dumps(cell_record(outcome), sort_keys=True) + "\n")
        tables = tabulate(spec, params, values)
        write_artifact_streaming(path, spec, params, spill, tables)
    finally:
        values.close()
        spill.unlink(missing_ok=True)
    return path, tables


def run_grid_streaming(
    spec: ScenarioSpec,
    params: Any | None = None,
    out_dir: str | Path = "results",
    *,
    workers: int = 0,
    cache: ResultCache | None = None,
    window: int = DEFAULT_WINDOW,
) -> StreamedGridRun:
    """Evaluate ``spec`` and write its artifact with bounded memory.

    At most ``window`` outcomes are resident while cells are evaluated;
    the artifact is byte-identical to the in-memory writer's.
    """
    if params is None:
        params = spec.params_cls()
    stats = StreamStats()
    outcomes = stream_outcomes(
        spec, params, workers=workers, cache=cache, window=window, stats=stats
    )
    path, tables = spill_artifact(spec, params, outcomes, out_dir)
    return StreamedGridRun(path=path, stats=stats, tables=tables)


def write_artifact_streaming(
    path: Path,
    spec: ScenarioSpec,
    params: Any,
    spill: Path,
    tables: list[Any],
) -> None:
    """Render the artifact from a spill file (one cell record per line)."""
    with Path(spill).open("r", encoding="utf-8") as fh:
        render_artifact(path, spec, params, map(json.loads, fh), tables)
