"""Streaming grid evaluation: bounded-memory artifact runs for huge grids.

:func:`repro.harness.runner.run_grid` holds every cell outcome in memory
until the grid completes — fine for the paper's grids, prohibitive for the
QoS-style all-detector comparison sweeps (thousands of cells at n >= 60).
This module evaluates a grid in bounded **windows** and folds completed
cells straight into the on-disk artifact:

* :func:`stream_outcomes` yields outcomes *in cell order* while keeping at
  most ``window`` un-consumed outcomes (and in-flight futures) resident;
* :func:`run_grid_streaming` spills each outcome to a JSONL side file the
  moment it is produced, then tabulates from a lazy, disk-backed value
  sequence and writes the final artifact **byte-identical** to
  :func:`repro.harness.artifacts.write_artifact`'s rendering — streaming
  changes memory, never bytes.

Caching, seeding and normalisation are shared with the non-streaming
runner, so a streamed run and a classic run of the same grid are fully
interchangeable (including cache hits across the two).
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..errors import ConfigurationError
from .artifacts import artifact_header, artifact_name, artifact_tables
from .cache import ResultCache, cache_key
from .runner import CellOutcome, _evaluate, _normalise
from .spec import ScenarioSpec, cell_seed

__all__ = [
    "DEFAULT_WINDOW",
    "StreamStats",
    "StreamedGridRun",
    "SpilledValues",
    "stream_outcomes",
    "run_grid_streaming",
    "write_artifact_streaming",
]

#: default cap on resident (un-spilled) outcomes during a streaming run
DEFAULT_WINDOW = 512


@dataclass
class StreamStats:
    """Observability for a streaming run (filled in as cells complete)."""

    cells: int = 0
    cache_hits: int = 0
    #: largest number of outcomes resident at any point — bounded by the
    #: window size, recorded so tests and operators can verify the cap held
    peak_resident: int = 0


@dataclass
class StreamedGridRun:
    """Result of :func:`run_grid_streaming` (tables + run accounting)."""

    path: Path
    stats: StreamStats
    tables: list[Any] = field(default_factory=list)


def stream_outcomes(
    spec: ScenarioSpec,
    params: Any | None = None,
    *,
    workers: int = 0,
    cache: ResultCache | None = None,
    window: int = DEFAULT_WINDOW,
    stats: StreamStats | None = None,
) -> Iterator[CellOutcome]:
    """Evaluate a grid window-by-window, yielding outcomes in cell order.

    At most ``window`` outcomes (and, with ``workers > 1``, in-flight
    futures) exist at once; one process pool is reused across windows.
    Results are identical to :func:`~repro.harness.runner.run_grid` —
    per-cell seeds and cache keys do not depend on the window size.
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if params is None:
        params = spec.params_cls()
    cells = spec.grid(params)
    seeds = [cell_seed(spec.exp_id, coords, params.seed) for coords in cells]
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # as in runner.py

        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for start in range(0, len(cells), window):
            chunk = list(range(start, min(start + window, len(cells))))
            keys = {
                index: cache_key(spec.exp_id, params, cells[index], seeds[index])
                for index in chunk
                if cache is not None
            }
            values: dict[int, Any] = {}
            hit: set[int] = set()
            misses: list[int] = []
            for index in chunk:
                if cache is not None:
                    cached = cache.get(keys[index])
                    if cached is not None:
                        values[index] = cached
                        hit.add(index)
                        continue
                misses.append(index)
            if misses and pool is not None:
                futures = [
                    (
                        index,
                        pool.submit(
                            _evaluate, spec.run_cell, params, cells[index], seeds[index]
                        ),
                    )
                    for index in misses
                ]
                for index, future in futures:
                    values[index] = _normalise(future.result())
            else:
                for index in misses:
                    values[index] = _normalise(
                        spec.run_cell(params, cells[index], seeds[index])
                    )
            if cache is not None:
                for index in misses:
                    cache.put(keys[index], values[index])
            if stats is not None:
                stats.cells += len(chunk)
                stats.cache_hits += len(hit)
                stats.peak_resident = max(stats.peak_resident, len(values))
            for index in chunk:
                yield CellOutcome(
                    coords=cells[index],
                    seed=seeds[index],
                    value=values.pop(index),
                    cached=index in hit,
                )
    finally:
        if pool is not None:
            pool.shutdown()


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

    Cells are spilled to ``<artifact>.cells.spill`` as they complete (at
    most ``window`` outcomes resident), tabulation reads values back
    through a lazy sequence, and the final artifact is rendered streaming —
    byte-identical to the classic writer.  The spill file is removed on
    success.
    """
    if params is None:
        params = spec.params_cls()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / artifact_name(spec.exp_id)
    spill = out / (artifact_name(spec.exp_id) + ".cells.spill")
    stats = StreamStats()
    offsets: list[int] = []
    values = SpilledValues(spill, offsets)
    try:
        with spill.open("w", encoding="utf-8") as fh:
            for outcome in stream_outcomes(
                spec, params, workers=workers, cache=cache, window=window, stats=stats
            ):
                record = {
                    "coords": outcome.coords,
                    "seed": outcome.seed,
                    "value": outcome.value,
                }
                offsets.append(fh.tell())
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        tables = spec.tabulate(params, values)
        tables = tables if isinstance(tables, list) else [tables]
        write_artifact_streaming(path, spec, params, spill, tables)
    finally:
        values.close()
        spill.unlink(missing_ok=True)
    return StreamedGridRun(path=path, stats=stats, tables=tables)


def write_artifact_streaming(
    path: Path,
    spec: ScenarioSpec,
    params: Any,
    spill: Path,
    tables: list[Any],
) -> None:
    """Render the canonical artifact without materialising the cell list.

    Shared with the distributed assembler (:mod:`repro.harness.grid`),
    which tabulates from the shared cache once a run's ledger shows every
    cell done — same spill format (one ``{"coords","seed","value"}`` JSON
    object per line), same byte-identical rendering.

    Byte-identity with ``json.dumps(payload, sort_keys=True, indent=2)``
    relies on ``"cells"`` sorting first among the payload keys: the cell
    array is streamed from the spill file, then the rest of the payload is
    rendered normally and spliced in after it.
    """
    rest = {
        **artifact_header(spec.exp_id, spec.title, params),
        "tables": artifact_tables(tables),
    }
    if min(rest) <= "cells":
        raise ConfigurationError(
            "streaming artifact writer requires 'cells' to sort first among "
            f"payload keys; found {sorted(k for k in rest if k <= 'cells')}"
        )
    rendered_rest = json.dumps(rest, sort_keys=True, indent=2)
    with path.open("w", encoding="utf-8") as fh:
        with spill.open("r", encoding="utf-8") as cells_fh:
            first = True
            for line in cells_fh:
                fh.write('{\n  "cells": [\n' if first else ",\n")
                first = False
                block = json.dumps(json.loads(line), sort_keys=True, indent=2)
                fh.write(textwrap.indent(block, "    "))
            # json.dumps renders an empty list inline ("cells": []).
            fh.write('{\n  "cells": [],\n' if first else "\n  ],\n")
        # rendered_rest == "{\n  <body>\n}"; strip its opening brace/newline
        # so the body continues the object we already started.
        fh.write(rendered_rest[2:])
        fh.write("\n")
