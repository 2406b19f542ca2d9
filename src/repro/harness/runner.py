"""Grid evaluation: one cell-resolve loop, sequential or process-pool.

:func:`stream_outcomes` is the only loop over a grid's cells.  It derives
every cell's seed, resolves it through the cache and yields outcomes **in
cell order** — completion order never leaks into results, so a run is
reproducible regardless of worker count or window size.  Serially each
cell goes through :func:`evaluate_cell`; with ``workers > 1`` a window's
misses go to one ``concurrent.futures.ProcessPoolExecutor`` and each
result is written through to the cache as it is collected, so a cell that
raises leaves every earlier cell cached.  :func:`run_grid` and
:func:`run_cells` collect the outcomes into a list;
:mod:`repro.harness.streaming` spills them to disk.

Every cell value is normalised through a JSON round-trip before it is
reported or cached, so a cold run and a cache-served run hand *identical*
values to ``tabulate`` and to the artifact writer (tuples become lists in
both, not just in the cached one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from ..errors import ConfigurationError
from .cache import ResultCache, cache_key
from .spec import ScenarioSpec, canonical_json, cell_seed

__all__ = [
    "DEFAULT_WINDOW", "CellOutcome", "GridResult", "StreamStats", "evaluate_cell",
    "run_cells", "run_grid", "stream_outcomes", "tabulate",
]

#: default cap on resident (un-consumed) outcomes during a streaming run
DEFAULT_WINDOW = 512


@dataclass(frozen=True)
class CellOutcome:
    """One evaluated grid cell."""

    coords: dict[str, Any]
    seed: int
    value: Any
    cached: bool


@dataclass
class StreamStats:
    """Observability for a :func:`stream_outcomes` run (filled in as cells complete)."""

    cells: int = 0
    cache_hits: int = 0
    #: largest number of outcomes resident at any point — 1 serially, at
    #: most the window on a pool; recorded so tests and operators can
    #: verify the cap held
    peak_resident: int = 0


def tabulate(spec: ScenarioSpec, params: Any, values: Sequence[Any]) -> list[Any]:
    """``spec.tabulate`` as a list of tables (a single table is wrapped)."""
    tables = spec.tabulate(params, values)
    return tables if isinstance(tables, list) else [tables]


@dataclass
class GridResult:
    """All outcomes of one grid run, in cell order."""

    spec: ScenarioSpec
    params: Any
    outcomes: list[CellOutcome] = field(default_factory=list)

    @property
    def values(self) -> list[Any]:
        return [outcome.value for outcome in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def tables(self) -> list[Any]:
        return tabulate(self.spec, self.params, self.values)


def _normalise(value: Any) -> Any:
    """JSON round-trip so computed and cached values are indistinguishable."""
    return json.loads(canonical_json(value))


def evaluate_cell(
    spec: ScenarioSpec,
    params: Any,
    coords: Mapping[str, Any],
    seed: int,
    *,
    cache: ResultCache | None = None,
    key: str | None = None,
) -> tuple[Any, bool]:
    """Resolve one cell through the cache: ``(normalised value, was_hit)``.

    The serial step of :func:`stream_outcomes`, and the whole unit of
    scheduling of the distributed worker loop (:mod:`repro.harness.grid`),
    which leases one cell at a time.  A fresh result is written through to
    ``cache`` before returning, so on a shared cache the value is visible
    to every other worker (and to whichever worker later assembles the
    artifact).
    """
    if cache is not None:
        if key is None:
            key = cache_key(spec.exp_id, params, coords, seed)
        cached = cache.get(key)
        if cached is not None:
            return cached, True
    value = _normalise(spec.run_cell(params, dict(coords), seed))
    if cache is not None:
        cache.put(key, value)
    return value, False


def stream_outcomes(
    spec: ScenarioSpec,
    params: Any | None = None,
    *,
    workers: int = 0,
    cache: ResultCache | None = None,
    window: int = DEFAULT_WINDOW,
    stats: StreamStats | None = None,
) -> Iterator[CellOutcome]:
    """Evaluate a grid window by window, yielding outcomes in cell order.

    Per-cell seeds and cache keys do not depend on ``window`` or
    ``workers``, so every way of consuming this loop — a list, a spill
    file, a different window — sees the same outcomes.
    """
    if params is None:
        params = spec.params_cls()
    return _outcomes(spec, params, spec.grid(params), workers, cache, window, stats)


def _outcomes(
    spec: ScenarioSpec,
    params: Any,
    cells: Sequence[Mapping[str, Any]],
    workers: int,
    cache: ResultCache | None,
    window: int,
    stats: StreamStats | None,
) -> Iterator[CellOutcome]:
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    pool = None
    if workers > 1:
        # Loaded by the first parallel grid, not at import: a serial run or
        # a `--steal` worker never needs multiprocessing (~30 ms).  The pool
        # starts its processes at the first submit.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for start in range(0, len(cells), window):
            chunk = cells[start:start + window]
            seeds = [cell_seed(spec.exp_id, coords, params.seed) for coords in chunk]
            if pool is None:
                resolved = (
                    evaluate_cell(spec, params, coords, seed, cache=cache)
                    for coords, seed in zip(chunk, seeds)
                )
            else:
                resolved = _pool_window(pool, spec, params, chunk, seeds, cache)
            if stats is not None:
                resident = 1 if pool is None else len(chunk)
                stats.peak_resident = max(stats.peak_resident, resident)
            for coords, seed, (value, hit) in zip(chunk, seeds, resolved):
                if stats is not None:
                    stats.cells += 1
                    stats.cache_hits += hit
                yield CellOutcome(coords=coords, seed=seed, value=value, cached=hit)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _pool_window(pool, spec, params, chunk, seeds, cache) -> Iterator[tuple[Any, bool]]:
    """Look every cell up, submit the misses, then collect in cell order.

    All misses are in flight before the first is awaited; each is written
    through to the cache the moment it is collected.
    """
    slots = []
    for coords, seed in zip(chunk, seeds):
        key = None if cache is None else cache_key(spec.exp_id, params, coords, seed)
        cached = None if key is None else cache.get(key)
        future = None
        if cached is None:
            future = pool.submit(spec.run_cell, params, coords, seed)
        slots.append((key, cached, future))
    for key, cached, future in slots:
        if future is None:
            yield cached, True
            continue
        value = _normalise(future.result())
        if key is not None:
            cache.put(key, value)
        yield value, False


def run_grid(
    spec: ScenarioSpec,
    params: Any | None = None,
    *,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> GridResult:
    """Evaluate every cell of ``spec`` under ``params``.

    ``workers <= 1`` evaluates inline (no subprocesses); larger values fan
    misses out to a process pool.  ``cache`` short-circuits cells whose
    content hash is already stored and records fresh results.
    """
    if params is None:
        params = spec.params_cls()
    cells = spec.grid(params)
    outcomes = _outcomes(spec, params, cells, workers, cache, max(1, len(cells)), None)
    return GridResult(spec=spec, params=params, outcomes=list(outcomes))


def run_cells(
    spec: ScenarioSpec,
    params: Any,
    cells: Sequence[Mapping[str, Any]],
    *,
    workers: int = 0,
    cache: ResultCache | None = None,
) -> list[Any]:
    """Evaluate an explicit subset of cells; returns their values in order.

    Lets an experiment expose sub-grids (one table of several) without
    duplicating runner logic.
    """
    cells = [dict(coords) for coords in cells]
    outcomes = _outcomes(spec, params, cells, workers, cache, max(1, len(cells)), None)
    return [outcome.value for outcome in outcomes]
