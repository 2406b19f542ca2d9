"""Grid evaluation: sequential or process-pool, cached, deterministic.

The runner enumerates a spec's cells, derives every cell's seed, resolves
cache hits, evaluates the misses (inline, or on a
``concurrent.futures.ProcessPoolExecutor`` when ``workers > 1``), and
returns outcomes **in cell order** — completion order never leaks into
results, so a grid run is reproducible regardless of worker count.

Every cell value is normalised through a JSON round-trip before it is
reported or cached, so a cold run and a cache-served run hand *identical*
values to ``tabulate`` and to the artifact writer (tuples become lists in
both, not just in the cached one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .cache import ResultCache, cache_key
from .spec import ScenarioSpec, canonical_json, cell_seed

__all__ = ["CellOutcome", "GridResult", "run_grid", "run_cells", "evaluate_cell"]


@dataclass(frozen=True)
class CellOutcome:
    """One evaluated grid cell."""

    coords: dict[str, Any]
    seed: int
    value: Any
    cached: bool


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
        result = self.spec.tabulate(self.params, self.values)
        return result if isinstance(result, list) else [result]


def _normalise(value: Any) -> Any:
    """JSON round-trip so computed and cached values are indistinguishable."""
    return json.loads(canonical_json(value))


def _evaluate(run_cell, params, coords, seed):
    """Top-level worker entry point (must be picklable by name)."""
    return run_cell(params, coords, seed)


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

    The single-cell form of what :func:`run_grid` does per grid — shared
    with the distributed worker loop (:mod:`repro.harness.grid`), whose
    unit of scheduling is one leased cell, not one grid.  A fresh result
    is written through to ``cache`` before returning, so on a shared
    cache the value is visible to every other worker (and to whichever
    worker later assembles the artifact).
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
    return GridResult(
        spec=spec,
        params=params,
        outcomes=_evaluate_cells(spec, params, cells, workers, cache),
    )


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
    outcomes = _evaluate_cells(spec, params, [dict(c) for c in cells], workers, cache)
    return [outcome.value for outcome in outcomes]


def _evaluate_cells(
    spec: ScenarioSpec,
    params: Any,
    cells: list[dict[str, Any]],
    workers: int,
    cache: ResultCache | None,
) -> list[CellOutcome]:
    seeds = [cell_seed(spec.exp_id, coords, params.seed) for coords in cells]
    keys = [
        cache_key(spec.exp_id, params, coords, seed) if cache is not None else None
        for coords, seed in zip(cells, seeds)
    ]
    values: list[Any] = [None] * len(cells)
    hit: list[bool] = [False] * len(cells)
    misses: list[int] = []
    for index, key in enumerate(keys):
        if key is not None:
            cached = cache.get(key)
            if cached is not None:
                values[index] = cached
                hit[index] = True
                continue
        misses.append(index)

    if misses:
        if workers > 1:
            # Loaded by the first parallel grid, not at import: a serial run
            # or a `--steal` worker never needs multiprocessing (~30 ms).
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    (
                        index,
                        pool.submit(
                            _evaluate, spec.run_cell, params, cells[index], seeds[index]
                        ),
                    )
                    for index in misses
                ]
                # Collect in submission (= cell) order; the pool may finish
                # them in any order without affecting results.
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

    return [
        CellOutcome(
            coords=coords, seed=seeds[index], value=values[index], cached=hit[index]
        )
        for index, coords in enumerate(cells)
    ]
