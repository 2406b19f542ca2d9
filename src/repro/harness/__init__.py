"""Parallel experiment orchestration.

Every experiment in :mod:`repro.experiments` is a *grid*: a declarative
list of cells (parameter coordinates), one pure function that evaluates a
single cell, and one function that folds cell results into report tables.
:class:`~repro.harness.spec.ScenarioSpec` captures that triple; the
:mod:`~repro.harness.runner` evaluates whole grids — sequentially or on a
process pool — with deterministic per-cell seeding, deterministic result
ordering, and content-hash result caching; :mod:`~repro.harness.artifacts`
writes the machine-readable ``BENCH_<ID>.json`` outputs; and
:mod:`~repro.harness.cli` exposes it all as ``python -m repro run ...``.

Because cells are pure functions of ``(params, coords, seed)``, the same
grid run twice produces byte-identical artifacts — the second run entirely
from cache.
"""

from .._lazy import lazy_exports

#: submodule -> its public names, resolved on access (:mod:`repro._lazy`)
_EXPORTS = {
    ".artifacts": ("artifact_name", "artifact_payload", "write_artifact"),
    ".cache": ("CacheStats", "PruneReport", "ResultCache", "cache_key"),
    ".grid": (
        "GridStatus",
        "WorkerReport",
        "assemble_artifact",
        "ensure_manifest",
        "grid_reap",
        "grid_status",
        "run_grid_worker",
    ),
    ".lease": ("FileLedger", "LeaseLedger", "LedgerCounts", "SqliteLedger", "open_ledger"),
    ".plugins": (
        "entry_point_modules", "load_plugins", "plugin_modules", "plugin_sources",
    ),
    ".registry": ("all_specs", "get_spec"),
    ".runner": ("CellOutcome", "GridResult", "evaluate_cell", "run_cells", "run_grid"),
    ".spec": ("ScenarioSpec", "cell_seed", "with_detectors", "with_overrides"),
    ".streaming": (
        "StreamedGridRun", "StreamStats", "run_grid_streaming", "stream_outcomes",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
