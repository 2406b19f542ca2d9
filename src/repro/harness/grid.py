"""Distributed grid execution: many hosts, one ledger, one artifact.

A grid run becomes distributable the moment its cells are
location-independent, and the harness made them so long ago: every cell
is a pure function of ``(params, coords, seed)`` with an SHA-256
stable-name seed and a content-hash cache key.  This module adds the
missing piece — a **coordinator-less scheduler** over a shared directory:

1. the first worker to arrive writes the run **manifest** (experiment,
   full params, per-cell coords/seed/cache-key, a grid digest, and the
   loaded plugin list) — atomically, exactly once;
2. every worker validates its own view of the grid against the manifest
   and **refuses to join on any mismatch** (different params, different
   code-derived digest, different ``REPRO_PLUGINS`` set);
3. workers then loop: *claim* a cell lease from the
   :mod:`~repro.harness.lease` ledger → evaluate it → write the value
   through the shared :class:`~repro.harness.cache.ResultCache` → mark
   the lease *done* — heartbeating the lease all the while, so a
   SIGKILLed worker's cells expire and are reclaimed by survivors;
4. any worker that observes every cell done **assembles the artifact**
   from the cache via the streaming tabulation path
   (:func:`~repro.harness.streaming.write_artifact_streaming`), byte
   for byte what a single-host run writes.

Two scheduling modes, per worker:

* **static sharding** (``repro run EXP --workers-dir D --worker-id k/N``)
  — worker *k* claims only cells with ``index % N == k-1`` and keeps
  polling until its shard is complete (so a relaunched worker resumes
  exactly where its dead predecessor's leases expire);
* **work stealing** (``repro run EXP --workers-dir D --steal``) — claim
  any claimable cell, lowest index first; stealers drain dead workers'
  expired leases automatically and a single surviving stealer finishes
  the whole grid.

Because results travel through the content-hash cache and cells are
deterministic, *every* race in this design degrades to duplicated work
with byte-identical results — never to a wrong or lost artifact.  See
``docs/distributed.md`` for the protocol, the failure model, and the
NFS caveats.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Callable

from ..errors import ConfigurationError
from .artifacts import artifact_name
from .cache import CACHE_SCHEMA, ResultCache, cache_key
from .lease import DEFAULT_TTL, LeaseLedger, LedgerCounts, open_ledger
from .plugins import load_plugins, plugin_sources
from .runner import evaluate_cell
from .spec import ScenarioSpec, canonical_json, cell_seed, params_to_dict
from .streaming import SpilledValues, write_artifact_streaming

__all__ = [
    "GRID_SCHEMA",
    "MANIFEST_NAME",
    "GridStatus",
    "WorkerReport",
    "grid_manifest",
    "ensure_manifest",
    "load_manifest",
    "parse_worker_id",
    "shard_indices",
    "run_grid_worker",
    "assemble_artifact",
    "grid_status",
    "grid_reap",
    "default_worker_name",
]

GRID_SCHEMA = "repro-grid/1"
MANIFEST_NAME = "manifest.json"

#: how long a steal-mode worker sleeps when nothing is claimable yet
DEFAULT_POLL = 0.5


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------


def grid_manifest(spec: ScenarioSpec, params: Any) -> dict[str, Any]:
    """The run manifest: everything a worker needs to agree on.

    Cells are enumerated deterministically — the manifest *is* the
    ledger's index space, so ``spec.cells`` is expanded twice and any
    disagreement (a non-deterministic axis) is refused here, before a
    single lease exists.  Each cell record carries its coords, derived
    seed, and content-hash cache key; ``grid_digest`` fingerprints the
    whole enumeration so workers with drifted code cannot silently run
    a different grid under the same ledger.
    """
    cells = spec.grid(params)
    if spec.grid(params) != cells:
        raise ConfigurationError(
            f"experiment {spec.exp_id!r} enumerates a different grid on "
            "re-expansion; distributed runs need deterministic cells"
        )
    records = []
    for coords in cells:
        seed = cell_seed(spec.exp_id, coords, params.seed)
        records.append(
            {
                "coords": coords,
                "seed": seed,
                "key": cache_key(spec.exp_id, params, coords, seed),
            }
        )
    digest = sha256(
        canonical_json(
            {"experiment": spec.exp_id, "cells": records}
        ).encode("utf-8")
    ).hexdigest()
    # Import before recording: a manifest must not advertise a plugin set
    # this worker could not actually load.
    load_plugins()
    manifest = {
        "schema": GRID_SCHEMA,
        "experiment": spec.exp_id,
        "params": params_to_dict(params),
        "cache_schema": CACHE_SCHEMA,
        "plugins": plugin_sources(),
        "grid_digest": digest,
        "cells": records,
    }
    # JSON round-trip so a freshly built manifest compares equal to one
    # read back from disk (tuples in params become lists in both).
    return json.loads(canonical_json(manifest))


def _manifest_path(workers_dir: str | os.PathLike) -> Path:
    return Path(workers_dir) / MANIFEST_NAME


def load_manifest(workers_dir: str | os.PathLike) -> dict[str, Any]:
    path = _manifest_path(workers_dir)
    try:
        with path.open("r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(
            f"no run manifest at {path}; start a worker with "
            "`repro run EXP --workers-dir ...` to create the run"
        ) from None
    except ValueError as exc:
        raise ConfigurationError(f"unreadable run manifest {path}: {exc}") from exc
    if not isinstance(manifest.get("plugins", {}), dict):
        raise ConfigurationError(
            f"run manifest {path} was written by an older version of repro "
            "(its plugin record is not a per-source mapping); no current "
            "worker can join that run — start a fresh --workers-dir"
        )
    return manifest


def _check_compatible(existing: dict[str, Any], fresh: dict[str, Any]) -> None:
    """Refuse a worker whose view of the run differs from the manifest."""
    for field, label in (
        ("schema", "manifest schema"),
        ("experiment", "experiment"),
        ("cache_schema", "cache schema"),
        ("params", "params"),
        ("plugins", "plugin set (REPRO_PLUGINS + repro.plugins entry points)"),
        ("grid_digest", "grid digest (cell enumeration)"),
    ):
        if existing.get(field) != fresh.get(field):
            raise ConfigurationError(
                f"worker does not match the run manifest: {label} differs "
                f"(manifest: {existing.get(field)!r}, worker: {fresh.get(field)!r})"
            )


def ensure_manifest(
    workers_dir: str | os.PathLike, spec: ScenarioSpec, params: Any
) -> dict[str, Any]:
    """Create the manifest exactly once, or validate against the existing one.

    Creation is atomic (temp file + ``os.link``), so any number of
    workers starting simultaneously agree on whose manifest won; every
    worker — including the winner — then validates its own freshly built
    manifest against the file, which is what enforces the params /
    plugin / digest contract.
    """
    path = _manifest_path(workers_dir)
    fresh = grid_manifest(spec, params)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(fresh, fh, sort_keys=True, indent=2)
            try:
                os.link(tmp, path)
            except FileExistsError:
                pass  # another worker won the race; validate against theirs
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    existing = load_manifest(workers_dir)
    _check_compatible(existing, fresh)
    return existing


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------


def parse_worker_id(text: str) -> tuple[int, int]:
    """``"k/N"`` → ``(k, N)`` with ``1 <= k <= N`` (operator-facing, 1-based)."""
    try:
        k_text, _, n_text = text.partition("/")
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise ConfigurationError(
            f"--worker-id expects k/N (e.g. 2/4), got {text!r}"
        ) from None
    if not 1 <= k <= n:
        raise ConfigurationError(
            f"--worker-id {text!r} out of range: need 1 <= k <= N"
        )
    return k, n


def shard_indices(total: int, k: int, n: int) -> list[int]:
    """Cell indices of static shard ``k/N`` (round-robin by index)."""
    return list(range(k - 1, total, n))


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


# ---------------------------------------------------------------------------
# heartbeat
# ---------------------------------------------------------------------------


class _Heartbeat(threading.Thread):
    """Renews the worker's current lease in the background.

    Owns a private ledger handle (SQLite connections are per-thread).
    ``watch(index)`` points it at the cell being evaluated; ``watch(None)``
    between cells.  A SIGKILL takes this thread down with the worker —
    which is precisely what lets the lease expire.
    """

    def __init__(
        self,
        ledger_factory: Callable[[], LeaseLedger],
        owner: str,
        ttl: float,
        interval: float,
    ) -> None:
        super().__init__(name=f"lease-heartbeat-{owner}", daemon=True)
        self._factory = ledger_factory
        self._owner = owner
        self._ttl = ttl
        self._interval = interval
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self._current: int | None = None

    def watch(self, index: int | None) -> None:
        with self._lock:
            self._current = index

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        ledger = self._factory()
        try:
            while not self._halt.wait(self._interval):
                with self._lock:
                    index = self._current
                if index is not None:
                    ledger.renew(self._owner, index, ttl=self._ttl)
        finally:
            ledger.close()


# ---------------------------------------------------------------------------
# worker loop
# ---------------------------------------------------------------------------


@dataclass
class WorkerReport:
    """What one worker did, and whether it finished the run."""

    worker: str
    exp_id: str
    #: cells this worker evaluated (cache misses it computed)
    ran: int = 0
    #: cells this worker resolved from the shared cache
    cached: int = 0
    #: cells this worker marked done (ran + cached)
    completed: int = 0
    #: ledger state when the worker exited
    counts: LedgerCounts | None = None
    #: set when *this* worker observed completion and wrote the artifact
    artifact: Path | None = None
    tables: list[Any] | None = None


def run_grid_worker(
    spec: ScenarioSpec,
    params: Any,
    workers_dir: str | os.PathLike,
    out_dir: str | os.PathLike = "results",
    *,
    cache: ResultCache,
    worker: str | None = None,
    shard: tuple[int, int] | None = None,
    steal: bool = False,
    ttl: float = DEFAULT_TTL,
    heartbeat: float | None = None,
    poll: float = DEFAULT_POLL,
    backend: str = "auto",
) -> WorkerReport:
    """Join (or start) the distributed run of ``spec`` under ``workers_dir``.

    Exactly one of ``shard`` (static ``(k, N)``) or ``steal`` must be
    given.  ``cache`` must be a directory shared by all workers — it is
    the data plane; the ledger only tracks who is doing what.  The call
    returns when this worker has nothing left to do: its shard is done
    (static), or the whole grid is done (steal).  Whichever worker
    observes global completion assembles the artifact into ``out_dir``
    (several may — the writes are atomic and byte-identical).
    """
    if (shard is None) == (not steal):
        raise ConfigurationError(
            "distributed runs need exactly one mode: shard=(k, N) or steal=True"
        )
    if cache is None:
        raise ConfigurationError(
            "distributed runs need a shared ResultCache (it carries the results)"
        )
    if shard is not None:
        k, n = shard
        if not 1 <= k <= n:
            raise ConfigurationError(f"shard {k}/{n} out of range: need 1 <= k <= N")
    worker = worker or default_worker_name()
    manifest = ensure_manifest(workers_dir, spec, params)
    cells = manifest["cells"]
    total = len(cells)
    report = WorkerReport(worker=worker, exp_id=spec.exp_id)
    ledger = open_ledger(workers_dir, total, backend)
    interval = heartbeat if heartbeat is not None else max(ttl / 4.0, 0.05)
    beat = _Heartbeat(
        lambda: open_ledger(workers_dir, total, ledger.backend), worker, ttl, interval
    )
    shard0 = None if shard is None else (shard[0] - 1, shard[1])
    mine = None if shard is None else set(shard_indices(total, *shard))
    beat.start()
    try:
        while True:
            index = ledger.claim(worker, ttl=ttl, shard=shard0)
            if index is None:
                counts = ledger.counts()
                if counts.all_done:
                    break
                if mine is not None and mine <= ledger.done_indices():
                    break  # static shard complete; the grid may still be running
                # Nothing claimable *yet*: live leases elsewhere.  Wait for
                # them to complete or expire (a dead worker's cells come
                # back to us through exactly this path).
                time.sleep(poll)
                continue
            beat.watch(index)
            try:
                record = cells[index]
                value, hit = evaluate_cell(
                    spec, params, record["coords"], record["seed"],
                    cache=cache, key=record["key"],
                )
            except BaseException:
                # Give the cell back immediately rather than holding the
                # lease until expiry — a crashing cell should not stall
                # the other workers for a full TTL.
                beat.watch(None)
                ledger.release(worker, index)
                raise
            beat.watch(None)
            ledger.complete(worker, index)
            report.completed += 1
            if hit:
                report.cached += 1
            else:
                report.ran += 1
    finally:
        beat.stop()
        beat.join(timeout=5.0)
    counts = ledger.counts()
    report.counts = counts
    ledger.close()
    if counts.all_done:
        report.artifact, report.tables = assemble_artifact(
            spec, params, manifest, cache, out_dir
        )
    return report


# ---------------------------------------------------------------------------
# artifact assembly (coordinator-less tabulation)
# ---------------------------------------------------------------------------


def assemble_artifact(
    spec: ScenarioSpec,
    params: Any,
    manifest: dict[str, Any],
    cache: ResultCache,
    out_dir: str | os.PathLike,
) -> tuple[Path, list[Any]]:
    """Tabulate a completed run from the shared cache; returns (path, tables).

    Values are read back in manifest (= cell) order through the streaming
    spill/tabulation path, so assembly memory stays bounded no matter the
    grid size.  A value missing from the cache (pruned, or a corrupt
    entry) is recomputed locally — cells are deterministic, so the
    artifact is unaffected, just slower.  The final write is atomic
    (temp + rename): concurrent assemblers produce byte-identical files
    and the winner is indistinguishable from the loser.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / artifact_name(spec.exp_id)
    suffix = f".{default_worker_name()}"
    spill = out / (artifact_name(spec.exp_id) + suffix + ".assemble.spill")
    partial = out / (artifact_name(spec.exp_id) + suffix + ".tmp")
    offsets: list[int] = []
    values = SpilledValues(spill, offsets)
    try:
        with spill.open("w", encoding="utf-8") as fh:
            for record in manifest["cells"]:
                value, _hit = evaluate_cell(
                    spec, params, record["coords"], record["seed"],
                    cache=cache, key=record["key"],
                )
                offsets.append(fh.tell())
                fh.write(
                    json.dumps(
                        {
                            "coords": record["coords"],
                            "seed": record["seed"],
                            "value": value,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        tables = spec.tabulate(params, values)
        tables = tables if isinstance(tables, list) else [tables]
        write_artifact_streaming(partial, spec, params, spill, tables)
        os.replace(partial, path)
    finally:
        values.close()
        spill.unlink(missing_ok=True)
        partial.unlink(missing_ok=True)
    return path, tables


# ---------------------------------------------------------------------------
# observability: status / reap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridStatus:
    """One snapshot of a distributed run (``repro grid status``)."""

    experiment: str
    counts: LedgerCounts
    owners: dict[str, int]
    plugins: tuple[str, ...]
    backend: str

    def render(self) -> str:
        c = self.counts
        lines = [
            f"{self.experiment}: {c.done}/{c.total} done "
            f"({c.pending} pending, {c.leased} leased, {c.expired} expired) "
            f"[{self.backend} ledger]",
        ]
        for owner in sorted(self.owners):
            lines.append(f"  {owner}: {self.owners[owner]} leased")
        if self.plugins:
            lines.append(f"  plugins: {', '.join(self.plugins)}")
        if c.all_done:
            lines.append("  complete — artifact written by the finishing worker")
        return "\n".join(lines)


def grid_status(
    workers_dir: str | os.PathLike, backend: str = "auto"
) -> GridStatus:
    manifest = load_manifest(workers_dir)
    # per-source record ({"env": [...], "entry_points": [...]}), flattened
    plugins = manifest.get("plugins", {})
    with open_ledger(workers_dir, len(manifest["cells"]), backend) as ledger:
        now = time.time()
        return GridStatus(
            experiment=manifest["experiment"],
            counts=ledger.counts(now=now),
            owners=ledger.owners(now=now),
            plugins=tuple(
                sorted({*plugins.get("env", ()), *plugins.get("entry_points", ())})
            ),
            backend=ledger.backend,
        )


def grid_reap(workers_dir: str | os.PathLike, backend: str = "auto") -> int:
    """Reset expired leases to pending; returns how many were reclaimed."""
    manifest = load_manifest(workers_dir)
    with open_ledger(workers_dir, len(manifest["cells"]), backend) as ledger:
        return ledger.reap()
