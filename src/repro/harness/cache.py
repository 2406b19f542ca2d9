"""Content-hash result cache for grid cells.

A cell's key is the SHA-256 of the canonical JSON of everything that
determines its result: the cache schema version, the experiment id, the
full parameter set, the cell coordinates, and the derived seed.  Any change
to any of those yields a different key, so stale hits are impossible
without hashing code (which we deliberately do not: bump
``CACHE_SCHEMA`` when a change to experiment or simulator code is meant
to invalidate old results).

Entries are one JSON file per key, sharded by the key's first two hex
digits, written atomically (temp file + ``os.replace``) so concurrent
grid runs can share a cache directory.

Eviction: paper-scale grids grow a shared cache without bound, so
:meth:`ResultCache.prune` applies age and total-size caps (oldest entries
first, by mtime — a ``get`` hit refreshes an entry's mtime so hot cells
survive size pressure).  ``repro cache prune`` is the CLI entry point.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..errors import ConfigurationError
from .spec import canonical_json, params_to_dict

__all__ = ["CACHE_SCHEMA", "CacheStats", "PruneReport", "ResultCache", "cache_key"]

#: bump to invalidate every cached cell (e.g. after simulator changes that
#: alter results for identical parameters).
CACHE_SCHEMA = 2


def cache_key(exp_id: str, params: Any, coords: Mapping[str, Any], seed: int) -> str:
    payload = canonical_json(
        {
            "schema": CACHE_SCHEMA,
            "exp": exp_id,
            "params": params_to_dict(params),
            "coords": dict(coords),
            "seed": seed,
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Size of a cache directory.

    ``corrupt`` is only meaningful from :meth:`ResultCache.stats` with
    ``verify=True`` (each entry parsed and key-checked); the cheap scan
    reports it as 0.
    """

    entries: int
    total_bytes: int
    corrupt: int = 0


@dataclass(frozen=True)
class PruneReport:
    """What one :meth:`ResultCache.prune` pass removed."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int


class ResultCache:
    """Directory-backed map from cell key to JSON value."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: entries that *existed* but failed to parse or verify — every
        #: corrupt read also counts as a miss (the value is recomputed),
        #: but corruption is a distinct signal: on a shared cache it means
        #: torn writes or bit rot, not a cold cache, and the end-of-run
        #: summary surfaces it instead of silently recomputing.
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Any | None:
        """The cached value, or None.

        Corrupt entries (present but unparseable, or recording a
        different key) read as misses *and* increment :attr:`corrupt`;
        an absent entry is a plain miss.
        """
        path = self._path(key)
        try:
            fh = path.open("r", encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            with fh:
                entry = json.load(fh)
            if entry["key"] != key:
                raise KeyError(key)
            value = entry["value"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            self.corrupt += 1
            return None
        self.hits += 1
        self._touch(path)
        return value

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh mtime so LRU-by-mtime pruning keeps hot entries."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` (must be JSON-serialisable) atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"key": key, "value": value}, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- eviction -----------------------------------------------------------
    def _entries(self) -> Iterator[tuple[Path, os.stat_result]]:
        """Every entry file with its stat (missing files skipped: racing
        prunes/writes are expected on shared caches)."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    yield path, path.stat()
                except OSError:
                    continue

    def stats(self, *, verify: bool = False) -> CacheStats:
        """Entry count and total size of the cache directory.

        ``verify=True`` additionally parses every entry and checks its
        recorded key against its filename, reporting how many are
        corrupt — the shared-cache health check behind
        ``repro cache info --verify``.
        """
        entries = 0
        total = 0
        corrupt = 0
        for path, stat in self._entries():
            entries += 1
            total += stat.st_size
            if verify and not self._verify(path):
                corrupt += 1
        return CacheStats(entries=entries, total_bytes=total, corrupt=corrupt)

    @staticmethod
    def _verify(path: Path) -> bool:
        try:
            with path.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
            return entry["key"] == path.stem and "value" in entry
        except (OSError, ValueError, KeyError, TypeError):
            return False

    def prune(
        self,
        *,
        max_age_seconds: float | None = None,
        max_total_bytes: int | None = None,
        now: float | None = None,
    ) -> PruneReport:
        """Evict entries by age, then oldest-first down to the size cap.

        ``max_age_seconds`` drops every entry older than the horizon
        (by mtime; reads refresh mtime).  ``max_total_bytes`` then drops
        the oldest survivors until the cache fits.  Either cap may be
        ``None`` (unlimited); passing neither is a configuration error —
        it would silently prune nothing.
        """
        if max_age_seconds is None and max_total_bytes is None:
            raise ConfigurationError("prune needs max_age_seconds and/or max_total_bytes")
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ConfigurationError(f"max_age_seconds must be >= 0, got {max_age_seconds}")
        if max_total_bytes is not None and max_total_bytes < 0:
            raise ConfigurationError(f"max_total_bytes must be >= 0, got {max_total_bytes}")
        horizon = None
        if max_age_seconds is not None:
            horizon = (now if now is not None else time.time()) - max_age_seconds
        survivors: list[tuple[float, int, Path]] = []
        removed = 0
        freed = 0
        for path, stat in self._entries():
            if horizon is not None and stat.st_mtime < horizon:
                removed += 1
                freed += stat.st_size
                self._remove(path)
            else:
                survivors.append((stat.st_mtime, stat.st_size, path))
        kept_bytes = sum(size for _mtime, size, _path in survivors)
        if max_total_bytes is not None and kept_bytes > max_total_bytes:
            survivors.sort()  # oldest first
            while survivors and kept_bytes > max_total_bytes:
                _mtime, size, path = survivors.pop(0)
                removed += 1
                freed += size
                kept_bytes -= size
                self._remove(path)
        self._drop_empty_shards()
        return PruneReport(
            removed=removed, freed_bytes=freed, kept=len(survivors), kept_bytes=kept_bytes
        )

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _drop_empty_shards(self) -> None:
        if not self.root.is_dir():
            return
        for shard in self.root.iterdir():
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass
