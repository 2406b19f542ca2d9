"""Lease ledger: per-cell work leases on a shared directory.

The distributed grid runner (:mod:`repro.harness.grid`) coordinates
workers through a **ledger** living in a directory every host can reach.
Each grid cell has a lifecycle::

    pending ──claim──▶ leased ──complete──▶ done
       ▲                  │
       └──expiry / reap───┘

A *lease* is ownership with a deadline: ``claim`` hands the lowest
claimable cell to a worker and stamps ``now + ttl``; ``renew`` (the
heartbeat) pushes the deadline forward; a lease whose deadline passes is
claimable again by anyone — that is the whole failure model.  ``done`` is
terminal and unconditional: a cell's value lives in the content-hash
:class:`~repro.harness.cache.ResultCache` before ``complete`` is called,
so marking done merely records that the value exists.

Correctness does **not** rest on leases.  Cells are pure functions of
``(params, coords, seed)`` and cache writes are atomic, so the worst
outcome of any race (two workers both concluding they hold an expired
lease) is the same cell computed twice with byte-identical results.
Leases are the efficiency mechanism that makes duplication rare, not the
safety mechanism that makes it harmless — which is why one ledger that
is correct on NFS is all a run needs: :class:`FileLedger`, one lease file
per cell under ``leases/`` plus a ``done/`` marker per completed cell.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigurationError

__all__ = ["LedgerCounts", "FileLedger", "open_ledger"]

#: default seconds a lease lives without a heartbeat
DEFAULT_TTL = 60.0


@dataclass(frozen=True)
class LedgerCounts:
    """One consistent snapshot of a ledger's cell states.

    ``leased`` counts only *live* leases (deadline in the future);
    ``expired`` are leased cells whose deadline passed — claimable, and
    what ``reap`` resets to pending explicitly.
    """

    total: int
    pending: int
    leased: int
    expired: int
    done: int

    @property
    def remaining(self) -> int:
        return self.total - self.done

    @property
    def all_done(self) -> bool:
        return self.done == self.total


def _now(now: float | None) -> float:
    return time.time() if now is None else now


_LEASE_DIR = "leases"
_DONE_DIR = "done"
#: the ledger file of the SQLite backend earlier versions could pick
_SQLITE_NAME = "ledger.sqlite"


class FileLedger:
    """Leases as one JSON file per cell, claimed by atomic link.

    A fresh claim writes a temp file and ``os.link``\\ s it to
    ``leases/<idx>.json`` — an exclusive create, atomic on POSIX
    filesystems including NFS (unlike ``O_EXCL`` on NFSv2).  A steal of
    an expired lease is ``os.replace``: atomic, but two stealers can both
    succeed back to back, which the module docstring explains is benign.
    ``done/<idx>`` markers are empty files, created the same way and
    never removed.  An instance holds no open resource, so a worker's
    heartbeat thread renews through the worker's own instance.
    """

    def __init__(self, root: str | os.PathLike, total: int) -> None:
        self.root = Path(root)
        self.total = total
        self._leases = self.root / _LEASE_DIR
        self._done = self.root / _DONE_DIR
        self._leases.mkdir(parents=True, exist_ok=True)
        self._done.mkdir(parents=True, exist_ok=True)
        #: indices this instance has already seen completed — done is
        #: terminal, so the set only grows and stat calls are saved.
        self._known_done: set[int] = set()

    def _lease_path(self, index: int) -> Path:
        return self._leases / f"{index}.json"

    def _done_path(self, index: int) -> Path:
        return self._done / str(index)

    def _is_done(self, index: int) -> bool:
        if index in self._known_done:
            return True
        if self._done_path(index).exists():
            self._known_done.add(index)
            return True
        return False

    def _read_lease(self, index: int) -> dict | None:
        try:
            with self._lease_path(index).open("r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            # Vanished (completed/reaped) or mid-write by another host:
            # treat as unreadable now; the caller just moves on.
            return None

    def _write_lease(self, index: int, owner: str, deadline: float,
                     attempts: int, *, steal: bool) -> bool:
        payload = json.dumps(
            {"owner": owner, "deadline": deadline, "attempts": attempts}
        )
        fd, tmp = tempfile.mkstemp(dir=self._leases, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            if steal:
                os.replace(tmp, self._lease_path(index))
                return True
            try:
                os.link(tmp, self._lease_path(index))
            except FileExistsError:
                return False
            return True
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def claim(
        self,
        owner: str,
        *,
        now: float | None = None,
        ttl: float = DEFAULT_TTL,
        shard: tuple[int, int] | None = None,
    ) -> int | None:
        """Lease the lowest claimable cell index, or ``None``.

        Claimable: pending, or leased with an expired deadline.  ``shard``
        = ``(k, n)`` restricts claims to indices with ``index % n == k``
        (static sharding); ``None`` claims anywhere (work stealing).
        """
        now = _now(now)
        for index in range(self.total):
            if shard is not None and index % shard[1] != shard[0]:
                continue
            if self._is_done(index):
                continue
            lease = self._read_lease(index)
            if lease is None:
                if self._write_lease(index, owner, now + ttl, 1, steal=False):
                    if self._is_done(index):
                        # Lost race: completed between our scan and link.
                        continue
                    return index
                continue  # someone else linked first
            if lease["deadline"] >= now:
                continue  # live lease
            # Expired: steal. Two stealers can both pass this point — the
            # benign duplicated-work race (results are byte-identical).
            self._write_lease(
                index, owner, now + ttl, lease.get("attempts", 0) + 1, steal=True
            )
            if self._is_done(index):
                continue
            return index
        return None

    def renew(self, owner: str, index: int, *, now: float | None = None,
              ttl: float = DEFAULT_TTL) -> bool:
        """Extend ``owner``'s lease on ``index``; False if no longer held."""
        lease = self._read_lease(index)
        if lease is None or lease["owner"] != owner or self._is_done(index):
            return False
        self._write_lease(
            index, owner, _now(now) + ttl, lease.get("attempts", 1), steal=True
        )
        return True

    def complete(self, owner: str, index: int) -> None:
        """Mark ``index`` done (unconditional — see module docstring)."""
        try:
            self._done_path(index).touch()
        except OSError:
            pass
        self._known_done.add(index)
        try:
            os.unlink(self._lease_path(index))
        except OSError:
            pass

    def release(self, owner: str, index: int) -> None:
        """Drop an unfinished lease so the cell is immediately claimable."""
        lease = self._read_lease(index)
        if lease is not None and lease["owner"] == owner:
            try:
                os.unlink(self._lease_path(index))
            except OSError:
                pass

    def reap(self, *, now: float | None = None) -> int:
        """Reset expired leases to pending; returns how many were reclaimed."""
        now = _now(now)
        reclaimed = 0
        for index in range(self.total):
            if self._is_done(index):
                continue
            lease = self._read_lease(index)
            if lease is not None and lease["deadline"] < now:
                try:
                    os.unlink(self._lease_path(index))
                except OSError:
                    continue
                reclaimed += 1
        return reclaimed

    def counts(self, *, now: float | None = None) -> LedgerCounts:
        now = _now(now)
        pending = leased = expired = done = 0
        for index in range(self.total):
            if self._is_done(index):
                done += 1
                continue
            lease = self._read_lease(index)
            if lease is None:
                pending += 1
            elif lease["deadline"] >= now:
                leased += 1
            else:
                expired += 1
        return LedgerCounts(
            total=self.total, pending=pending, leased=leased,
            expired=expired, done=done,
        )

    def owners(self, *, now: float | None = None) -> dict[str, int]:
        """Live lease count per owner (observability for ``grid status``)."""
        now = _now(now)
        tally: dict[str, int] = {}
        for index in range(self.total):
            if self._is_done(index):
                continue
            lease = self._read_lease(index)
            if lease is not None and lease["deadline"] >= now:
                tally[lease["owner"]] = tally.get(lease["owner"], 0) + 1
        return tally

    def done_indices(self) -> set[int]:
        done = set()
        for path in self._done.iterdir():
            try:
                done.add(int(path.name))
            except ValueError:
                continue
        self._known_done |= done
        return done


class SqliteLedger(FileLedger):
    """:class:`FileLedger` under the name of the removed SQLite backend.

    ``benchmarks/e2e/layers.py`` resolves ``repro.harness.lease:SqliteLedger``
    on every ``--trace`` run, so this name-only subclass keeps the lookup
    working; it defines no method, so the tracer never wraps the ledger
    twice.  The telemetry re-baseline deletes it.
    """


def open_ledger(root: str | os.PathLike, total: int) -> FileLedger:
    """Open (creating if needed) the ledger of ``total`` cells in ``root``.

    A directory holding a ``ledger.sqlite`` was started by a version that
    could pick the SQLite backend; joining it with claim files would run
    its cells under a second ledger, so it is a
    :class:`~repro.errors.ConfigurationError` instead.
    """
    root = Path(root)
    if (root / _SQLITE_NAME).exists():
        raise ConfigurationError(
            f"{root} holds a SQLite lease ledger ({_SQLITE_NAME}), which this "
            "version does not read; use a fresh --workers-dir"
        )
    return FileLedger(root, total)
