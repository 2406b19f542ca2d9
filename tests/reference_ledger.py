"""Reference model of the lease ledger: the removed SQLite backend.

This is ``repro.harness.lease.SqliteLedger`` as it stood while the
distributed grid runner could pick between two ledgers: every cell one row
of one ``ledger.sqlite`` table, claims serialised by ``BEGIN IMMEDIATE``.
The class body is verbatim; only the abstract base, the ``backend`` tag
and the function-level ``sqlite3`` import are gone.  Production runs
:class:`repro.harness.lease.FileLedger` (claim files) instead; this is the
oracle it must match, operation for operation
(``tests/property/test_ledger_differential.py``).
"""

from __future__ import annotations

import os
import sqlite3
import time
from pathlib import Path

from repro.harness.lease import DEFAULT_TTL, LedgerCounts

__all__ = ["SqliteLedger"]

_SQLITE_NAME = "ledger.sqlite"
_BUSY_TIMEOUT_MS = 30_000


def _now(now: float | None) -> float:
    return time.time() if now is None else now


class SqliteLedger:
    """Leases as rows of one SQLite table, claims serialised by the DB.

    ``BEGIN IMMEDIATE`` takes the write lock up front, so a claim's
    read-pick-update is atomic against every other process; readers
    (``counts``/``owners``) need no transaction.  One connection per
    instance — threads must open their own instance.
    """

    def __init__(self, root: str | os.PathLike, total: int) -> None:
        self.root = Path(root)
        self.total = total
        self._db = sqlite3.connect(
            self.root / _SQLITE_NAME, timeout=_BUSY_TIMEOUT_MS / 1000.0,
            isolation_level=None,
        )
        self._db.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
        self._db.execute("BEGIN IMMEDIATE")
        try:
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS cells ("
                "  idx INTEGER PRIMARY KEY,"
                "  state TEXT NOT NULL DEFAULT 'pending',"
                "  owner TEXT,"
                "  deadline REAL,"
                "  attempts INTEGER NOT NULL DEFAULT 0)"
            )
            self._db.executemany(
                "INSERT OR IGNORE INTO cells (idx) VALUES (?)",
                ((i,) for i in range(total)),
            )
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise

    def claim(self, owner, *, now=None, ttl=DEFAULT_TTL, shard=None):
        now = _now(now)
        where = "(state = 'pending' OR (state = 'leased' AND deadline < :now))"
        args = {"now": now, "owner": owner, "deadline": now + ttl}
        if shard is not None:
            k, n = shard
            where += " AND idx % :n = :k"
            args.update(n=n, k=k)
        self._db.execute("BEGIN IMMEDIATE")
        try:
            row = self._db.execute(
                f"SELECT idx FROM cells WHERE {where} ORDER BY idx LIMIT 1", args
            ).fetchone()
            if row is None:
                self._db.execute("COMMIT")
                return None
            self._db.execute(
                "UPDATE cells SET state = 'leased', owner = :owner,"
                " deadline = :deadline, attempts = attempts + 1 WHERE idx = :idx",
                {**args, "idx": row[0]},
            )
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        return row[0]

    def renew(self, owner, index, *, now=None, ttl=DEFAULT_TTL):
        cursor = self._db.execute(
            "UPDATE cells SET deadline = ? WHERE idx = ? AND owner = ?"
            " AND state = 'leased'",
            (_now(now) + ttl, index, owner),
        )
        return cursor.rowcount == 1

    def complete(self, owner, index):
        self._db.execute(
            "UPDATE cells SET state = 'done', owner = ?, deadline = NULL"
            " WHERE idx = ?",
            (owner, index),
        )

    def release(self, owner, index):
        self._db.execute(
            "UPDATE cells SET state = 'pending', owner = NULL, deadline = NULL"
            " WHERE idx = ? AND owner = ? AND state = 'leased'",
            (index, owner),
        )

    def reap(self, *, now=None):
        cursor = self._db.execute(
            "UPDATE cells SET state = 'pending', owner = NULL, deadline = NULL"
            " WHERE state = 'leased' AND deadline < ?",
            (_now(now),),
        )
        return cursor.rowcount

    def counts(self, *, now=None):
        now = _now(now)
        pending = leased = expired = done = 0
        for state, deadline, count in self._db.execute(
            "SELECT state, deadline >= ?, COUNT(*) FROM cells"
            " GROUP BY state, deadline >= ?",
            (now, now),
        ):
            if state == "done":
                done += count
            elif state == "pending":
                pending += count
            elif deadline:
                leased += count
            else:
                expired += count
        return LedgerCounts(
            total=self.total, pending=pending, leased=leased,
            expired=expired, done=done,
        )

    def owners(self, *, now=None):
        return dict(
            self._db.execute(
                "SELECT owner, COUNT(*) FROM cells"
                " WHERE state = 'leased' AND deadline >= ? GROUP BY owner",
                (_now(now),),
            )
        )

    def done_indices(self):
        return {
            idx for (idx,) in
            self._db.execute("SELECT idx FROM cells WHERE state = 'done'")
        }

    def close(self):
        self._db.close()
