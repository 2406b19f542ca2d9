"""Unit tests for the lease ledger and its SQLite oracle.

Every behavioural test runs on :class:`FileLedger`, the one ledger, and on
the removed SQLite ledger kept in ``tests/reference_ledger.py`` — the two
answer every operation alike (``tests/property/test_ledger_differential.py``
checks that on random scripts).
"""

import multiprocessing
import threading

import pytest

from repro.harness.lease import open_ledger
from tests.reference_ledger import SqliteLedger

T0 = 1_000_000.0


def close(ledger):
    """Close the oracle's connection; a ``FileLedger`` holds nothing open."""
    if isinstance(ledger, SqliteLedger):
        ledger.close()


@pytest.fixture(params=["sqlite", "file"])
def make_ledger(request, tmp_path):
    """Factory for ledgers sharing one directory (like workers share it)."""
    root = tmp_path / "run"
    root.mkdir()

    def factory(total=8):
        if request.param == "sqlite":
            return SqliteLedger(root, total)
        return open_ledger(root, total)

    return factory


class TestClaim:
    def test_claims_lowest_pending_first(self, make_ledger):
        ledger = make_ledger(total=4)
        assert [ledger.claim("w", now=T0) for _ in range(5)] == [0, 1, 2, 3, None]

    def test_live_leases_are_not_reclaimable(self, make_ledger):
        ledger = make_ledger(total=1)
        assert ledger.claim("a", now=T0, ttl=10) == 0
        assert ledger.claim("b", now=T0 + 5) is None

    def test_expired_leases_are_claimable_by_anyone(self, make_ledger):
        ledger = make_ledger(total=1)
        assert ledger.claim("a", now=T0, ttl=10) == 0
        assert ledger.claim("b", now=T0 + 11) == 0

    def test_shard_restricts_claims(self, make_ledger):
        ledger = make_ledger(total=6)
        claimed = [ledger.claim("w2", now=T0, shard=(1, 2)) for _ in range(4)]
        assert claimed == [1, 3, 5, None]

    def test_done_cells_are_never_claimable(self, make_ledger):
        ledger = make_ledger(total=2)
        assert ledger.claim("a", now=T0, ttl=1) == 0
        ledger.complete("a", 0)
        # Even long after the (deleted) lease would have expired.
        assert ledger.claim("b", now=T0 + 100, ttl=1000) == 1
        assert ledger.claim("b", now=T0 + 200) is None


class TestRenewRelease:
    def test_renew_extends_the_deadline(self, make_ledger):
        ledger = make_ledger(total=1)
        assert ledger.claim("a", now=T0, ttl=10) == 0
        assert ledger.renew("a", 0, now=T0 + 8, ttl=10) is True
        # Past the original deadline, before the renewed one.
        assert ledger.claim("b", now=T0 + 15) is None
        assert ledger.claim("b", now=T0 + 19) == 0

    def test_renew_after_steal_reports_loss(self, make_ledger):
        ledger = make_ledger(total=1)
        assert ledger.claim("a", now=T0, ttl=5) == 0
        assert ledger.claim("b", now=T0 + 6, ttl=5) == 0  # b stole it
        assert ledger.renew("a", 0, now=T0 + 7) is False

    def test_renew_unowned_cell_is_false(self, make_ledger):
        ledger = make_ledger(total=1)
        assert ledger.renew("a", 0, now=T0) is False

    def test_release_makes_cell_immediately_claimable(self, make_ledger):
        ledger = make_ledger(total=1)
        assert ledger.claim("a", now=T0, ttl=100) == 0
        ledger.release("a", 0)
        assert ledger.claim("b", now=T0 + 1) == 0


class TestCountsAndReap:
    def test_counts_by_state(self, make_ledger):
        ledger = make_ledger(total=5)
        ledger.claim("a", now=T0, ttl=10)      # 0: live lease
        ledger.claim("a", now=T0, ttl=1)       # 1: will expire
        done = ledger.claim("a", now=T0, ttl=10)  # 2: done
        ledger.complete("a", done)
        counts = ledger.counts(now=T0 + 5)
        assert (counts.total, counts.pending, counts.leased) == (5, 2, 1)
        assert (counts.expired, counts.done) == (1, 1)
        assert counts.remaining == 4
        assert not counts.all_done

    def test_all_done(self, make_ledger):
        ledger = make_ledger(total=2)
        for _ in range(2):
            ledger.complete("a", ledger.claim("a", now=T0))
        assert ledger.counts(now=T0).all_done
        assert ledger.done_indices() == {0, 1}

    def test_reap_resets_only_expired(self, make_ledger):
        ledger = make_ledger(total=3)
        ledger.claim("a", now=T0, ttl=1)    # expires
        ledger.claim("b", now=T0, ttl=100)  # stays live
        assert ledger.reap(now=T0 + 5) == 1
        counts = ledger.counts(now=T0 + 5)
        assert (counts.pending, counts.leased, counts.expired) == (2, 1, 0)

    def test_owners_tally(self, make_ledger):
        ledger = make_ledger(total=4)
        ledger.claim("a", now=T0, ttl=10)
        ledger.claim("a", now=T0, ttl=10)
        ledger.claim("b", now=T0, ttl=10)
        assert ledger.owners(now=T0 + 1) == {"a": 2, "b": 1}


class TestPersistence:
    def test_state_survives_reopen(self, make_ledger):
        first = make_ledger(total=3)
        first.complete("a", first.claim("a", now=T0))
        first.claim("a", now=T0, ttl=1000)
        close(first)
        second = make_ledger(total=3)
        counts = second.counts(now=T0 + 1)
        assert (counts.done, counts.leased, counts.pending) == (1, 1, 1)
        # The reopened ledger claims the remaining pending cell, not the
        # done or leased ones.
        assert second.claim("b", now=T0 + 1) == 2

    def test_concurrent_claimers_never_double_claim(self, make_ledger):
        total = 40
        close(make_ledger(total=total))  # initialise rows once
        per_worker: dict[str, list[int]] = {}

        def worker(name):
            ledger = make_ledger(total=total)
            mine = per_worker.setdefault(name, [])
            while True:
                index = ledger.claim(name, ttl=600)
                if index is None:
                    break
                mine.append(index)
                ledger.complete(name, index)
            close(ledger)

        threads = [threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        claimed = [i for mine in per_worker.values() for i in mine]
        assert sorted(claimed) == list(range(total))  # each cell exactly once


def _claim_until_none(root, total, owner, start, claimed):
    """One racing process: claim with a long TTL until nothing is left."""
    ledger = open_ledger(root, total)
    start.wait()
    mine = []
    while (index := ledger.claim(owner, ttl=3600)) is not None:
        mine.append(index)
    claimed.put(mine)


class TestCrossProcess:
    def test_racing_processes_claim_every_cell_exactly_once(self, tmp_path):
        # The exclusive create (os.link) is what keeps two hosts off one
        # fresh cell; four processes released together race for all 200.
        total, workers = 200, 4
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(workers)
        claimed = context.Queue()
        processes = [
            context.Process(
                target=_claim_until_none,
                args=(tmp_path, total, f"p{i}", start, claimed),
            )
            for i in range(workers)
        ]
        for process in processes:
            process.start()
        shares = [claimed.get(timeout=60) for _ in processes]
        for process in processes:
            process.join(timeout=10)
            assert process.exitcode == 0
        assert sorted(i for share in shares for i in share) == list(range(total))

