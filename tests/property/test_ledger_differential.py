"""Differential: the claim-file ledger against the removed SQLite ledger.

The distributed grid runner used to pick between two lease ledgers; the
SQLite one is kept verbatim in ``tests/reference_ledger.py``.  Production
now runs :class:`repro.harness.lease.FileLedger` only.  Hypothesis drives
both with the same sequential script — ``claim`` with and without a static
shard, ``renew``, ``complete``, ``release``, ``reap`` and the read-side
``counts``, ``owners`` and ``done_indices`` — under an injected clock that
moves forward by steps short and long enough to cross lease deadlines, and
requires an equal return value from every operation.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.harness.lease import open_ledger
from tests.reference_ledger import SqliteLedger

TOTAL = 6
T0 = 1_000_000.0
OWNERS = st.sampled_from(["a", "b", "c"])
INDICES = st.integers(min_value=0, max_value=TOTAL - 1)
TTLS = st.sampled_from([1.0, 5.0, 30.0])
SHARDS = st.one_of(
    st.none(),
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.tuples(st.integers(min_value=0, max_value=n - 1), st.just(n))
    ),
)
#: how far the clock moves before a step: not at all, inside a short lease,
#: exactly onto a deadline, past the short leases, past every lease
ADVANCE = st.sampled_from([0.0, 0.5, 1.0, 4.0, 40.0])
OPS = st.one_of(
    st.tuples(st.just("claim"), OWNERS, TTLS, SHARDS),
    st.tuples(st.just("renew"), OWNERS, INDICES, TTLS),
    st.tuples(st.just("complete"), OWNERS, INDICES),
    st.tuples(st.just("release"), OWNERS, INDICES),
    st.tuples(st.just("reap")),
    st.tuples(st.just("counts")),
    st.tuples(st.just("owners")),
    st.tuples(st.just("done_indices")),
)
SCRIPTS = st.lists(st.tuples(ADVANCE, OPS), max_size=40)


def apply(ledger, now, op, *args):
    if op == "claim":
        owner, ttl, shard = args
        return ledger.claim(owner, now=now, ttl=ttl, shard=shard)
    if op == "renew":
        owner, index, ttl = args
        return ledger.renew(owner, index, now=now, ttl=ttl)
    if op in ("complete", "release"):
        return getattr(ledger, op)(*args)
    if op == "done_indices":
        return ledger.done_indices()
    return getattr(ledger, op)(now=now)


@settings(max_examples=150, deadline=None)
@given(script=SCRIPTS)
@example(script=[
    # a lease stolen on expiry, then renewed by its old owner, then reaped
    (0.0, ("claim", "a", 1.0, None)),
    (4.0, ("claim", "b", 1.0, None)),
    (0.0, ("renew", "a", 0, 30.0)),
    (0.0, ("counts",)),
    (4.0, ("reap",)),
    (0.0, ("owners",)),
])
def test_file_ledger_answers_every_operation_as_the_sqlite_ledger_did(script):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "sqlite").mkdir()
        reference = SqliteLedger(root / "sqlite", TOTAL)
        ledger = open_ledger(root / "file", TOTAL)
        now = T0
        try:
            for advance, (op, *args) in script:
                now += advance
                expected = apply(reference, now, op, *args)
                assert apply(ledger, now, op, *args) == expected, (now, op, args)
        finally:
            reference.close()
