"""Test helpers: drive sans-I/O detectors over an instant, loss-free network.

``InstantExchange`` wires a set of :class:`TimeFreeDetector` instances
together without any scheduler: queries are delivered synchronously to a
chosen subset of peers (in a chosen order), which makes it easy to script
exact message patterns — who responds, who wins, who appears crashed —
and assert on the resulting suspicion state, line by line against the
paper's algorithm.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core import DetectorConfig, QueryRoundOutcome, TimeFreeDetector
from repro.ids import ProcessId

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``repro run t2`` overrides for CLI tests that assert on flags, exit codes,
#: cache counts and byte-identity, not on t2's numbers: still four cells (the
#: default grid's size, so "4/4 done" and "(4 cached)" read the same) at n = 8,
#: 0.04 s from a cold cache where the default n = 30 grid takes 1.3 s
SMALL_T2 = ["-p", "n=8", "-p", "f_values=[1,2,3,4]", "-p", "horizon=12.0", "-p", "crash_at=4.0"]


def fresh_python(code: str, **env: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this checkout.

    ``repro`` and ``tests`` are importable, ``REPRO_PLUGINS`` is not
    inherited (pass it in ``env``); a non-zero exit fails the test with the
    child's stderr.
    """
    environ = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    }
    environ.pop("REPRO_PLUGINS", None)
    done = subprocess.run(
        [sys.executable, "-c", code], env={**environ, **env},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def live_instances(cls: type) -> int:
    """Instances of exactly ``cls`` the collector tracks (callers collect first, or not)."""
    return sum(type(obj) is cls for obj in gc.get_objects())


def make_detectors(
    n: int, f: int, *, extra_hooks: dict | None = None
) -> dict[ProcessId, TimeFreeDetector]:
    """Build detectors for membership ``1..n`` with crash bound ``f``."""
    membership = frozenset(range(1, n + 1))
    detectors = {}
    for pid in sorted(membership):
        config = DetectorConfig(process_id=pid, membership=membership, f=f)
        detectors[pid] = TimeFreeDetector(config)
    return detectors


def counting(fn: Callable) -> Callable:
    """``fn``, counting its calls in ``.calls`` (for cost pins: counts, not timings)."""

    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


class InstantExchange:
    """Synchronously run scripted query rounds among sans-I/O detectors."""

    def __init__(self, detectors: dict[ProcessId, TimeFreeDetector]):
        self.detectors = detectors

    def run_round(
        self,
        querier: ProcessId,
        *,
        responders: Sequence[ProcessId] | None = None,
        receivers: Iterable[ProcessId] | None = None,
        finish: bool = True,
    ) -> QueryRoundOutcome | None:
        """Run one query round issued by ``querier``.

        ``receivers`` — processes that *hear* the query (default: everyone
        else alive in the exchange); they merge its contents and produce a
        response.  ``responders`` — the subset (in arrival order) whose
        responses actually reach the querier in time; default: all
        receivers, in sorted order.  With ``finish=False`` the round is
        left collecting (quorum may not have been reached).
        """
        detector = self.detectors[querier]
        broadcast = detector.start_round()
        query = broadcast.message
        if receivers is None:
            receivers = [pid for pid in sorted(self.detectors, key=repr) if pid != querier]
        receivers = list(receivers)
        responses = {}
        for pid in receivers:
            effect = self.detectors[pid].on_query(query)
            if effect is not None:
                responses[pid] = effect.message
        if responders is None:
            responders = receivers
        for pid in responders:
            if pid in responses:
                detector.on_response(responses[pid])
        if not finish:
            return None
        return detector.finish_round()


class ScriptedUniform:
    """Stands in for ``random.Random`` where only ``uniform`` is drawn: returns
    the scripted values in turn, so a test can put a node at an exact spot."""

    def __init__(self, values: Iterable[float]) -> None:
        self._values = iter(values)

    def uniform(self, low: float, high: float) -> float:
        return next(self._values)
