"""Boundary spans recorded from outside the program.

A :class:`Tracer` wraps callables (class methods, module functions, handlers
passed through a registration call) in timing shims and keeps two records:

* **aggregates** — ``(span, parent span) -> [count, total_ns, child_ns]``,
  updated in place; per-message boundaries fire millions of times per run,
  so nothing is allocated per call beyond one stack frame list;
* **coarse spans** — ``{name, detail, start, end, parent, workload}``
  dicts kept individually (workload, grid, cell, cluster build/run,
  detection sample...) and written to ``trace.json``.

Span names are ``"<layer>:<operation>"``; a layer's *self time* is the sum,
over its spans, of ``total_ns - child_ns`` — the span's duration minus the
part covered by spans it caused.  Only calls on the installing thread are
recorded (the lease heartbeat thread of a distributed worker calls wrapped
ledger methods concurrently; a shared span stack would be corrupted).

Nothing here imports the program: :mod:`benchmarks.e2e.layers` decides what
to wrap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer"]

#: coarse spans kept per process; beyond it only the aggregates grow
MAX_COARSE_SPANS = 50_000

_now = time.perf_counter_ns
_ident = threading.get_ident


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.agg: dict[tuple[str, str], list[int]] = {}
        self.tallies: dict[str, float] = {}
        self.spans: list[dict[str, Any]] = []
        self._stack: list[list] = [["", 0]]
        #: the only thread whose calls are recorded; a one-element list so
        #: the shims (which bind it once) follow a forked child's reset
        self._thread = [_ident()]
        self._undo: list[Callable[[], None]] = []
        self._fork_dir: Path | None = None
        self._fork_hooked = False

    # -- recording ---------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        coarse: bool = False,
        detail: Callable[..., str] | None = None,
        tally: tuple[str, Callable[[tuple, Any], float]] | None = None,
    ) -> Callable:
        """``fn`` with a span ``name`` around every call on the tracer's thread.

        ``tally=(counter, amount(args, result))`` adds to a named counter at
        the same boundary; ``coarse`` additionally keeps the span itself,
        labelled with ``detail(*args, **kwargs)`` when given.
        """
        stack, tallies, thread = self._stack, self.tallies, self._thread
        record, keep = self._record, self._keep

        if inspect.iscoroutinefunction(fn):
            # Only for coroutines that never suspend (the transports' send
            # paths): a real suspension would interleave other frames.
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                if _ident() != thread[0]:
                    return await fn(*args, **kwargs)
                parent = stack[-1]
                frame = [name, 0]
                stack.append(frame)
                started = _now()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    ended = _now()
                    stack.pop()
                    record(name, frame, parent, started, ended)
                return result

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if _ident() != thread[0]:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            started = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = _now()
                stack.pop()
                record(name, frame, parent, started, ended)
                if coarse:
                    keep(name, detail(*args, **kwargs) if detail else "",
                         parent, started, ended)
            if tally is not None:
                tallies[tally[0]] = tallies.get(tally[0], 0) + tally[1](args, result)
            return result

        return traced

    def _record(self, name: str, frame: list, parent: list, started: int, ended: int) -> None:
        elapsed = ended - started
        parent[1] += elapsed
        aggregate = self.agg.get((name, parent[0]))
        if aggregate is None:
            self.agg[(name, parent[0])] = [1, elapsed, frame[1]]
        else:
            aggregate[0] += 1
            aggregate[1] += elapsed
            aggregate[2] += frame[1]

    def _keep(self, name: str, detail: str, parent: list, started: int, ended: int) -> None:
        if len(self.spans) < MAX_COARSE_SPANS:
            self.spans.append({"name": name, "detail": detail, "start": started,
                               "end": ended, "parent": parent[0],
                               "workload": self.workload})

    @contextmanager
    def span(self, name: str, detail: str = ""):
        """A coarse span around a block of the benchmark's own code.

        Safe across ``await``: the frame stays on the stack while other
        callbacks of the same event loop run, which makes them its children
        — exactly what a closed-loop window or a detection sample wants.
        """
        parent = self._stack[-1]
        frame = [name, 0]
        self._stack.append(frame)
        started = _now()
        try:
            yield
        finally:
            ended = _now()
            self._stack.remove(frame)
            self._record(name, frame, parent, started, ended)
            self._keep(name, detail, parent, started, ended)

    def add(self, counter: str, amount: float) -> None:
        self.tallies[counter] = self.tallies.get(counter, 0) + amount

    # -- installing --------------------------------------------------------
    def patch_attr(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`uninstall`."""
        original = inspect.getattr_static(owner, attr)
        setter = object.__setattr__ if not isinstance(owner, type) else setattr
        setter(owner, attr, make(original))
        self._undo.append(lambda: setter(owner, attr, original))

    def patch_methods(self, cls: type, names, span: str, **options) -> None:
        """Class-level shims on the methods ``cls`` itself defines."""
        for attr in names:
            if attr in vars(cls):
                self.patch_attr(cls, attr, lambda fn: self.wrap(span, fn, **options))

    def patch_function(self, fn: Callable, span: str, **options) -> Callable:
        """Replace ``fn`` under every name a ``repro`` module binds it to.

        ``from x import f`` copies the binding, so the defining module alone
        is not enough.  Returns the shim.
        """
        traced = self.wrap(span, fn, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, lambda _orig: traced)
        return traced

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._fork_dir = None

    # -- worker processes --------------------------------------------------
    def dump_forked_children_to(self, directory: Path) -> None:
        """Forked pool workers inherit the shims; make them ship their records.

        After a fork the child starts from empty records and writes them to
        ``directory/agg-<pid>.json`` when multiprocessing finalises it (pool
        workers leave through ``os._exit``, so ``atexit`` would not run).
        """
        self._fork_dir = directory
        if not self._fork_hooked:
            self._fork_hooked = True
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self._fork_dir is None:
            return
        from multiprocessing.util import Finalize

        self.agg.clear()
        self.tallies.clear()
        self.spans.clear()
        del self._stack[1:]
        self._stack[0][1] = 0
        self._thread[0] = _ident()
        directory = self._fork_dir
        Finalize(None, lambda: self.dump(directory / f"agg-{os.getpid()}.json"),
                 exitpriority=0)

    # -- output ------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        return {
            "aggregates": [
                {"name": name, "parent": parent, "count": c, "total_ns": t, "child_ns": k}
                for (name, parent), (c, t, k) in sorted(self.agg.items())
            ],
            "tallies": dict(sorted(self.tallies.items())),
            "spans": self.spans,
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot()), encoding="utf-8")

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a worker process's records into this tracer's.

        The worker's root spans get the parent ``"(worker)"``: they ran beside
        this process's root span, not inside it.
        """
        for row in snapshot["aggregates"]:
            key = (row["name"], row["parent"] or "(worker)")
            record = self.agg.setdefault(key, [0, 0, 0])
            record[0] += row["count"]
            record[1] += row["total_ns"]
            record[2] += row["child_ns"]
        for counter, amount in snapshot["tallies"].items():
            self.add(counter, amount)
        room = MAX_COARSE_SPANS - len(self.spans)
        self.spans.extend(snapshot["spans"][:room])
