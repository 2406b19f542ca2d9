"""Experiment definitions: every table and figure, regenerable from code.

One module per experiment id (see the README's "Experiments" section and
docs/scenarios.md).  Each exposes a
``Params`` dataclass (with quick defaults; pass ``full()`` presets for
paper-scale runs), a declarative ``SPEC``
(:class:`~repro.experiments.api.ExperimentSpec`: generic axes +
``run_cell`` + metrics + ``tabulate``) registered with the
:mod:`repro.experiments.api` plugin registry at import.  The registry is
what ``repro run``/``repro experiments`` and CI iterate; a new in-repo
experiment is one ``register_experiment`` call plus one entry in the
built-in mapping of ``api.EXPERIMENTS`` away from all of them
(conformance-tested), and external plugins need only import before use.

``python -m repro run t1 e2 --workers 8 --out results/`` evaluates grids
on a process pool with content-hash caching and writes ``BENCH_<ID>.json``
artifacts; in code, ``run_grid(get_experiment("t1"), params)`` (from
:mod:`repro.harness` and :mod:`repro.experiments.api`) is the same path.
"""

from .report import Table

__all__ = ["Table"]
