"""Out-of-tree plugin loading (``REPRO_PLUGINS`` + entry points).

Experiments, detectors, consensus protocols and fault scenarios register
themselves at import time (:func:`repro.experiments.api.register_experiment`,
:func:`repro.detectors.register_detector`, ...), so loading a plugin is
just importing a module.  Two discovery sources feed :func:`load_plugins`:

* the ``REPRO_PLUGINS`` environment variable names modules to import —
  comma- or colon-separated, e.g.::

      REPRO_PLUGINS=mylab.experiments,mylab.detectors repro run zz ...

* installed distributions may advertise modules under the
  ``repro.plugins`` entry-point group (:mod:`importlib.metadata`), so a
  ``pip install``-ed plugin package registers with no environment setup::

      [project.entry-points."repro.plugins"]
      mylab = "mylab.experiments"

:func:`load_plugins` is called by every :class:`~repro.registry.Registry`
before a listing or the lookup of a key that is not built in, so plugin
families appear everywhere built-ins do (``repro experiments`` /
``detectors`` / ``protocols``, ``repro run``, conformance hooks) with no
further wiring; a lookup of a built-in key never loads them.  The
entry-point scan walks installed-package metadata, so its result is
cached for the process; pass ``refresh=True`` after installing something
mid-process.

Distributed runs make the plugin set part of the contract: the run
manifest (:mod:`repro.harness.grid`) records the submitter's plugin list
*per source* (``{"env": [...], "entry_points": [...]}``), and a worker
whose own loaded set differs is refused — a worker missing a plugin could
not evaluate its cells, and a worker with *extra* registrations may
disagree about what the grid even is.  Lists are kept sorted so
comparison is order-independent.
"""

from __future__ import annotations

import importlib
import os
import re

from ..errors import ConfigurationError

__all__ = [
    "PLUGIN_ENV",
    "ENTRY_POINT_GROUP",
    "plugin_modules",
    "entry_point_modules",
    "plugin_sources",
    "load_plugins",
]

PLUGIN_ENV = "REPRO_PLUGINS"

#: entry-point group installed packages use to advertise plugin modules
ENTRY_POINT_GROUP = "repro.plugins"

_SPLIT = re.compile(r"[,:]")

_entry_point_cache: tuple[str, ...] | None = None


def plugin_modules(value: str | None = None) -> tuple[str, ...]:
    """The plugin module names requested by ``REPRO_PLUGINS``, sorted.

    ``value`` overrides the environment (for tests and for recording a
    manifest's list).  Empty segments are ignored; duplicates collapse.
    """
    raw = os.environ.get(PLUGIN_ENV, "") if value is None else value
    return tuple(sorted({name.strip() for name in _SPLIT.split(raw) if name.strip()}))


def _scan_entry_points() -> tuple[tuple[str, str], ...]:
    """(entry-point name, module name) pairs in the ``repro.plugins`` group.

    Split out (and monkeypatchable) so tests can inject fake entry points
    without building an installed distribution.
    """
    from importlib import metadata

    pairs = []
    for ep in metadata.entry_points(group=ENTRY_POINT_GROUP):
        # ``module:attr`` values are allowed but only the module matters —
        # registration is an import-time side effect.
        pairs.append((ep.name, ep.value.split(":", 1)[0].strip()))
    return tuple(pairs)


def entry_point_modules(*, refresh: bool = False) -> tuple[str, ...]:
    """Module names advertised under ``repro.plugins``, sorted and cached.

    The scan reads installed-distribution metadata from disk, which is far
    too slow for every registry access, so the first result is cached for
    the life of the process; ``refresh=True`` rescans.
    """
    global _entry_point_cache
    if _entry_point_cache is None or refresh:
        _entry_point_cache = tuple(
            sorted({module for _, module in _scan_entry_points() if module})
        )
    return _entry_point_cache


def plugin_sources(value: str | None = None) -> dict[str, list[str]]:
    """Both plugin sources, in the shape the grid manifest records."""
    return {
        "env": list(plugin_modules(value)),
        "entry_points": list(entry_point_modules()),
    }


def load_plugins(value: str | None = None) -> tuple[str, ...]:
    """Import every requested plugin module; returns the sorted name list.

    Covers both sources — ``REPRO_PLUGINS`` and the ``repro.plugins``
    entry-point group.  Importing an already-imported module is a no-op,
    so calling this on every registry access is cheap.  An unimportable
    module is a :class:`~repro.errors.ConfigurationError` naming the
    module and the source that requested it — plugin typos must fail
    loudly, not silently shrink the experiment set.
    """
    requested = [(name, PLUGIN_ENV) for name in plugin_modules(value)]
    requested += [
        (name, f"entry-point group {ENTRY_POINT_GROUP!r}")
        for name in entry_point_modules()
    ]
    for name, source in requested:
        try:
            importlib.import_module(name)
        except ImportError as exc:
            raise ConfigurationError(
                f"{source} names module {name!r} which cannot be imported: {exc}"
            ) from exc
    return tuple(sorted({name for name, _ in requested}))
