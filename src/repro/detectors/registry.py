"""String-keyed plugin registry of detector families.

Mirrors the library's other registries (:mod:`repro.harness.registry` for
experiment grids, :func:`repro.core.messages.register_message` for wire
messages): a family registers a :class:`~repro.detectors.spec.DetectorSpec`
under a stable lower-case key, and every consumer — simulator clusters,
the asyncio runtime, experiment grids, the CLI's ``--detector`` axis —
resolves families by key instead of importing concrete classes.

The six built-in families (:mod:`repro.detectors.builtin`) are registered
on first lookup; external code can register additional families (e.g. a
crash-recovery or ADD-channel detector) at import time with
:func:`register_detector` and they become sweepable everywhere for free.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import ConfigurationError
from .spec import BuiltDetector, DetectorContext, DetectorMode, DetectorSpec, pacing_fields

__all__ = [
    "register_detector",
    "get_detector",
    "all_detectors",
    "detector_keys",
    "build_detector",
    "sim_driver_factory",
]

_REGISTRY: dict[str, DetectorSpec] = {}


def register_detector(spec: DetectorSpec) -> DetectorSpec:
    """Register a detector family under ``spec.key``.

    Returns ``spec``, so it composes with assignment::

        SPEC = register_detector(DetectorSpec(key="mydet", ...))

    Registration is the single extension point for detectors: the sim
    driver, the runtime ``DetectorService``, the conformance battery and
    every experiment's detector axis resolve families through this
    registry by key (see ``docs/architecture.md``).  Keys are matched
    case-insensitively on lookup, so register lower-case keys.

    Re-registering the *same* spec object is a no-op (safe under repeated
    module import); a different spec under an existing key raises
    :class:`~repro.errors.ConfigurationError` — pick a new key rather
    than shadowing a built-in.
    """
    existing = _REGISTRY.get(spec.key)
    if existing is not None and existing is not spec:
        raise ConfigurationError(f"detector key {spec.key!r} is already registered")
    _REGISTRY[spec.key] = spec
    return spec


def _ensure_builtin() -> None:
    from . import builtin  # noqa: F401  (registers on import)


def get_detector(key: str) -> DetectorSpec:
    """The spec registered under ``key`` (case-insensitive)."""
    _ensure_builtin()
    spec = _REGISTRY.get(key.lower() if isinstance(key, str) else key)
    if spec is None:
        raise ConfigurationError(
            f"unknown detector kind {key!r}; registered: {sorted(_REGISTRY)}"
        )
    return spec


def all_detectors() -> dict[str, DetectorSpec]:
    """Every registered family, keyed and sorted by registry key."""
    _ensure_builtin()
    return {key: _REGISTRY[key] for key in sorted(_REGISTRY)}


def detector_keys() -> list[str]:
    return list(all_detectors())


def build_detector(
    key: str, context: DetectorContext, params: Any | None = None, /, **overrides: Any
) -> BuiltDetector:
    """Build one process's core for the family registered under ``key``."""
    return get_detector(key).build(context, params, **overrides)


# ---------------------------------------------------------------------------
# simulator integration
# ---------------------------------------------------------------------------


def sim_driver_factory(
    key: str,
    f: int,
    params: Any | None = None,
    **overrides: Any,
) -> Callable:
    """A :class:`~repro.sim.cluster.SimCluster` driver factory for ``key``.

    Every family is hosted on :class:`~repro.sim.node.TimedDriver`: timed
    cores as they are, query cores behind
    :class:`~repro.detectors.facade.QueryRoundFacade` (built as a
    :class:`~repro.sim.node.QueryResponseDriver`, which writes each round's
    ``RoundRecord``, feeds the Omega elector and counts retries).
    """
    spec = get_detector(key)
    resolved = spec.make_params(params, **overrides)
    spec.check_required(resolved)

    from ..core.protocol import QueryPacing
    from ..sim.node import QueryResponseDriver, TimedDriver

    def factory(process, cluster):
        context = DetectorContext(
            process_id=process.pid, membership=cluster.membership, f=f
        )
        built = spec.build(context, resolved)
        if spec.mode is DetectorMode.QUERY:
            pacing = QueryPacing(**pacing_fields(resolved))
            return QueryResponseDriver(process, built.core, pacing, elector=built.elector)
        return TimedDriver(process, built.core)

    return factory
