"""String-keyed plugin registry of detector families.

:data:`DETECTORS` is one :class:`~repro.registry.Registry` (the lookup and
order rules are documented there): a family registers a
:class:`~repro.detectors.spec.DetectorSpec` under a stable lower-case key,
and every consumer — simulator clusters, the asyncio runtime, experiment
grids, the CLI's ``--detector`` axis — resolves families by key instead of
importing concrete classes.

The six built-in families (:mod:`repro.detectors.builtin`) are registered
on first lookup; external code can register additional families (e.g. a
crash-recovery or ADD-channel detector) at import time with
:func:`register_detector` and they become sweepable everywhere for free.
"""

from __future__ import annotations

from typing import Any, Callable

from ..registry import Registry
from .spec import BuiltDetector, DetectorContext, DetectorMode, DetectorSpec, pacing_fields

__all__ = [
    "DETECTORS",
    "register_detector",
    "get_detector",
    "all_detectors",
    "detector_keys",
    "build_detector",
    "sim_driver_factory",
]

DETECTORS: Registry[DetectorSpec] = Registry(
    "detector",
    "key",
    dict.fromkeys(
        ("gossip", "heartbeat", "heartbeat-adaptive", "partial", "phi", "time-free"),
        "repro.detectors.builtin",
    ),
)

#: ``SPEC = register_detector(DetectorSpec(key="mydet", ...))`` — the single
#: extension point for detectors (see ``docs/architecture.md``)
register_detector = DETECTORS.register
#: the spec registered under a key (case-insensitive)
get_detector = DETECTORS.get
#: every registered family, built-ins in key order, then plugins
all_detectors = DETECTORS.all
detector_keys = DETECTORS.keys


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

    The context's range density is the cluster's ``range_density``, read
    once per cluster from its graph before any driver is built, so a driver
    a volatile restart rebuilds gets the same ``d``.
    """
    spec = get_detector(key)
    resolved = spec.make_params(params, **overrides)

    from ..core.protocol import QueryPacing
    from ..sim.node import QueryResponseDriver, TimedDriver

    def factory(process, cluster):
        context = DetectorContext(
            process_id=process.pid,
            membership=cluster.membership,
            f=f,
            range_density=cluster.range_density,
        )
        built = spec.build(context, resolved)
        if spec.mode is DetectorMode.QUERY:
            pacing = QueryPacing(**pacing_fields(resolved))
            return QueryResponseDriver(process, built.core, pacing, elector=built.elector)
        return TimedDriver(process, built.core)

    return factory
