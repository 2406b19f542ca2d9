"""``repro.detectors`` — the pluggable failure-detector registry.

The paper's point is that failure detection is an interchangeable oracle
beneath consensus; this package makes it interchangeable *in code*.  Every
detector family registers a :class:`DetectorSpec` (registry key, declared
:class:`~repro.core.classes.FDClass`, drive mode, typed params, factory)
under a string key, and every substrate — the deterministic simulator, the
asyncio runtime, the experiment grids, the ``repro`` CLI — resolves
families by key through one surface.

Quickstart::

    from repro.detectors import all_detectors, build_detector, DetectorContext

    all_detectors().keys()
    # dict_keys(['gossip', 'heartbeat', 'heartbeat-adaptive',
    #            'partial', 'phi', 'time-free'])

    ctx = DetectorContext(
        process_id=1, membership=frozenset({1, 2, 3}), f=1, range_density=3
    )
    built = build_detector("phi", ctx, threshold=4.0)
    core = built.unified()         # uniform event-in/effects-out facade
    effects = core.start(now=0.0)  # -> [Broadcast(Heartbeat(...))]

Sweep a simulated cluster over any family without touching experiment
code::

    from repro.detectors import sim_driver_factory
    from repro.sim.cluster import SimCluster

    cluster = SimCluster(n=10, driver_factory=sim_driver_factory("gossip", f=2))

or from the CLI: ``python -m repro run t1 --detector heartbeat --detector phi``.

New families plug in with :func:`register_detector` and are immediately
sweepable everywhere (experiments, runtime services, conformance suite).
"""

from .facade import DetectorCore, QueryRoundFacade
from .registry import (
    all_detectors,
    build_detector,
    detector_keys,
    get_detector,
    register_detector,
    sim_driver_factory,
)
from .spec import (
    PACING_PARAMS,
    BuiltDetector,
    DetectorContext,
    DetectorMode,
    DetectorSpec,
    pacing_fields,
)

__all__ = [
    "BuiltDetector",
    "DetectorContext",
    "DetectorCore",
    "DetectorMode",
    "DetectorSpec",
    "PACING_PARAMS",
    "QueryRoundFacade",
    "pacing_fields",
    "all_detectors",
    "build_detector",
    "detector_keys",
    "get_detector",
    "register_detector",
    "sim_driver_factory",
]
