"""Deterministic discrete-event simulation substrate.

The paper evaluates its detector on OMNeT++; this package is the equivalent
substrate built from scratch: a seeded, deterministic event scheduler
(:mod:`repro.sim.engine`), pluggable message-latency models
(:mod:`repro.sim.latency`), network topologies including the paper's
f-covering MANET construction (:mod:`repro.sim.topology`), a simulated
radio/packet network (:mod:`repro.sim.network`), crash and mobility fault
injection (:mod:`repro.sim.faults`), structured run traces
(:mod:`repro.sim.trace`), and drivers that host the sans-I/O detector cores
on all of it (:mod:`repro.sim.node`, :mod:`repro.sim.cluster`).

Determinism contract: a simulation constructed from the same parameters and
seed produces the *identical* trace (event order, timestamps, suspicions) on
every run — property-tested in ``tests/property/test_determinism.py``.
"""

from .._lazy import lazy_exports

#: submodule -> its public names, resolved on access (:mod:`repro._lazy`)
_EXPORTS = {
    ".cluster": ("SimCluster",),
    ".engine": ("EventHandle", "Scheduler"),
    ".faults": ("CrashFault", "FaultPlan", "MobilityFault"),
    ".latency": (
        "BiasedLatency",
        "ConstantLatency",
        "ExponentialLatency",
        "LatencyModel",
        "LogNormalLatency",
        "PairwiseLatency",
        "ParetoLatency",
        "RegimeShiftLatency",
        "TimeAwareLatency",
        "UniformLatency",
    ),
    ".monitors": ("MessagePatternMonitor",),
    ".network": ("SimNetwork",),
    ".node": ("QueryPacing", "QueryResponseDriver", "SimProcess", "TimedDriver"),
    ".rng": ("RngStreams",),
    ".topology": (
        "Topology", "full_mesh", "grid", "manet_topology", "random_geometric", "ring",
    ),
    ".trace": ("RoundRecord", "SuspicionChange", "TraceRecorder"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
