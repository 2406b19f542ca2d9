"""repro — a time-free (asynchronous) implementation of failure detectors.

Reproduction of **"Asynchronous Implementation of Failure Detectors"**
(DSN 2003): unreliable failure detectors of class ◇S built from a
query-response message pattern instead of timeouts, for asynchronous
crash-prone message-passing systems.  See the README's "Experiments"
section for what each registered experiment reproduces.

Quick tour
----------

Run the detector as a real asyncio service::

    from repro import LocalCluster

    cluster = LocalCluster(n=5, f=2)
    await cluster.start()
    cluster.crash(3)
    await cluster.until_all_suspect(3)

Reproduce an experiment on the deterministic simulator, from the shell
(``python -m repro run t1``) or in code::

    from repro.experiments.api import get_experiment
    from repro.harness import run_grid

    spec = get_experiment("t1")
    print(run_grid(spec, spec.make_params()).tables()[0].render())

Packages
--------

==================  =====================================================
``repro.core``      the paper's algorithm (sans-I/O; given or learned
                    membership view), FD classes, Omega
``repro.detectors`` pluggable detector registry + unified core facade
``repro.partial``   f-covering checks for the learned view (partial
                    connectivity / mobility)
``repro.sim``       deterministic discrete-event simulation substrate
``repro.runtime``   asyncio runtime (in-memory and UDP transports)
``repro.baselines`` heartbeat, gossip and phi-accrual comparators
``repro.consensus`` Chandra-Toueg ◇S consensus on top of any detector
``repro.metrics``   failure-detector QoS from run traces
``repro.experiments`` every table/figure, regenerable from code
==================  =====================================================

Deploy any registered family — say phi-accrual — the same way::

    cluster = LocalCluster(n=5, f=2, detector="phi",
                           detector_params={"period": 0.05, "threshold": 4.0})
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

#: submodule -> its public names, resolved on access (:mod:`repro._lazy`)
_EXPORTS = {
    ".core": (
        "DetectorConfig",
        "FDClass",
        "FailureDetector",
        "Query",
        "QueryRoundOutcome",
        "Response",
        "TimeFreeDetector",
    ),
    ".errors": ("ReproError",),
    ".ids": ("ProcessId", "make_membership"),
    ".runtime": ("DetectorService", "LocalCluster", "ServicePacing"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
