"""asyncio runtime: run the detector as a real networked service.

The simulator answers *experimental* questions; this package is what a
downstream user deploys: the same sans-I/O detector cores driven by real
transports —

* :class:`~repro.runtime.memory.MemoryHub` — in-process transport with
  injected delay/loss, for tests and single-process demos;
* :class:`~repro.runtime.udp.UdpTransport` — JSON datagrams over UDP for
  actual multi-process clusters;
* :class:`~repro.runtime.service.DetectorService` — any registered core
  hosted on the event loop with callbacks, exposing ``suspects()``, an
  async ``watch()`` stream of suspicion changes and, for a time-free
  service built ``with_omega=True``, the Omega leader as ``elector``;
* :class:`~repro.runtime.cluster.LocalCluster` — n services over a memory
  hub in one call (the quickstart entry point).

A note on fidelity: under CPython's GIL, wall-clock timing of an in-process
cluster is only approximate — fine for the detector (it is *time-free*; its
correctness never depends on delay bounds), but quantitative latency
measurements belong on the simulator.
"""

from .cluster import LocalCluster
from .memory import MemoryHub, MemoryTransport
from .service import DetectorService, ServicePacing
from .transport import Transport
from .udp import UdpTransport

__all__ = [
    "DetectorService",
    "LocalCluster",
    "MemoryHub",
    "MemoryTransport",
    "ServicePacing",
    "Transport",
    "UdpTransport",
]
