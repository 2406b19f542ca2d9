"""One-call assembly of a whole simulated system.

``SimCluster`` wires scheduler, network, processes, drivers, fault plan and
trace together from a handful of declarative parameters, so experiments and
tests read as *what* is simulated rather than *how*.  The driver factory
picks the detector under test; every registered family enters through
:func:`repro.detectors.sim_driver_factory` (``sim_driver_factory("partial",
f)`` for the learned view, ``sim_driver_factory("heartbeat", f,
period=..., timeout=...)`` for a baseline).
"""

from __future__ import annotations

import math
from typing import Callable

from ..core.omega import OmegaElector
from ..errors import ConfigurationError, SimulationError
from ..ids import ProcessId
from .engine import Scheduler
from .faults import FaultPlan, JoinFault, LeaveFault, MobilityFault, RecoveryFault
from .latency import ConstantLatency, LatencyModel
from .network import SimNetwork
from .node import SimProcess
from .rng import RngStreams
from .topology import Topology, full_mesh
from .trace import TraceRecorder

__all__ = ["SimCluster", "DriverFactory"]

DriverFactory = Callable[[SimProcess, "SimCluster"], object]


class SimCluster:
    """A complete simulated deployment of one failure-detector protocol."""

    def __init__(
        self,
        *,
        topology: Topology | None = None,
        n: int | None = None,
        driver_factory: DriverFactory,
        latency: LatencyModel | None = None,
        seed: int = 1,
        fault_plan: FaultPlan | None = None,
        loss_rate: float = 0.0,
        start_stagger: float = 0.0,
    ) -> None:
        if (topology is None) == (n is None):
            raise ConfigurationError("provide exactly one of `topology` or `n`")
        if topology is None:
            topology = full_mesh(range(1, int(n) + 1))
        self.topology = topology
        self.membership = frozenset(topology.ids())
        #: the deployment's range density d (min degree + 1), read before any
        #: driver is built and before late joiners are isolated or a fault
        #: rewires the graph; the detector host hands it to every core
        self.range_density = topology.range_density()
        self.scheduler = Scheduler()
        self.rng = RngStreams(seed)
        self.trace = TraceRecorder()
        self.latency = latency if latency is not None else ConstantLatency(0.001)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.none()
        self.network = SimNetwork(
            self.scheduler,
            topology,
            self.latency,
            self.rng,
            loss_rate=loss_rate,
            trace=self.trace,
            bursts=self.fault_plan.bursts,
        )
        #: None once :meth:`close` has run
        self._driver_factory: DriverFactory | None = driver_factory
        self.processes: dict[ProcessId, SimProcess] = {}
        self.drivers: dict[ProcessId, object] = {}
        #: drivers a volatile restart replaced in `drivers`, released by close()
        self._replaced: list[object] = []
        for pid in sorted(self.membership, key=repr):
            process = SimProcess(pid, self.scheduler, self.network, self.trace)
            driver = driver_factory(process, self)
            process.bind(driver)
            self.processes[pid] = process
            self.drivers[pid] = driver
        # Late joiners sit out until their JoinFault fires: down, detached,
        # and (when the plan rewires them) edge-less until join time.
        for join in self.fault_plan.joins:
            process = self._process_or_raise(join.process)
            process.alive = False
            process.attached = False
            self.network.detach(join.process)
            if join.connect_to is not None:
                self.topology.isolate(join.process)
        self._schedule_start(start_stagger)
        self._schedule_faults()

    # ------------------------------------------------------------------
    def _schedule_start(self, stagger: float) -> None:
        if stagger < 0:
            raise ConfigurationError(f"start_stagger must be >= 0, got {stagger}")
        start_rng = self.rng.stream("cluster", "start")
        # Late joiners are started by their JoinFault, not here.  Legacy
        # plans have no joins, so the per-pid draw sequence is unchanged.
        joiners = frozenset(join.process for join in self.fault_plan.joins)
        self.scheduler.schedule_batch(
            (
                (start_rng.uniform(0.0, stagger) if stagger > 0 else 0.0,
                 self.processes[pid].start,
                 ())
                for pid in sorted(self.membership, key=repr)
                if pid not in joiners
            )
        )

    def _schedule_faults(self) -> None:
        events: list[tuple[float, Callable[..., None], tuple]] = []
        for crash in self.fault_plan.crashes:
            process = self._process_or_raise(crash.process)
            events.append((crash.time, process.crash, ()))
        for move in self.fault_plan.moves:
            process = self._process_or_raise(move.process)
            events.append((move.depart, process.detach, ()))
            if move.arrive is not None:
                events.append((move.arrive, self._reattach, (move,)))
        for recovery in self.fault_plan.recoveries:
            process = self._process_or_raise(recovery.process)
            events.append((recovery.crash, process.crash, ()))
            events.append((recovery.recover, self._recover, (recovery,)))
        for join in self.fault_plan.joins:
            self._process_or_raise(join.process)
            events.append((join.time, self._join, (join,)))
        for leave in self.fault_plan.leaves:
            self._process_or_raise(leave.process)
            events.append((leave.time, self._leave, (leave,)))
        for partition in self.fault_plan.partitions:
            for pid in partition.members():
                self._process_or_raise(pid)
            events.append((partition.start, self.network.begin_partition, (partition,)))
            if partition.end is not None:
                events.append((partition.end, self.network.end_partition, (partition,)))
        self.scheduler.schedule_batch(events)

    def _recover(self, fault: RecoveryFault) -> None:
        process = self.processes[fault.process]
        if fault.persistent:
            # Stable storage: the driver (and its detector state) survives.
            process.recover(fresh=False)
        else:
            # Volatile state: rebuild the detector from scratch and rebind.
            driver = self._driver_factory(process, self)
            process.rebind_driver(driver)
            self._replaced.append(self.drivers[fault.process])
            self.drivers[fault.process] = driver
            process.recover(fresh=True)

    def _join(self, fault: JoinFault) -> None:
        if fault.connect_to is not None:
            self.topology.connect(fault.process, fault.connect_to)
        self.processes[fault.process].join()

    def _leave(self, fault: LeaveFault) -> None:
        self.processes[fault.process].leave()
        self.topology.isolate(fault.process)

    def _reattach(self, move: MobilityFault) -> None:
        if move.new_position is not None:
            self._relocate(move.process, move.new_position)
        self.processes[move.process].attach()

    def _relocate(self, pid: ProcessId, position: tuple[float, float]) -> None:
        """Rewire radio edges for a node that reappears somewhere else."""
        if pid not in self.topology.positions:
            raise SimulationError(
                f"cannot relocate {pid!r}: topology has no positions"
            )
        reach = self.topology.transmission_range
        if reach is None:
            raise SimulationError(
                f"cannot relocate {pid!r}: topology records no transmission_range"
            )
        self.topology.isolate(pid)
        self.topology.positions[pid] = position
        for other in sorted(self.topology.ids(), key=repr):
            if other == pid:
                continue
            if _dist(position, self.topology.positions[other]) <= reach:
                self.topology.add_edge(pid, other)

    def _process_or_raise(self, pid: ProcessId) -> SimProcess:
        try:
            return self.processes[pid]
        except KeyError:
            raise ConfigurationError(f"fault plan names unknown process {pid!r}") from None

    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance virtual time to ``until``."""
        if self._driver_factory is None:
            raise SimulationError("the cluster is closed: it cannot run again")
        self.scheduler.run(until=until)

    def close(self) -> None:
        """Tear the cluster down once it has run; a second call is a no-op.

        Breaks its reference cycles (process <-> driver, the network's
        handler maps, pending events' callbacks, a driver factory that may
        close over its caller, and the listeners every driver ever built
        hangs on its core), so a finished cluster is freed by refcounting.
        The trace, ``membership``, ``correct_processes()``, ``drivers`` and
        ``suspects_of`` stay readable; :meth:`run` raises.
        """
        self.scheduler.clear()
        self.network.unregister_all()
        for process in self.processes.values():
            process.driver = None
        for driver in (*self.drivers.values(), *self._replaced):
            release = getattr(driver, "release", None)
            if release is not None:
                release()
        self._replaced.clear()
        self._driver_factory = None

    def suspects_of(self, pid: ProcessId) -> frozenset[ProcessId]:
        return self.drivers[pid].suspects()  # type: ignore[attr-defined]

    def correct_processes(self) -> frozenset[ProcessId]:
        return self.fault_plan.correct_processes(self.membership)

    def electors(self) -> dict[ProcessId, OmegaElector]:
        """The Omega electors, for clusters built with ``with_omega=True``."""
        result = {}
        for pid, driver in self.drivers.items():
            elector = getattr(driver, "elector", None)
            if elector is not None:
                result[pid] = elector
        return result


def _dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])
