"""Unit tests for SimCluster assembly, fault wiring and relocation."""

import gc

import pytest

from repro.consensus import ConsensusHarness
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.scenarios import Scenario
from repro.harness import get_spec, run_grid
from repro.detectors import sim_driver_factory
from repro.sim import ConstantLatency, SimCluster, SimProcess
from repro.sim.engine import Scheduler
from repro.sim.faults import CrashFault, FaultPlan, MobilityFault
from repro.sim.topology import Topology, full_mesh, random_geometric
from tests.goldens import chaos_params, consensus_params, smoke_params
from tests.helpers import ScriptedUniform, live_instances


def factory():
    return sim_driver_factory("time-free", 1, grace=0.05)


class TestConstruction:
    def test_needs_exactly_one_of_n_or_topology(self):
        with pytest.raises(ConfigurationError):
            SimCluster(driver_factory=factory())
        with pytest.raises(ConfigurationError):
            SimCluster(n=3, topology=full_mesh([1, 2, 3]), driver_factory=factory())

    def test_membership_comes_from_topology(self):
        cluster = SimCluster(topology=full_mesh([5, 6, 7]), driver_factory=factory())
        assert cluster.membership == frozenset({5, 6, 7})

    def test_negative_stagger_rejected(self):
        with pytest.raises(ConfigurationError):
            SimCluster(n=3, driver_factory=factory(), start_stagger=-1.0)

    def test_fault_plan_must_name_members(self):
        plan = FaultPlan.of(crashes=[CrashFault(99, 1.0)])
        with pytest.raises(ConfigurationError):
            SimCluster(n=3, driver_factory=factory(), fault_plan=plan)

    def test_default_latency_is_one_millisecond(self):
        cluster = SimCluster(n=3, driver_factory=factory())
        assert isinstance(cluster.latency, ConstantLatency)
        assert cluster.latency.delay == pytest.approx(0.001)


class TestFaultWiring:
    def test_crash_is_scheduled(self):
        plan = FaultPlan.of(crashes=[CrashFault(2, 1.0)])
        cluster = SimCluster(n=3, driver_factory=factory(), fault_plan=plan)
        cluster.run(until=2.0)
        assert not cluster.processes[2].alive
        assert cluster.trace.crash_time_of(2) == 1.0

    def test_mobility_is_scheduled(self):
        plan = FaultPlan.of(moves=[MobilityFault(2, depart=1.0, arrive=2.0)])
        cluster = SimCluster(n=3, driver_factory=factory(), fault_plan=plan)
        cluster.run(until=1.5)
        assert not cluster.processes[2].attached
        cluster.run(until=2.5)
        assert cluster.processes[2].attached
        kinds = [(e.kind, e.time) for e in cluster.trace.mobility]
        assert kinds == [("detach", 1.0), ("attach", 2.0)]

    def test_never_returning_mover_stays_detached(self):
        plan = FaultPlan.of(moves=[MobilityFault(2, depart=1.0, arrive=None)])
        cluster = SimCluster(n=3, driver_factory=factory(), fault_plan=plan)
        cluster.run(until=10.0)
        assert not cluster.processes[2].attached
        assert cluster.processes[2].alive  # moving, not crashed

    def test_correct_processes_excludes_crashed(self):
        plan = FaultPlan.of(crashes=[CrashFault(3, 0.5)])
        cluster = SimCluster(n=4, driver_factory=factory(), fault_plan=plan)
        assert cluster.correct_processes() == frozenset({1, 2, 4})


class TestRelocation:
    def geometric_topology(self):
        positions = {
            1: (0.0, 0.0),
            2: (5.0, 0.0),
            3: (10.0, 0.0),
            4: (50.0, 0.0),
            5: (55.0, 0.0),
        }
        topo = Topology(positions.keys(), positions=positions, transmission_range=10.0)
        for a, b in ((1, 2), (2, 3), (1, 3), (4, 5)):
            topo.add_edge(a, b)
        return topo

    def test_relocation_rewires_edges_by_range(self):
        plan = FaultPlan.of(
            moves=[MobilityFault(1, depart=1.0, arrive=2.0, new_position=(52.0, 0.0))]
        )
        cluster = SimCluster(
            topology=self.geometric_topology(), driver_factory=factory(), fault_plan=plan
        )
        assert cluster.topology.neighbors(1) == frozenset({2, 3})
        cluster.run(until=3.0)
        # Reach is the recorded transmission_range: 10 units.
        assert cluster.topology.neighbors(1) == frozenset({4, 5})
        assert 1 not in cluster.topology.neighbors(2)

    def test_relocation_reaches_as_far_as_the_topology_was_built_with(self):
        # r = 10, but the longest edge the builder found is 5 (1-2).  Node 1
        # lands 6 from node 2 and 9 from node 3: both within r, both beyond
        # the longest surviving edge.
        spots = [0.0, 0.0, 5.0, 0.0, 20.0, 0.0]
        rng = ScriptedUniform(spots)
        topo = random_geometric([1, 2, 3], rng, area=30.0, transmission_range=10.0)
        assert list(topo.edges()) == [(1, 2)]
        plan = FaultPlan.of(
            moves=[MobilityFault(1, depart=1.0, arrive=2.0, new_position=(11.0, 0.0))]
        )
        cluster = SimCluster(topology=topo, driver_factory=factory(), fault_plan=plan)
        cluster.run(until=3.0)
        assert cluster.topology.neighbors(1) == frozenset({2, 3})

    def test_relocation_without_a_recorded_range_fails(self):
        positions = {1: (0.0, 0.0), 2: (5.0, 0.0), 3: (9.0, 0.0)}
        topo = Topology(positions, [(1, 2)], positions=positions)
        plan = FaultPlan.of(
            moves=[MobilityFault(1, depart=1.0, arrive=2.0, new_position=(8.0, 0.0))]
        )
        cluster = SimCluster(topology=topo, driver_factory=factory(), fault_plan=plan)
        with pytest.raises(SimulationError):
            cluster.run(until=3.0)

    def test_relocation_without_positions_fails(self):
        plan = FaultPlan.of(
            moves=[MobilityFault(2, depart=1.0, arrive=2.0, new_position=(1.0, 1.0))]
        )
        cluster = SimCluster(n=3, driver_factory=factory(), fault_plan=plan)
        with pytest.raises(SimulationError):
            cluster.run(until=3.0)


class TestElectorDiscovery:
    def test_clusters_without_omega_have_no_electors(self):
        cluster = SimCluster(n=3, driver_factory=factory())
        assert cluster.electors() == {}

    def test_with_omega_every_node_has_an_elector(self):
        cluster = SimCluster(
            n=3,
            driver_factory=sim_driver_factory(
                "time-free", 1, grace=0.05, with_omega=True
            ),
        )
        assert set(cluster.electors()) == cluster.membership


def lossy_cell():
    """An a2-shaped ``Scenario`` run (retries, loss, a crash)."""
    return Scenario(
        detector="time-free", detector_params={"grace": 0.2, "idle": 0.1, "retry": 0.3},
        n=6, f=1, horizon=6.0, seed=3, loss_rate=0.2,
        fault_plan=FaultPlan.of(crashes=[CrashFault(6, 2.0)]),
    ).run()


def trace_state(trace):
    return (
        trace.suspicion_changes, trace.rounds, trace.crashes,
        trace.messages_by_kind, trace.messages_total, trace.messages_dropped,
    )


class TestClose:
    def test_what_a_cell_reads_survives_close(self, monkeypatch):
        closed = lossy_cell()
        monkeypatch.setattr(SimCluster, "close", lambda self: None)
        twin = lossy_cell()
        assert twin.scheduler.pending_events() > 0  # the twin really is open
        assert closed.scheduler.pending_events() == 0
        assert trace_state(closed.trace) == trace_state(twin.trace)
        assert closed.correct_processes() == twin.correct_processes()
        assert closed.membership == twin.membership
        retries = {pid: d.core.retries_sent for pid, d in closed.drivers.items()}
        assert retries == {pid: d.core.retries_sent for pid, d in twin.drivers.items()}
        assert sum(retries.values()) > 0
        for pid in closed.membership:
            assert closed.suspects_of(pid) == twin.suspects_of(pid)
        assert closed.scheduler.now == twin.scheduler.now
        assert closed.scheduler.events_processed == twin.scheduler.events_processed

    def test_second_close_is_a_no_op(self):
        cluster = lossy_cell()
        state = trace_state(cluster.trace)
        cluster.close()
        assert trace_state(cluster.trace) == state
        assert cluster.scheduler.pending_events() == 0

    def test_a_closed_cluster_does_not_run(self):
        cluster = lossy_cell()
        with pytest.raises(SimulationError, match="closed"):
            cluster.run(until=10.0)
        assert cluster.scheduler.now == 6.0


#: the 22 golden grids, as (experiment, smoke params)
GOLDEN_JOBS = [
    *(pytest.param(exp_id, p, id=exp_id) for exp_id, p in smoke_params().items()),
    *(pytest.param("q1", p, id=f"q1-{name}") for name, p in chaos_params().items()),
    *(pytest.param("c1", p, id=f"c1-{name}") for name, p in consensus_params().items()),
]


@pytest.fixture(scope="module")
def imports_warm():
    # A process's first grid imports plugin discovery (importlib.metadata,
    # socket, datetime), which leaves a few hundred cyclic objects of its own.
    run_grid(get_spec("t1"), smoke_params()["t1"])


@pytest.mark.parametrize("exp_id, params", GOLDEN_JOBS)
def test_finished_cluster_is_freed_without_gc(imports_warm, exp_id, params):
    """Refcounting alone frees every cell of a golden grid: no cyclic garbage."""
    kinds = (SimProcess, SimCluster, Scheduler, ConsensusHarness)
    spec = get_spec(exp_id)
    gc.collect()
    before = [live_instances(kind) for kind in kinds]
    gc.disable()
    try:
        run_grid(spec, params)
        assert [live_instances(kind) for kind in kinds] == before
        assert gc.collect() == 0
    finally:
        gc.enable()
