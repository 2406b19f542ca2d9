"""Unit tests for the simulator drivers (round loop, timers, lifecycle)."""

import pytest

from repro.baselines.heartbeat import HeartbeatDetector
from repro.core.protocol import DetectorConfig, TimeFreeDetector
from repro.errors import ConfigurationError, SimulationError
from repro.detectors import sim_driver_factory
from repro.sim.cluster import SimCluster
from repro.sim.engine import Scheduler
from repro.sim.latency import ConstantLatency
from repro.sim.network import SimNetwork
from repro.sim.node import QueryPacing, QueryResponseDriver, SimProcess, TimedDriver
from repro.sim.rng import RngStreams
from repro.sim.topology import full_mesh
from repro.sim.trace import TraceRecorder


def make_world(n=3):
    scheduler = Scheduler()
    trace = TraceRecorder()
    network = SimNetwork(
        scheduler, full_mesh(range(1, n + 1)), ConstantLatency(0.01), RngStreams(1), trace=trace
    )
    return scheduler, network, trace


def make_qr_node(scheduler, network, trace, pid=1, n=3, f=1, pacing=None):
    process = SimProcess(pid, scheduler, network, trace)
    detector = TimeFreeDetector(DetectorConfig.for_process(pid, range(1, n + 1), f))
    driver = QueryResponseDriver(
        process, detector, pacing if pacing is not None else QueryPacing(grace=0.05)
    )
    process.bind(driver)
    return process, driver


class TestQueryResponseDriver:
    def test_foreign_message_is_ignored(self):
        # The one policy of both hosts: a message the core does not speak
        # changes nothing and raises nothing.
        scheduler, network, trace = make_world()
        process, driver = make_qr_node(scheduler, network, trace)
        process.start()
        driver.on_message(2, object())
        scheduler.run(until=1.0)
        assert trace.messages_total == 2  # the query only
        assert trace.suspicion_changes == ()

    def test_a_round_in_flight_at_detach_never_closes(self):
        cluster = SimCluster(
            n=3,
            driver_factory=sim_driver_factory("time-free", 1, grace=0.05),
            latency=ConstantLatency(0.01),
        )
        # node 1's first query is out; the answers land while it is away
        cluster.scheduler.schedule_at(0.005, cluster.processes[1].detach)
        cluster.scheduler.schedule_at(1.0, cluster.processes[1].attach)
        cluster.run(until=1.5)
        first = cluster.trace.rounds_of(1)[0]
        assert (first.round_id, first.started_at) == (2, 1.0)

    def test_attach_restarts_rounds(self):
        scheduler, network, trace = make_world()
        process, driver = make_qr_node(scheduler, network, trace)
        process.start()
        first_round = driver.detector.round_id
        process.detach()
        process.attach()
        assert driver.detector.round_id == first_round + 1
        assert driver.detector.collecting

    def test_crash_stops_everything(self):
        scheduler, network, trace = make_world()
        process, driver = make_qr_node(scheduler, network, trace)
        process.start()
        process.crash()
        scheduler.run(until=10.0)
        # No new rounds after the crash.
        assert driver.detector.round_id == 1
        assert trace.crash_time_of(1) == 0.0

    def test_double_bind_rejected(self):
        scheduler, network, trace = make_world()
        process, driver = make_qr_node(scheduler, network, trace)
        with pytest.raises(SimulationError):
            process.bind(driver)

    def test_start_without_driver_rejected(self):
        scheduler, network, trace = make_world()
        process = SimProcess(2, scheduler, network, trace)
        with pytest.raises(SimulationError):
            process.start()

    def test_pacing_validation(self):
        with pytest.raises(ConfigurationError):
            QueryPacing(grace=-1.0)
        with pytest.raises(ConfigurationError):
            QueryPacing(idle=-0.5)
        with pytest.raises(ConfigurationError):
            QueryPacing(retry=-2.0)


class _FakeTimedCore:
    """Minimal TimedProtocolCore recording calls."""

    def __init__(self, pid=1):
        self._pid = pid
        self.wakeups: list[float] = []
        self.deadline: float | None = 1.0
        self._suspects: frozenset = frozenset()

    @property
    def process_id(self):
        return self._pid

    def start(self, now):
        return []

    def on_message(self, now, sender, message):
        return []

    def on_wakeup(self, now):
        self.wakeups.append(now)
        self.deadline = now + 1.0
        return []

    def next_wakeup(self):
        return self.deadline

    def suspects(self):
        return self._suspects


class TestTimedDriver:
    def test_wakeups_follow_the_core_schedule(self):
        scheduler, network, trace = make_world()
        process = SimProcess(1, scheduler, network, trace)
        core = _FakeTimedCore()
        driver = TimedDriver(process, core)
        process.bind(driver)
        process.start()
        scheduler.run(until=3.5)
        assert core.wakeups == [1.0, 2.0, 3.0]

    def test_crash_silences_the_timer(self):
        scheduler, network, trace = make_world()
        process = SimProcess(1, scheduler, network, trace)
        core = _FakeTimedCore()
        driver = TimedDriver(process, core)
        process.bind(driver)
        process.start()
        scheduler.run(until=1.5)
        process.crash()
        scheduler.run(until=10.0)
        assert core.wakeups == [1.0]

    def test_detach_pauses_attach_resumes(self):
        scheduler, network, trace = make_world()
        process = SimProcess(1, scheduler, network, trace)
        core = _FakeTimedCore()
        driver = TimedDriver(process, core)
        process.bind(driver)
        process.start()
        scheduler.run(until=1.5)
        process.detach()
        scheduler.run(until=5.0)
        paused = list(core.wakeups)
        scheduler.schedule_at(5.0, process.attach)
        scheduler.run(until=7.5)
        assert paused == [1.0]
        # on_attach triggers an immediate wakeup, then the cadence resumes.
        assert core.wakeups[1] == 5.0
        assert core.wakeups[2:] == [6.0, 7.0]


def test_reattach_catch_up_suspicion_is_recorded():
    scheduler, network, trace = make_world()
    process = SimProcess(1, scheduler, network, trace)
    core = HeartbeatDetector(1, frozenset({1, 2, 3}), period=1.0, timeout=2.0)
    driver = TimedDriver(process, core)
    heard = []
    driver.suspicion_listeners.append(lambda pid, suspects: heard.append(suspects))
    process.bind(driver)
    process.start()
    scheduler.run(until=0.5)
    process.detach()
    scheduler.schedule_at(5.0, process.attach)
    scheduler.run(until=5.5)
    # Both timers ran out while the node was away; re-attaching catches up.
    assert driver.suspects() == frozenset({2, 3})
    assert trace.suspects_at(1, 5.5) == frozenset({2, 3})
    assert heard == [frozenset({2, 3})]


def test_a_node_down_at_its_start_time_starts_when_it_is_back():
    scheduler, network, trace = make_world()
    process = SimProcess(1, scheduler, network, trace)
    core = HeartbeatDetector(1, frozenset({1, 2, 3}), period=1.0, timeout=2.0)
    driver = TimedDriver(process, core)
    process.bind(driver)
    process.crash()
    process.start()  # slept through: the core is not started at t=0
    scheduler.schedule_at(5.0, process.recover)  # persistent state
    scheduler.run(until=5.5)
    # Started at 5.0, its peers' timers run from there: no suspicion of a
    # peer it never had the chance to hear, and its own beats go out.
    assert driver.suspects() == frozenset()
    assert trace.messages_total == 2
