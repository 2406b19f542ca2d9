"""A ``Scenario`` names its detector by registry key and typed params.

The same ``detector`` / ``detector_params`` pair ``LocalCluster`` takes: a
knob the family lacks is an error, never silently dropped, and the four
comparable families keep their table labels.  The range density is the
deployment's, never a knob.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments import a1_grace_ablation, scenarios
from repro.experiments.scenarios import Scenario, table_label, victim_window
from repro.sim.faults import CrashFault, FaultPlan
from repro.sim.node import QueryResponseDriver, TimedDriver
from repro.sim.topology import ring


def test_table_label_keeps_the_four_comparable_labels():
    assert table_label("time-free") == "time-free (async)"
    assert table_label("heartbeat") == "heartbeat Θ=2s"
    assert table_label("gossip") == "gossip FT Θ=2s"
    assert table_label("phi") == "phi-accrual"


@pytest.mark.parametrize("key", ["partial", "heartbeat-adaptive"])
def test_any_other_key_labels_itself(key):
    assert table_label(key) == key


def test_plain_key_runs_on_the_family_defaults():
    cluster = Scenario(detector="heartbeat", f=1, n=4, horizon=3.0).run()
    assert isinstance(cluster.drivers[1], TimedDriver)
    assert cluster.drivers[1].core.timeout_of(2) == 2.0
    assert cluster.suspects_of(1) == frozenset()


def test_typed_params_reach_the_driver():
    cluster = Scenario(
        detector="time-free", detector_params={"retry": 0.5}, f=1, n=4, horizon=1.0
    ).run()
    driver = cluster.drivers[1]
    assert isinstance(driver, QueryResponseDriver)
    assert driver.core.pacing.retry == 0.5


def driver_of(detector, **params):
    cluster = Scenario(
        detector=detector, detector_params=params, f=1, n=5, horizon=0.1
    ).run()
    return cluster.drivers[1]


class TestDriverFromKey:
    """Each family's typed knobs reach the simulated driver a ``Scenario`` builds."""

    def test_time_free_builds_query_driver(self):
        driver = driver_of("time-free")
        assert isinstance(driver, QueryResponseDriver)
        assert driver.core.pacing.grace == 1.0
        assert driver.elector is None

    def test_with_omega_attaches_elector(self):
        assert driver_of("time-free", with_omega=True).elector is not None

    def test_heartbeat_builds_timed_driver_with_knobs(self):
        driver = driver_of("heartbeat", timeout=3.0)
        assert isinstance(driver, TimedDriver)
        assert driver.core.timeout_of(2) == 3.0
        assert driver.core.adaptive is False

    def test_adaptive_heartbeat_kind(self):
        driver = driver_of("heartbeat-adaptive", timeout_increment=0.1)
        assert driver.core.adaptive is True
        assert driver.core.timeout_increment == 0.1

    def test_gossip_and_phi_kinds(self):
        assert driver_of("gossip").core.name == "gossip-heartbeat"
        assert driver_of("phi", threshold=5.0).core.threshold == 5.0

    def test_partial_kind_builds_query_driver(self):
        assert isinstance(driver_of("partial"), QueryResponseDriver)

    def test_the_flat_phi_threshold_name_is_an_error(self):
        with pytest.raises(ConfigurationError, match=r"\['phi_threshold'\]"):
            driver_of("phi", phi_threshold=5.0)


def test_a_knob_the_family_lacks_is_an_error():
    with pytest.raises(ConfigurationError, match=r"unknown parameter\(s\) \['grace'\]"):
        Scenario(
            detector="heartbeat", detector_params={"grace": 0.5}, f=1, n=4, horizon=1.0
        ).run()


def test_the_range_density_is_not_a_knob():
    with pytest.raises(ConfigurationError, match=r"unknown parameter\(s\) \['d'\]"):
        Scenario(detector="partial", detector_params={"d": 4}, f=1, n=4, horizon=1.0).run()


def test_partial_reads_d_from_a_full_mesh():
    cluster = Scenario(detector="partial", f=1, n=4, horizon=0.1).run()
    assert cluster.drivers[1].detector.config.range_density == 4


def test_partial_on_a_ring_reads_d_from_the_graph():
    # A ring's smallest range is a node and its two neighbours: d = 3,
    # quorum d - f = 2.  Nobody passes d.
    cluster = Scenario(
        detector="partial", topology=ring(range(1, 8)), f=1, horizon=0.1
    ).run()
    assert {driver.detector.config.range_density for driver in cluster.drivers.values()} == {3}
    assert cluster.drivers[1].detector.config.quorum == 2


def test_a_scenario_is_a_frozen_value_and_runs_once_per_cluster():
    scenario = Scenario(detector="heartbeat", f=1, n=3, horizon=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.horizon = 1.0  # type: ignore[misc]
    first, second = scenario.run(), scenario.run()
    assert first is not second
    assert first.trace.messages_total == second.trace.messages_total > 0
    with pytest.raises(SimulationError, match="closed"):
        first.run(until=1.0)


@pytest.mark.parametrize("crash_at", [2.0, 8.0])
def test_victim_window_reads_the_victims_down_window(crash_at):
    plan = FaultPlan.of(crashes=[CrashFault(4, crash_at)])
    cluster = Scenario(detector="heartbeat", n=4, f=1, horizon=6.0, fault_plan=plan).run()
    window = victim_window(cluster, 4, 6.0)
    assert window.crashed == 4
    if crash_at < 6.0:
        assert window.crash_time == crash_at and window.detected_by_all
    else:
        # The run ends before the crash: nothing went down, nothing was detected.
        assert (window.latencies, window.mean_latency) == ({}, None)


def test_unknown_key_raises():
    with pytest.raises(ConfigurationError, match="unknown detector"):
        Scenario(detector="carrier-pigeon", f=1, n=4, horizon=1.0).run()


def test_a1_on_a_timer_family_names_the_knobs_it_lacks():
    params = a1_grace_ablation.A1Params(detector="heartbeat")
    with pytest.raises(ConfigurationError, match=r"\['grace', 'idle'\].*'heartbeat'"):
        a1_grace_ablation.run_cell(params, {"grace": 0.0}, 1)


@pytest.mark.parametrize(
    ("detector", "params", "stagger"),
    [
        ("time-free", {}, 1.0),
        ("time-free", {"grace": 0.004}, 1.0),  # f3: the 1 s floor holds
        ("time-free", {"grace": 2.5}, 2.5),
        ("heartbeat", {"period": 0.5}, 1.0),
        ("heartbeat", {"period": 3.0}, 3.0),
    ],
)
def test_default_stagger_is_one_second_or_the_longer_period(
    monkeypatch, detector, params, stagger
):
    seen = []
    real = scenarios.SimCluster

    def spy(**kwargs):
        seen.append(kwargs["start_stagger"])
        return real(**kwargs)

    monkeypatch.setattr(scenarios, "SimCluster", spy)
    Scenario(detector=detector, detector_params=params, f=1, n=3, horizon=0.1).run()
    assert seen == [stagger]
