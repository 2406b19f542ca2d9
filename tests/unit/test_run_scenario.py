"""``run_scenario`` names its detector by registry key and typed params.

The same ``detector`` / ``detector_params`` pair ``ConsensusHarness`` and
``LocalCluster`` take: a knob the family lacks is an error, never silently
dropped, and the four comparable families keep their table labels.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import a1_grace_ablation, scenarios
from repro.experiments.scenarios import run_scenario, table_label
from repro.sim.node import QueryResponseDriver, TimedDriver


def test_table_label_keeps_the_four_comparable_labels():
    assert table_label("time-free") == "time-free (async)"
    assert table_label("heartbeat") == "heartbeat Θ=2s"
    assert table_label("gossip") == "gossip FT Θ=2s"
    assert table_label("phi") == "phi-accrual"


@pytest.mark.parametrize("key", ["partial", "heartbeat-adaptive"])
def test_any_other_key_labels_itself(key):
    assert table_label(key) == key


def test_plain_key_runs_on_the_family_defaults():
    cluster = run_scenario(detector="heartbeat", f=1, n=4, horizon=3.0)
    assert isinstance(cluster.drivers[1], TimedDriver)
    assert cluster.drivers[1].core.timeout_of(2) == 2.0
    assert cluster.suspects_of(1) == frozenset()


def test_typed_params_reach_the_driver():
    cluster = run_scenario(
        detector="time-free", detector_params={"retry": 0.5}, f=1, n=4, horizon=1.0
    )
    driver = cluster.drivers[1]
    assert isinstance(driver, QueryResponseDriver)
    assert driver.core.pacing.retry == 0.5


def driver_of(detector, **params):
    cluster = run_scenario(
        detector=detector, detector_params=params, f=1, n=5, horizon=0.1
    )
    return cluster.drivers[1]


class TestDriverFromKey:
    """Each family's typed knobs reach the simulated driver ``run_scenario`` builds."""

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
        assert isinstance(driver_of("partial", d=5), QueryResponseDriver)

    def test_the_flat_phi_threshold_name_is_an_error(self):
        with pytest.raises(ConfigurationError, match=r"\['phi_threshold'\]"):
            driver_of("phi", phi_threshold=5.0)


def test_a_knob_the_family_lacks_is_an_error():
    with pytest.raises(ConfigurationError, match=r"unknown parameter\(s\) \['grace'\]"):
        run_scenario(detector="heartbeat", detector_params={"grace": 0.5}, f=1, n=4, horizon=1.0)


def test_a_required_knob_must_be_given():
    with pytest.raises(ConfigurationError, match="needs the parameter"):
        run_scenario(detector="partial", f=1, n=4, horizon=1.0)


def test_unknown_key_raises():
    with pytest.raises(ConfigurationError, match="unknown detector"):
        run_scenario(detector="carrier-pigeon", f=1, n=4, horizon=1.0)


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
    run_scenario(detector=detector, detector_params=params, f=1, n=3, horizon=0.1)
    assert seen == [stagger]
