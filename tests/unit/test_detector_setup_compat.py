"""The legacy DetectorSetup surface keeps working over the registry shim.

DetectorSetup predates repro.detectors; existing call sites —
``DetectorSetup(kind=...)`` with any knob combination, the
TIME_FREE/HEARTBEAT/GOSSIP/PHI presets, ``with_()`` chains — must behave
exactly as before the registry rewire.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    GOSSIP,
    HEARTBEAT,
    PHI,
    TIME_FREE,
    DetectorSetup,
    run_scenario,
    setup_for,
)
from repro.sim.cluster import SimCluster
from repro.sim.node import QueryResponseDriver, TimedDriver


def driver_of(setup: DetectorSetup, n=5, f=1):
    cluster = SimCluster(n=n, driver_factory=setup.driver_factory(f))
    return cluster.drivers[1]


class TestPresets:
    def test_preset_kinds_and_labels_unchanged(self):
        assert (TIME_FREE.kind, TIME_FREE.label) == ("time-free", "time-free (async)")
        assert (HEARTBEAT.kind, HEARTBEAT.label) == ("heartbeat", "heartbeat Θ=2s")
        assert (GOSSIP.kind, GOSSIP.label) == ("gossip", "gossip FT Θ=2s")
        assert (PHI.kind, PHI.label) == ("phi", "phi-accrual")

    def test_preset_timing_knobs_unchanged(self):
        assert TIME_FREE.grace == 1.0
        assert (HEARTBEAT.period, HEARTBEAT.timeout) == (1.0, 2.0)
        assert (GOSSIP.period, GOSSIP.timeout) == (1.0, 2.0)
        assert (PHI.period, PHI.phi_threshold) == (1.0, 8.0)

    def test_with_returns_modified_copy(self):
        tweaked = HEARTBEAT.with_(timeout=3.0, label="slow")
        assert (tweaked.timeout, tweaked.label) == (3.0, "slow")
        assert HEARTBEAT.timeout == 2.0


class TestDriverFactoryCompat:
    def test_time_free_builds_query_driver(self):
        driver = driver_of(TIME_FREE)
        assert isinstance(driver, QueryResponseDriver)
        assert driver.core.pacing.grace == 1.0
        assert driver.elector is None

    def test_with_omega_attaches_elector(self):
        driver = driver_of(TIME_FREE.with_(with_omega=True))
        assert driver.elector is not None

    def test_heartbeat_builds_timed_driver_with_knobs(self):
        driver = driver_of(HEARTBEAT.with_(timeout=3.0))
        assert isinstance(driver, TimedDriver)
        assert driver.core.timeout_of(2) == 3.0
        assert driver.core.adaptive is False

    def test_adaptive_heartbeat_kind(self):
        driver = driver_of(DetectorSetup(kind="heartbeat-adaptive", timeout_increment=0.1))
        assert driver.core.adaptive is True
        assert driver.core.timeout_increment == 0.1

    def test_gossip_and_phi_kinds(self):
        assert driver_of(GOSSIP).core.name == "gossip-heartbeat"
        assert driver_of(PHI.with_(phi_threshold=5.0)).core.threshold == 5.0

    def test_partial_kind_builds_query_driver(self):
        driver = driver_of(DetectorSetup(kind="partial", d=5))
        assert isinstance(driver, QueryResponseDriver)

    def test_partial_without_d_raises(self):
        with pytest.raises(ConfigurationError, match="needs the parameter"):
            DetectorSetup(kind="partial").driver_factory(1)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError, match="unknown detector"):
            DetectorSetup(kind="carrier-pigeon").driver_factory(1)

    def test_retry_knob_reaches_the_driver(self):
        driver = driver_of(TIME_FREE.with_(retry=0.5))
        assert driver.core.pacing.retry == 0.5


class TestSetupFor:
    def test_known_keys_resolve_to_presets(self):
        assert setup_for("time-free") is TIME_FREE
        assert setup_for("heartbeat") is HEARTBEAT
        assert setup_for("gossip") is GOSSIP
        assert setup_for("phi") is PHI

    def test_setups_pass_through(self):
        tweaked = PHI.with_(phi_threshold=4.0)
        assert setup_for(tweaked) is tweaked

    def test_other_registered_keys_get_default_setups(self):
        setup = setup_for("heartbeat-adaptive")
        assert setup.kind == "heartbeat-adaptive"
        assert setup.label == "heartbeat-adaptive"

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigurationError, match="unknown detector"):
            setup_for("carrier-pigeon")

    def test_run_scenario_accepts_plain_keys(self):
        cluster = run_scenario(setup="heartbeat", f=1, n=4, horizon=3.0)
        assert cluster.suspects_of(1) == frozenset()
