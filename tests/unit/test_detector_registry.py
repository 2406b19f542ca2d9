"""Unit tests for the repro.detectors plugin registry."""

import dataclasses

import pytest

from repro.core.classes import FDClass
from repro.detectors import (
    BuiltDetector,
    DetectorContext,
    DetectorMode,
    DetectorSpec,
    all_detectors,
    build_detector,
    detector_keys,
    get_detector,
    register_detector,
    sim_driver_factory,
)
from repro.detectors.registry import DETECTORS
from repro.errors import ConfigurationError
from repro.sim.node import QueryDetectorCore, TimedProtocolCore

BUILTIN_KEYS = {
    "time-free",
    "partial",
    "heartbeat",
    "heartbeat-adaptive",
    "gossip",
    "phi",
}


def ctx(pid=1, n=4, f=1) -> DetectorContext:
    """A full-mesh deployment: every range is all n processes."""
    return DetectorContext(
        process_id=pid, membership=frozenset(range(1, n + 1)), f=f, range_density=n
    )


class TestRegistryLookup:
    def test_all_builtin_families_registered(self):
        assert BUILTIN_KEYS <= set(all_detectors())

    def test_keys_sorted(self):
        assert detector_keys() == sorted(detector_keys())

    def test_get_is_case_insensitive(self):
        assert get_detector("PHI") is get_detector("phi")

    def test_unknown_key_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="unknown detector"):
            get_detector("no-such-detector")

    def test_duplicate_registration_rejected(self):
        spec = get_detector("phi")
        clone = dataclasses.replace(spec)
        with pytest.raises(ConfigurationError, match="already registered"):
            register_detector(clone)

    def test_reregistering_same_spec_is_idempotent(self):
        spec = get_detector("phi")
        assert register_detector(spec) is spec


class TestSpecMetadata:
    @pytest.mark.parametrize("key", sorted(BUILTIN_KEYS))
    def test_spec_shape(self, key):
        spec = all_detectors()[key]
        assert spec.key == key
        assert isinstance(spec.fd_class, FDClass)
        assert spec.mode in (DetectorMode.QUERY, DetectorMode.TIMED)
        assert dataclasses.is_dataclass(spec.params_cls)
        assert spec.summary

    def test_query_families_declare_diamond_s(self):
        for key in ("time-free", "partial"):
            assert all_detectors()[key].fd_class is FDClass.DIAMOND_S

    def test_query_families_carry_pacing_fields(self):
        for key in ("time-free", "partial"):
            names = all_detectors()[key].param_names()
            assert {"grace", "idle", "retry"} <= names

    def test_invalid_spec_key_rejected(self):
        spec = get_detector("phi")
        with pytest.raises(ConfigurationError, match="lower-case"):
            register_detector(dataclasses.replace(spec, key="PHI"))


class TestMakeParams:
    def test_defaults(self):
        params = get_detector("heartbeat").make_params()
        assert params.period == 1.0
        assert params.timeout == 2.0

    def test_overrides(self):
        params = get_detector("phi").make_params(threshold=4.0)
        assert params.threshold == 4.0

    def test_unknown_override_raises(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            get_detector("heartbeat").make_params(threshold=4.0)

    def test_params_instance_passthrough(self):
        spec = get_detector("gossip")
        params = spec.params_cls(period=0.5, timeout=1.5)
        assert spec.make_params(params) is params

    def test_wrong_params_type_rejected(self):
        spec = get_detector("gossip")
        other = get_detector("phi").make_params()
        with pytest.raises(ConfigurationError, match="expects"):
            spec.make_params(other)

    def test_instance_plus_overrides_rejected(self):
        spec = get_detector("gossip")
        with pytest.raises(ConfigurationError):
            spec.make_params(spec.params_cls(), period=0.5)


class TestBuild:
    @pytest.mark.parametrize("key", sorted(BUILTIN_KEYS))
    def test_core_matches_declared_mode(self, key):
        built = build_detector(key, ctx())
        assert isinstance(built, BuiltDetector)
        assert built.core.process_id == 1
        assert built.core.suspects() == frozenset()
        if built.spec.mode is DetectorMode.QUERY:
            assert isinstance(built.core, QueryDetectorCore)
        else:
            assert isinstance(built.core, TimedProtocolCore)

    def test_time_free_with_omega_attaches_elector(self):
        built = build_detector("time-free", ctx(), with_omega=True)
        assert built.elector is not None
        assert built.elector.leader() in built.core.config.membership

    def test_adaptive_heartbeat_flag_wired(self):
        built = build_detector("heartbeat-adaptive", ctx(), timeout_increment=0.25)
        assert built.core.adaptive is True
        assert built.core.timeout_increment == 0.25

    def test_param_passthrough_to_core(self):
        built = build_detector("heartbeat", ctx(), timeout=3.5)
        assert built.core.timeout_of(2) == 3.5


class TestUnifiedFacade:
    @pytest.mark.parametrize("key", sorted(BUILTIN_KEYS))
    def test_every_family_exposes_unified_core(self, key):
        from repro.detectors import DetectorCore

        built = build_detector(key, ctx())
        core = built.unified()
        assert isinstance(core, DetectorCore)
        effects = core.start(0.0)
        assert isinstance(effects, list) and effects

    def test_timed_cores_pass_through(self):
        built = build_detector("gossip", ctx())
        assert built.unified() is built.core


class TestSimDriverFactory:
    def test_unknown_params_rejected_at_factory_time(self):
        with pytest.raises(ConfigurationError):
            sim_driver_factory("heartbeat", 1, grace=0.5)

    def test_external_registration_is_sweepable(self):
        """A plugin family registered from outside becomes buildable by key."""

        @dataclasses.dataclass(frozen=True)
        class NullParams:
            pass

        class NullCore:
            def __init__(self, pid):
                self._pid = pid

            @property
            def process_id(self):
                return self._pid

            def start(self, now):
                return []

            def on_message(self, now, sender, message):
                return []

            def on_wakeup(self, now):
                return []

            def next_wakeup(self):
                return None

            def suspects(self):
                return frozenset()

        spec = DetectorSpec(
            key="null-test",
            title="null",
            fd_class=FDClass.DIAMOND_S,
            mode=DetectorMode.TIMED,
            params_cls=NullParams,
            factory=lambda context, params: BuiltDetector(
                spec=None, params=params, core=NullCore(context.process_id)
            ),
        )
        register_detector(spec)
        try:
            built = build_detector("null-test", ctx())
            assert built.core.suspects() == frozenset()
        finally:
            DETECTORS.specs.pop("null-test", None)
