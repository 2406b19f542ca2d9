"""DetectorService generically driving registered cores over real transports.

The acceptance case for the registry redesign: a *timed* (non-query)
detector — heartbeat, gossip, phi — runs over the in-memory asyncio
transport through the exact same DetectorService surface as the paper's
time-free detector, and detects a crash.
"""

import asyncio
import collections

import pytest

from repro.core.protocol import DetectorConfig
from repro.errors import ConfigurationError
from repro.runtime import DetectorService, LocalCluster, MemoryHub, ServicePacing
from repro.sim.latency import ConstantLatency
from tests.helpers import counting

# Real-time knobs: fast cadence keeps each scenario to well under a second
# of wall-clock time (these are live asyncio services, not simulations).
TIMED_PARAMS = {
    "heartbeat": {"period": 0.05, "timeout": 0.2},
    "heartbeat-adaptive": {"period": 0.05, "timeout": 0.2},
    "gossip": {"period": 0.05, "timeout": 0.2},
    "phi": {"period": 0.05, "threshold": 3.0, "min_std": 0.01},
}


def run(coro):
    return asyncio.run(coro)


def make_services(detector, params, n=3, f=1, hub=None):
    hub = hub if hub is not None else MemoryHub(latency=ConstantLatency(0.001))
    services = []
    for pid in range(1, n + 1):
        config = DetectorConfig.for_process(pid, range(1, n + 1), f)
        services.append(
            DetectorService.from_registry(
                detector, config, hub.create_transport(pid), **params
            )
        )
    return hub, services


class TestTimedCoresOverMemoryTransport:
    @pytest.mark.parametrize("detector", sorted(TIMED_PARAMS))
    def test_crash_detected(self, detector):
        async def scenario():
            hub, services = make_services(detector, TIMED_PARAMS[detector])
            for service in services:
                await service.start()
            # Let a few heartbeat periods elapse so estimators warm up.
            await asyncio.sleep(0.3)
            assert services[0].suspects() == frozenset()
            hub.crash(3)
            await services[2].stop()
            async with asyncio.timeout(10.0):
                await services[0].wait_until_suspected(3)
                await services[1].wait_until_suspected(3)
            suspected = (services[0].suspects(), services[1].suspects())
            for service in services[:2]:
                await service.stop()
            return suspected

        for suspects in run(scenario()):
            assert suspects == frozenset({3})

    def test_recovered_silence_clears_suspicion(self):
        """A late heartbeat refutes the suspicion (watchers see both edges)."""

        async def scenario():
            hub, services = make_services("heartbeat", TIMED_PARAMS["heartbeat"])
            for service in services:
                await service.start()
            queue = services[0].watch()
            hub.crash(3)
            await services[2].stop()
            async with asyncio.timeout(10.0):
                first = await queue.get()
            for service in services[:2]:
                await service.stop()
            return first

        assert 3 in run(scenario())


class TestTimedLoopWakeups:
    def test_the_loop_wakes_per_deadline_not_per_message(self):
        """``CoreHost._arm``'s rule in the runtime host: a beat that only moves a
        peer's timer later must not re-arm the timer set for the next
        emission.  Counts, not timings: timers the services hand the event
        loop against beats sent and messages received."""

        async def scenario():
            loop = asyncio.get_running_loop()
            armed = collections.Counter()
            call_at = loop.call_at

            def counting_call_at(when, callback, *args, **kwargs):
                owner = getattr(callback, "__self__", None)
                if isinstance(owner, DetectorService):
                    armed[owner.process_id] += 1
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = counting_call_at
            hub, services = make_services(
                "heartbeat", {"period": 0.05, "timeout": 0.4}, n=6, f=1
            )
            for service in services:
                service.detector.on_message = counting(service.detector.on_message)
            for service in services:
                await service.start()
            await asyncio.sleep(0.5)
            quiet = [service.suspects() for service in services]
            beats = [service.detector._seq for service in services]
            timers = [armed[service.process_id] for service in services]
            received = [service.detector.on_message.calls for service in services]
            for service in services:
                await service.stop()
            return quiet, beats, timers, received

        quiet, beats, timers, received = run(scenario())
        assert quiet == [frozenset()] * 6
        for index in range(6):
            assert beats[index] >= 4 and received[index] >= 4 * 5
            # one timer per emission (no peer timer expired: the cluster is
            # quiet), plus the one armed at start
            assert timers[index] <= beats[index] + 1, (timers, beats)
            assert timers[index] < received[index] / 2, (timers, received)


class TestFromRegistryValidation:
    def test_unknown_detector_raises(self):
        async def scenario():
            hub = MemoryHub()
            config = DetectorConfig.for_process(1, (1, 2, 3), 1)
            DetectorService.from_registry("nope", config, hub.create_transport(1))

        with pytest.raises(ConfigurationError, match="unknown detector"):
            run(scenario())

    def test_unknown_param_raises(self):
        async def scenario():
            hub = MemoryHub()
            config = DetectorConfig.for_process(1, (1, 2, 3), 1)
            DetectorService.from_registry(
                "heartbeat", config, hub.create_transport(1), grace=1.0
            )

        with pytest.raises(ConfigurationError, match="unknown parameter"):
            run(scenario())

    def test_query_pacing_knobs_become_service_pacing(self):
        """grace/idle/retry params of a query family drive the real loop."""

        async def scenario():
            hub = MemoryHub()
            config = DetectorConfig.for_process(1, (1, 2, 3), 1)
            return DetectorService.from_registry(
                "time-free", config, hub.create_transport(1),
                grace=0.01, idle=0.02, retry=0.5,
            )

        service = run(scenario())
        assert service.pacing == ServicePacing(grace=0.01, idle=0.02, retry=0.5)

    def test_pacing_and_pacing_params_conflict(self):
        async def scenario():
            hub = MemoryHub()
            config = DetectorConfig.for_process(1, (1, 2, 3), 1)
            DetectorService.from_registry(
                "time-free", config, hub.create_transport(1),
                pacing=ServicePacing(grace=0.01), retry=0.5,
            )

        with pytest.raises(ConfigurationError, match="not both"):
            run(scenario())

    def test_query_family_via_registry_still_time_free(self):
        """from_registry('time-free') behaves like the classic constructor."""

        async def scenario():
            hub = MemoryHub(latency=ConstantLatency(0.001))
            services = []
            for pid in (1, 2, 3):
                config = DetectorConfig.for_process(pid, (1, 2, 3), 1)
                services.append(
                    DetectorService.from_registry(
                        "time-free",
                        config,
                        hub.create_transport(pid),
                        pacing=ServicePacing(grace=0.01),
                    )
                )
            for service in services:
                await service.start()
            hub.crash(3)
            await services[2].stop()
            async with asyncio.timeout(10.0):
                await services[0].wait_until_suspected(3)
            rounds = services[0].rounds_completed
            for service in services[:2]:
                await service.stop()
            return rounds

        assert run(scenario()) > 0


class TestLocalClusterPacing:
    def test_partial_pacing_knobs_merge_with_cluster_defaults(self):
        """Setting one knob must not reset the others to sim-scale values."""

        async def scenario():
            cluster = LocalCluster(n=3, f=1, detector_params={"idle": 0.05})
            return cluster.services[1].pacing

        pacing = run(scenario())
        assert pacing == ServicePacing(grace=0.02, idle=0.05, retry=None)

    def test_pacing_knobs_for_timed_families_stay_loud(self):
        async def scenario():
            LocalCluster(
                n=3, f=1, detector="heartbeat", detector_params={"grace": 0.5}
            )

        with pytest.raises(ConfigurationError, match="unknown parameter"):
            run(scenario())


class TestLocalClusterDetectorAxis:
    def test_heartbeat_cluster_end_to_end(self):
        async def scenario():
            cluster = LocalCluster(
                n=3,
                f=1,
                detector="heartbeat",
                detector_params=TIMED_PARAMS["heartbeat"],
                latency=ConstantLatency(0.001),
            )
            await cluster.start()
            cluster.crash(3)
            async with asyncio.timeout(10.0):
                await cluster.until_all_suspect(3)
            result = {pid: cluster.suspects_of(pid) for pid in (1, 2)}
            await cluster.stop()
            return result

        result = run(scenario())
        assert result == {1: frozenset({3}), 2: frozenset({3})}

    def test_default_cluster_unchanged(self):
        async def scenario():
            cluster = LocalCluster(n=3, f=1, latency=ConstantLatency(0.001))
            assert cluster.detector_kind == "time-free"
            await cluster.start()
            cluster.crash(2)
            async with asyncio.timeout(10.0):
                await cluster.until_suspected(observer=1, target=2)
            await cluster.stop()
            return True

        assert run(scenario()) is True
