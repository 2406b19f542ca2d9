"""Unit tests for DetectorService internals (asyncio runtime)."""

import asyncio

import pytest

from repro.core.protocol import DetectorConfig
from repro.errors import ConfigurationError
from repro.runtime import DetectorService, MemoryHub, ServicePacing
from repro.sim.latency import ConstantLatency
from tests.helpers import counting


def run(coro):
    return asyncio.run(coro)


def make_service(pid=1, n=3, f=1, hub=None, pacing=None):
    hub = hub if hub is not None else MemoryHub(latency=ConstantLatency(0.001))
    config = DetectorConfig.for_process(pid, range(1, n + 1), f)
    return DetectorService(
        config,
        hub.create_transport(pid),
        pacing=pacing if pacing is not None else ServicePacing(grace=0.01),
    )


class TestPacingValidation:
    def test_negative_grace_rejected(self):
        with pytest.raises(ConfigurationError):
            ServicePacing(grace=-0.1)

    def test_negative_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            ServicePacing(idle=-0.1)

    def test_zero_retry_rejected(self):
        with pytest.raises(ConfigurationError):
            ServicePacing(retry=0.0)


class TestLifecycle:
    def test_double_start_is_idempotent(self):
        """A second start() sends nothing and opens no second round."""

        async def scenario():
            hub = MemoryHub(latency=ConstantLatency(0.001))
            services = [make_service(pid, hub=hub) for pid in (1, 2, 3)]
            for service in services:
                await service.start()
            round_id = services[0].detector.core.round_id
            hub.submit = counting(hub.submit)
            await services[0].start()
            result = (services[0].running, hub.submit.calls,
                      services[0].detector.core.round_id == round_id)
            for service in services:
                await service.stop()
            return result

        assert run(scenario()) == (True, 0, True)

    def test_stop_before_start_is_safe(self):
        async def scenario():
            service = make_service()
            await service.stop()
            return service.running

        assert run(scenario()) is False

    def test_running_property(self):
        async def scenario():
            hub = MemoryHub(latency=ConstantLatency(0.001))
            services = [make_service(pid, hub=hub) for pid in (1, 2, 3)]
            before = services[0].running
            for service in services:
                await service.start()
            during = services[0].running
            for service in services:
                await service.stop()
            after = services[0].running
            return before, during, after

        assert run(scenario()) == (False, True, False)


class TestWaitHelpers:
    def test_wait_for_returns_immediately_when_satisfied(self):
        async def scenario():
            service = make_service()
            # Predicate true on the empty suspect set: no queue involved.
            result = await service.wait_for(lambda s: len(s) == 0, timeout=0.1)
            return result, len(service._watchers)

        result, watcher_count = run(scenario())
        assert result == frozenset()
        assert watcher_count == 0

    def test_wait_for_cleans_up_watcher_on_timeout(self):
        async def scenario():
            service = make_service()
            try:
                await service.wait_for(lambda s: 99 in s, timeout=0.05)
            except TimeoutError:
                pass
            return len(service._watchers)

        assert run(scenario()) == 0

    def test_wait_until_cleared_immediate(self):
        async def scenario():
            service = make_service()
            return await service.wait_until_cleared(2, timeout=0.1)

        assert run(scenario()) == frozenset()


class TestWatchers:
    def test_watcher_receives_change_notifications(self):
        async def scenario():
            hub = MemoryHub(latency=ConstantLatency(0.0005))
            services = [make_service(pid, hub=hub) for pid in (1, 2, 3)]
            for service in services:
                await service.start()
            queue = services[0].watch()
            hub.crash(3)
            await services[2].stop()
            async with asyncio.timeout(10.0):
                suspects = await queue.get()
            for service in services[:2]:
                await service.stop()
            return suspects

        assert 3 in run(scenario())
