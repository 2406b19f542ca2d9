"""Leader election over the asyncio runtime.

A runtime Omega service is the time-free family built ``with_omega=True``
through the registry; its leader is read through the host's ``elector``.
"""

import asyncio

from repro.core.protocol import DetectorConfig
from repro.runtime import DetectorService, MemoryHub
from repro.sim.latency import ConstantLatency


def build_services(n, f, *, seed=1):
    hub = MemoryHub(latency=ConstantLatency(0.001), seed=seed)
    membership = frozenset(range(1, n + 1))
    services = {}
    for pid in sorted(membership):
        config = DetectorConfig(process_id=pid, membership=membership, f=f)
        services[pid] = DetectorService.from_registry(
            "time-free", config, hub.create_transport(pid), grace=0.01, with_omega=True
        )
    return hub, services


async def wait_for_leader(service, predicate, *, timeout):
    """Poll ``service.elector.leader()`` until ``predicate`` holds."""
    async with asyncio.timeout(timeout):
        while not predicate(service.elector.leader()):
            await asyncio.sleep(0.01)


def run(coro):
    return asyncio.run(coro)


class TestLeaderElectionRuntime:
    def test_initial_common_leader(self):
        async def scenario():
            hub, services = build_services(4, 1)
            await asyncio.gather(*(s.start() for s in services.values()))
            await asyncio.sleep(0.3)
            leaders = {pid: s.elector.leader() for pid, s in services.items()}
            await asyncio.gather(*(s.stop() for s in services.values()))
            return leaders

        leaders = run(scenario())
        assert len(set(leaders.values())) == 1
        assert next(iter(leaders.values())) == 1  # min id, zero accusations

    def test_crashed_leader_is_replaced_everywhere(self):
        async def scenario():
            hub, services = build_services(4, 1, seed=2)
            await asyncio.gather(*(s.start() for s in services.values()))
            await asyncio.sleep(0.2)
            # Fail-stop the initial leader.
            hub.crash(1)
            await services[1].stop()
            survivors = [services[pid] for pid in (2, 3, 4)]
            await asyncio.gather(
                *(
                    wait_for_leader(s, lambda leader: leader != 1, timeout=20.0)
                    for s in survivors
                )
            )
            leaders = {s.process_id: s.elector.leader() for s in survivors}
            await asyncio.gather(*(s.stop() for s in survivors))
            return leaders

        leaders = run(scenario())
        assert all(leader != 1 for leader in leaders.values())
        assert len(set(leaders.values())) == 1

    def test_accusations_gossip_between_services(self):
        async def scenario():
            hub, services = build_services(3, 1, seed=4)
            await asyncio.gather(*(s.start() for s in services.values()))
            hub.crash(3)
            await services[3].stop()
            await services[1].wait_until_suspected(3, timeout=20.0)
            await asyncio.sleep(0.2)  # a few more rounds of gossip
            acc_1 = services[1].elector.accusations()[3]
            acc_2 = services[2].elector.accusations()[3]
            await services[1].stop()
            await services[2].stop()
            return acc_1, acc_2

        acc_1, acc_2 = run(scenario())
        assert acc_1 > 0 and acc_2 > 0
