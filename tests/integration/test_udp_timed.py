"""UDP end-to-end smoke test for the *timed* detector families and Omega.

The query-core-over-UDP path is covered by ``test_runtime_asyncio``; this
is the missing half (ROADMAP item): a heartbeat-family core running over
real localhost UDP sockets via ``DetectorService.from_registry`` — encode,
datagram, decode, timed wake-up loop — asserting logical outcomes only
(who is suspected, who leads), never precise timing.  The Omega elector's
accusation counters ride the query piggyback, so its test is the one that
sends them through the UDP codec.
"""

import asyncio

import pytest

from repro.core.protocol import DetectorConfig
from repro.runtime import DetectorService, UdpTransport


def run(coro):
    return asyncio.run(coro)


async def _udp_services(membership, detector, **params):
    """Heartbeat-style services over real UDP sockets, fully wired."""
    transports = {
        pid: UdpTransport(pid, ("127.0.0.1", 0), peers={}) for pid in membership
    }
    services = {}
    for pid in membership:
        config = DetectorConfig(
            process_id=pid, membership=frozenset(membership), f=1
        )
        services[pid] = DetectorService.from_registry(
            detector, config, transports[pid], **params
        )
    # Bind all sockets first, then fill in the peer directories.
    for service in services.values():
        await service.transport.start()
    addresses = {pid: t.local_address for pid, t in transports.items()}
    for pid, transport in transports.items():
        for other, addr in addresses.items():
            if other != pid:
                transport.set_peer(other, addr)
    for service in services.values():
        await service.start()
    return services


class TestHeartbeatOverUdp:
    def test_quiet_cluster_then_crash_is_suspected(self):
        async def scenario():
            services = await _udp_services(
                {1, 2, 3}, "heartbeat", period=0.02, timeout=0.2
            )
            try:
                await asyncio.sleep(0.4)
                quiet = {pid: services[pid].suspects() for pid in services}
                # Stop 3's service: its heartbeats cease, the survivors'
                # timeouts expire, and 3 must become suspected.
                await services[3].stop()
                async with asyncio.timeout(10.0):
                    await services[1].wait_until_suspected(3)
                    await services[2].wait_until_suspected(3)
                return quiet, services[1].suspects(), services[2].suspects()
            finally:
                for pid in (1, 2):
                    await services[pid].stop()

        quiet, after_1, after_2 = run(scenario())
        assert all(not suspects for suspects in quiet.values()), quiet
        assert 3 in after_1 and 3 in after_2

    @pytest.mark.parametrize("detector", ["heartbeat-adaptive", "gossip"])
    def test_other_timed_families_run_over_udp(self, detector):
        async def scenario():
            services = await _udp_services(
                {1, 2, 3}, detector, period=0.02, timeout=0.3
            )
            try:
                await asyncio.sleep(0.4)
                return {pid: services[pid].suspects() for pid in services}
            finally:
                for service in services.values():
                    await service.stop()

        quiet = run(scenario())
        assert all(not suspects for suspects in quiet.values()), quiet


class TestOmegaOverUdp:
    def test_survivors_agree_on_a_leader_other_than_the_stopped_one(self):
        async def scenario():
            services = await _udp_services(
                {1, 2, 3, 4}, "time-free", grace=0.01, with_omega=True
            )
            survivors = [services[pid] for pid in (2, 3, 4)]

            def leaders():
                return {s.process_id: s.elector.leader() for s in survivors}

            try:
                await asyncio.sleep(0.2)
                await services[1].stop()
                async with asyncio.timeout(20.0):
                    while 1 in leaders().values() or len(set(leaders().values())) > 1:
                        await asyncio.sleep(0.01)
                return leaders()
            finally:
                for service in survivors:
                    await service.stop()

        leaders = run(scenario())
        assert 1 not in leaders.values() and len(set(leaders.values())) == 1
