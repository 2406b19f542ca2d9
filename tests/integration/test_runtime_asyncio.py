"""asyncio runtime integration: memory hub, services, UDP transport.

Real (tiny) sleeps are involved; assertions are about *logical* outcomes —
who is suspected, whether suspicion clears — never about precise timing,
which the GIL makes unreliable (quantitative timing lives on the DES).
"""

import asyncio
import gc

import pytest

from repro.core.protocol import DetectorConfig
from repro.errors import ConfigurationError, TransportError
from repro.runtime import (
    DetectorService,
    LocalCluster,
    MemoryHub,
    ServicePacing,
    UdpTransport,
)
from repro.sim.latency import ConstantLatency
from tests.helpers import live_instances


def run(coro):
    return asyncio.run(coro)


class TestLocalCluster:
    def test_quiet_cluster_has_no_suspicions(self):
        async def scenario():
            cluster = LocalCluster(n=4, f=1, latency=ConstantLatency(0.001), seed=2)
            await cluster.start()
            await asyncio.sleep(0.3)
            try:
                return {pid: cluster.suspects_of(pid) for pid in cluster.membership}
            finally:
                await cluster.stop()

        suspects = run(scenario())
        assert all(not s for s in suspects.values())

    def test_crashed_process_is_suspected_by_all(self):
        async def scenario():
            cluster = LocalCluster(n=5, f=2, latency=ConstantLatency(0.001), seed=3)
            await cluster.start()
            await asyncio.sleep(0.1)
            cluster.crash(3)
            await cluster.until_all_suspect(3, timeout=10.0)
            try:
                return {pid: cluster.suspects_of(pid) for pid in (1, 2, 4, 5)}
            finally:
                await cluster.stop()

        suspects = run(scenario())
        assert all(3 in s for s in suspects.values())

    def test_two_crashes_with_f_two(self):
        async def scenario():
            cluster = LocalCluster(n=6, f=2, latency=ConstantLatency(0.001), seed=4)
            await cluster.start()
            cluster.crash(5)
            cluster.crash(6)
            await cluster.until_all_suspect(5, timeout=10.0)
            await cluster.until_all_suspect(6, timeout=10.0)
            try:
                return cluster.suspects_of(1)
            finally:
                await cluster.stop()

        assert run(scenario()) >= frozenset({5, 6})

    def test_crash_of_unknown_process_rejected(self):
        async def scenario():
            cluster = LocalCluster(n=3, f=1)
            with pytest.raises(ConfigurationError):
                cluster.crash(99)
            await cluster.stop()

        run(scenario())

    def test_needs_two_processes(self):
        with pytest.raises(ConfigurationError):
            LocalCluster(n=1, f=0)


class TestDetectorServiceMechanics:
    def test_watch_stream_reports_changes(self):
        async def scenario():
            cluster = LocalCluster(n=3, f=1, latency=ConstantLatency(0.001), seed=5)
            await cluster.start()
            queue = cluster.services[1].watch()
            cluster.crash(2)
            async with asyncio.timeout(10.0):
                while True:
                    suspects = await queue.get()
                    if 2 in suspects:
                        break
            await cluster.stop()
            return suspects

        assert 2 in run(scenario())

    def test_transport_identity_must_match(self):
        hub = MemoryHub()
        transport = hub.create_transport("a")
        config = DetectorConfig.for_process("b", ["a", "b"], f=1)
        with pytest.raises(ConfigurationError):
            DetectorService(config, transport)

    def test_service_counts_rounds(self):
        async def scenario():
            cluster = LocalCluster(
                n=3,
                f=1,
                latency=ConstantLatency(0.0005),
                pacing=ServicePacing(grace=0.01),
                seed=6,
            )
            await cluster.start()
            await asyncio.sleep(0.3)
            rounds = cluster.services[1].rounds_completed
            await cluster.stop()
            return rounds

        assert run(scenario()) >= 3

    def test_service_adds_no_task_per_outgoing_message(self):
        """Responses and queries leave inside the handler / the round loop,
        and the hub delivers through timer handles: a running cluster
        creates no task at all, and stop() leaves none behind.
        """

        async def scenario():
            cluster = LocalCluster(
                n=4,
                f=1,
                latency=ConstantLatency(0.0005),
                pacing=ServicePacing(grace=0),
                seed=7,
            )
            await cluster.start()
            loop = asyncio.get_running_loop()
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(counting_factory)
            await asyncio.sleep(0.1)
            loop.set_task_factory(None)
            rounds = sum(s.rounds_completed for s in cluster.services.values())
            await cluster.stop()
            leftover = asyncio.all_tasks() - {asyncio.current_task()}
            await cluster.hub.drain()
            return created, rounds, leftover

        created, rounds, leftover = run(scenario())
        assert rounds > 0
        assert created == []
        assert leftover == set()


class TestMemoryHub:
    def test_loss_free_delivery(self):
        async def scenario():
            hub = MemoryHub(latency=ConstantLatency(0.0005))
            received = []
            a = hub.create_transport(1)
            b = hub.create_transport(2)
            b.set_handler(lambda src, msg: received.append((src, msg)))
            await a.start()
            await b.start()
            from repro.core.messages import Response

            a.send(2, Response(sender=1, round_id=7))
            await hub.drain()
            return received

        received = run(scenario())
        assert len(received) == 1
        assert received[0][0] == 1

    def test_crashed_destination_gets_nothing(self):
        async def scenario():
            hub = MemoryHub(latency=ConstantLatency(0.0005))
            received = []
            a = hub.create_transport(1)
            b = hub.create_transport(2)
            b.set_handler(lambda src, msg: received.append(msg))
            await a.start()
            await b.start()
            hub.crash(2)
            from repro.core.messages import Response

            sent = a.send(2, Response(sender=1, round_id=1))
            await hub.drain()
            return sent, received

        sent, received = run(scenario())
        assert sent is False
        assert received == []

    def test_duplicate_identity_rejected(self):
        hub = MemoryHub()
        hub.create_transport(1)
        with pytest.raises(TransportError):
            hub.create_transport(1)

    def test_send_before_start_rejected(self):
        async def scenario():
            hub = MemoryHub()
            transport = hub.create_transport(1)
            hub.create_transport(2)
            from repro.core.messages import Response

            with pytest.raises(TransportError):
                transport.send(2, Response(sender=1, round_id=1))

        run(scenario())


class TestUdpTransport:
    def test_round_trip_over_localhost(self):
        async def scenario():
            from repro.core.messages import Query, Response

            received_a, received_b = [], []
            a = UdpTransport(1, ("127.0.0.1", 0), peers={})
            await a.start()
            addr_a = a.local_address
            b = UdpTransport(2, ("127.0.0.1", 0), peers={1: addr_a})
            await b.start()
            a._peers[2] = b.local_address
            a.set_handler(lambda src, msg: received_a.append((src, msg)))
            b.set_handler(lambda src, msg: received_b.append((src, msg)))
            query = Query(sender=1, round_id=3, suspected=((2, 1),), mistakes=())
            a.send(2, query)
            for _ in range(100):
                if received_b:
                    break
                await asyncio.sleep(0.01)
            b.send(1, Response(sender=2, round_id=3))
            for _ in range(100):
                if received_a:
                    break
                await asyncio.sleep(0.01)
            await a.close()
            await b.close()
            return received_a, received_b

        received_a, received_b = run(scenario())
        assert received_b and received_b[0][0] == 1
        assert received_b[0][1].suspected == ((2, 1),)
        assert received_a and received_a[0][1].round_id == 3

    def test_receive_buffer_is_sized_for_a_datagram_and_truncates_none(self):
        # asyncio's default asks recvfrom() for 256 KiB per datagram, which
        # glibc may serve by mmap/munmap: two page faults per datagram,
        # half the round rate, in whichever processes the heap falls that way.
        async def scenario():
            from repro.core.messages import Query, encode_message

            received = []
            receiver = UdpTransport(2, ("127.0.0.1", 0), peers={})
            receiver.set_handler(lambda src, msg: received.append(msg))
            await receiver.start()
            sender = UdpTransport(1, ("127.0.0.1", 0), peers={2: receiver.local_address})
            await sender.start()
            # close to the largest payload UDP carries (65 507 bytes)
            big = Query(sender=1, round_id=1, mistakes=(),
                        suspected=tuple((pid, pid) for pid in range(5200)))
            assert 60_000 < len(encode_message(big)) <= 65_507
            sender.send(2, big)
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            size = receiver._udp.max_size
            await sender.close()
            await receiver.close()
            return size, big, received

        size, big, received = run(scenario())
        assert size == 64 * 1024
        assert received == [big]

    def test_consensus_envelope_is_delivered_under_its_ballot_sender(self):
        async def scenario():
            from repro.consensus.messages import Ack, InstanceEnvelope

            received = []
            receiver = UdpTransport(1, ("127.0.0.1", 0), peers={})
            receiver.set_handler(lambda src, msg: received.append((src, msg)))
            await receiver.start()
            sender = UdpTransport(2, ("127.0.0.1", 0), peers={1: receiver.local_address})
            await sender.start()
            envelope = InstanceEnvelope(3, Ack(2, 1))
            sender.send(1, envelope)
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            dropped = receiver.datagrams_dropped
            await sender.close()
            await receiver.close()
            return envelope, received, dropped

        envelope, received, dropped = run(scenario())
        assert received == [(2, envelope)]
        assert dropped == 0

    def test_unknown_peer_send_returns_false(self):
        async def scenario():
            transport = UdpTransport(1, ("127.0.0.1", 0), peers={})
            await transport.start()
            from repro.core.messages import Response

            result = transport.send(9, Response(sender=1, round_id=1))
            await transport.close()
            return result

        assert run(scenario()) is False

    def test_detector_services_over_udp(self):
        async def scenario():
            from repro.core.protocol import DetectorConfig

            membership = frozenset({1, 2, 3})
            transports = {}
            for pid in membership:
                transports[pid] = UdpTransport(pid, ("127.0.0.1", 0), peers={})
            services = {}
            for pid in membership:
                config = DetectorConfig(process_id=pid, membership=membership, f=1)
                services[pid] = DetectorService(
                    config, transports[pid], pacing=ServicePacing(grace=0.01)
                )
            # Bind all sockets first, then fill in the peer directories.
            for service in services.values():
                await service.transport.start()
            addresses = {pid: t.local_address for pid, t in transports.items()}
            for pid, transport in transports.items():
                for other, addr in addresses.items():
                    if other != pid:
                        transport._peers[other] = addr
            for service in services.values():
                await service.start()
            await asyncio.sleep(0.3)
            suspects = {pid: services[pid].suspects() for pid in membership}
            # Kill service 3 and wait for the survivors to notice.
            await services[3].stop()
            async with asyncio.timeout(10.0):
                await services[1].wait_until_suspected(3)
                await services[2].wait_until_suspected(3)
            result = (suspects, services[1].suspects(), services[2].suspects())
            await services[1].stop()
            await services[2].stop()
            return result

        quiet, after_1, after_2 = run(scenario())
        assert all(not s for s in quiet.values())
        assert 3 in after_1 and 3 in after_2

    def test_garbage_datagrams_are_dropped(self):
        async def scenario():
            import socket

            transport = UdpTransport(1, ("127.0.0.1", 0), peers={})
            await transport.start()
            received = []
            transport.set_handler(lambda src, msg: received.append(msg))
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.sendto(b"definitely not json", transport.local_address)
            sock.close()
            await asyncio.sleep(0.1)
            await transport.close()
            return received

        assert run(scenario()) == []

    def test_every_dropped_datagram_is_counted(self):
        """Whatever arrives, the read callback never raises; drops are counted."""

        async def scenario():
            import socket

            from repro.core.messages import Response, encode_message

            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            transport = UdpTransport(1, ("127.0.0.1", 0), peers={})
            await transport.start()
            received = []
            transport.set_handler(lambda src, msg: received.append(msg))
            dropped = [
                b"definitely not json",
                b"\xff\xfe",
                b'{"kind":[1]}',
                b'{"kind":{}}',
                b'{"kind":"fd.response","sender":2}',
                # decodes, but carries no sender to dispatch under
                b'{"kind":"consensus.instance","instance":2,"payload":5}',
            ]
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for data in dropped:
                sock.sendto(data, transport.local_address)
            sock.sendto(encode_message(Response(sender=2, round_id=1)), transport.local_address)
            sock.close()
            for _ in range(100):
                if len(received) + transport.datagrams_dropped == len(dropped) + 1:
                    break
                await asyncio.sleep(0.01)
            await transport.close()
            return len(received), transport.datagrams_dropped, len(dropped), loop_errors

        received, counted, sent_bad, loop_errors = run(scenario())
        assert loop_errors == []
        assert received == 1
        assert counted == sent_bad

    def test_a_broadcast_and_its_retry_encode_once(self, monkeypatch):
        from repro.core.messages import Query, Response
        from repro.runtime import udp

        encoded = []
        encode = udp.encode_message
        monkeypatch.setattr(
            udp, "encode_message", lambda message: encoded.append(message) or encode(message)
        )

        async def scenario():
            received = []
            receiver = UdpTransport(9, ("127.0.0.1", 0), peers={})
            receiver.set_handler(lambda src, msg: received.append(msg))
            await receiver.start()
            sender = UdpTransport(1, ("127.0.0.1", 0), peers={})
            await sender.start()
            for pid in (2, 3, 4):
                sender.set_peer(pid, receiver.local_address)
            query = Query(sender=1, round_id=5, suspected=((3, 1),), mistakes=())
            assert sender.broadcast([1, 2, 3, 4], query) == 3
            assert sender.broadcast([1, 2, 3, 4], query) == 3  # what a retry does
            after_query = len(encoded)
            response = Response(sender=1, round_id=8)
            assert sender.send(2, response) is True
            for _ in range(100):
                if len(received) == 7:
                    break
                await asyncio.sleep(0.01)
            await sender.close()
            await receiver.close()
            return after_query, query, response, received

        after_query, query, response, received = run(scenario())
        assert after_query == 1
        assert encoded == [query, response]
        assert received == [query] * 6 + [response]


def test_stopped_cluster_is_freed_without_gc():
    """stop() drops the transport's handler and the core's round listeners,
    the two edges that led back into a service: with the collector off, a
    stopped cluster's services are freed by refcounting."""

    async def scenario():
        cluster = LocalCluster(n=6, f=1, latency=ConstantLatency(0.001), seed=5)
        await cluster.start()
        await asyncio.sleep(0.2)
        await cluster.stop()

    gc.collect()
    before = live_instances(DetectorService)
    gc.disable()
    try:
        run(scenario())
        assert live_instances(DetectorService) == before
    finally:
        gc.enable()
