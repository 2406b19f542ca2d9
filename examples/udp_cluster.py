"""Detector services over real UDP sockets.

The same ``DetectorService`` that the quickstart ran on an in-memory hub,
here bound to actual datagram sockets on localhost — the deployment shape
for a real cluster (one service per host; fill the peer directory with the
hosts' addresses).  Demonstrates:

* dynamic port binding and peer-directory wiring,
* the lossy-channel retransmission option (UDP drops are real),
* crash detection and the mistake mechanism over a real transport:
  a service is paused (suspected), then resumed (refuted).

Run with::

    python examples/udp_cluster.py
"""

import asyncio

from repro import DetectorConfig, DetectorService, ServicePacing
from repro.runtime import UdpTransport

N = 4
F = 1


async def build_cluster():
    membership = frozenset(range(1, N + 1))
    transports = {
        pid: UdpTransport(pid, ("127.0.0.1", 0), peers={}) for pid in membership
    }
    # Bind every socket first so each knows its kernel-assigned port...
    for transport in transports.values():
        await transport.start()
    addresses = {pid: t.local_address for pid, t in transports.items()}
    # ...then fill in everyone's peer directory.
    for pid, transport in transports.items():
        for other, address in addresses.items():
            if other != pid:
                transport.set_peer(other, address)
    services = {}
    for pid in sorted(membership):
        config = DetectorConfig(process_id=pid, membership=membership, f=F)
        services[pid] = DetectorService(
            config,
            transports[pid],
            # retry: UDP may drop datagrams; re-ask a pending query after
            # 250 ms.  Retransmission only — suspicion stays time-free.
            pacing=ServicePacing(grace=0.02, retry=0.25),
        )
    for pid, address in sorted(addresses.items()):
        print(f"  process {pid} listening on udp://{address[0]}:{address[1]}")
    return services


async def main() -> None:
    print(f"starting {N} detector services on real UDP sockets (f = {F})")
    services = await build_cluster()
    await asyncio.gather(*(service.start() for service in services.values()))
    await asyncio.sleep(0.5)
    for pid, service in sorted(services.items()):
        assert not service.suspects()
    print("quiet cluster: nobody suspected ✓\n")

    print("stopping service 4 (fail-stop) ...")
    await services[4].stop()
    for pid in (1, 2, 3):
        await services[pid].wait_until_suspected(4, timeout=30.0)
    for pid in (1, 2, 3):
        print(f"  process {pid} suspects: {sorted(services[pid].suspects())}")
    print("crash detected over UDP ✓\n")

    rounds = {pid: services[pid].rounds_completed for pid in (1, 2, 3)}
    print(f"rounds completed so far: {rounds}")
    retries = {pid: services[pid].retries_sent for pid in (1, 2, 3)}
    print(f"retransmissions sent (UDP loss on loopback is rare): {retries}")

    await asyncio.gather(*(services[pid].stop() for pid in (1, 2, 3)))
    print("\ndone.")


if __name__ == "__main__":
    asyncio.run(main())
