"""The simulated packet network.

Semantics follow the paper's model:

* processes communicate only with their topology neighbors (1-hop range);
  a broadcast by ``p_i`` is heard by every correct, attached process in
  ``range_i``;
* links are reliable by default — they do not create, alter or lose
  messages (an optional loss rate exists for robustness experiments and is
  off in every reproduction scenario);
* per-message delays come from a :class:`~repro.sim.latency.LatencyModel`,
  so there is **no bound** on transfer time — the network is asynchronous;
* a *detached* (moving) node neither sends nor receives: messages to or
  from it are dropped, exactly like the follow-up report's "disturbance
  region" model of mobility.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SimulationError
from ..ids import ProcessId
from ..core.messages import message_kind_of
from .engine import Scheduler
from .faults import LossBurst, PartitionFault
from .latency import LatencyModel
from .rng import RngStreams
from .topology import Topology
from .trace import TraceRecorder

__all__ = ["SimNetwork"]

DeliveryHandler = Callable[[ProcessId, object], None]


class SimNetwork:
    """Routes messages between registered simulated processes."""

    def __init__(
        self,
        scheduler: Scheduler,
        topology: Topology,
        latency: LatencyModel,
        rng: RngStreams,
        *,
        loss_rate: float = 0.0,
        trace: TraceRecorder | None = None,
        bursts: tuple[LossBurst, ...] = (),
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.scheduler = scheduler
        self.topology = topology
        self.latency = latency
        self.trace = trace if trace is not None else TraceRecorder()
        self._delay_rng = rng.stream("network", "delay")
        self._loss_rng = rng.stream("network", "loss")
        self._loss_rate = loss_rate
        #: zero-loss fast path: reproduction scenarios never draw from the
        #: loss RNG, so the per-message branch reduces to one attribute read.
        self._lossy = loss_rate > 0.0
        self._handlers: dict[ProcessId, DeliveryHandler] = {}
        self._detached: set[ProcessId] = set()
        #: `_handlers` minus detached pids: one dict probe decides both
        #: "is attached" and "who receives" on the delivery hot path.
        self._live_handlers: dict[ProcessId, DeliveryHandler] = {}
        #: active partitions, as ``(fault, process -> side index)`` pairs;
        #: empty in every legacy scenario so the hot-path cost is one truth
        #: test on the list.
        self._partitions: list[tuple[PartitionFault, dict[ProcessId, int]]] = []
        #: loss-burst episodes with precomputed undirected link sets; draws
        #: come from their own RNG stream, so burst-free runs never touch it.
        self._bursts: tuple[
            tuple[LossBurst, frozenset[frozenset[ProcessId]] | None], ...
        ] = tuple(
            (
                burst,
                None
                if burst.links is None
                else frozenset(frozenset(pair) for pair in burst.links),
            )
            for burst in bursts
        )
        self._burst_rng = rng.stream("network", "burst") if self._bursts else None

    # ------------------------------------------------------------------
    def register(self, pid: ProcessId, handler: DeliveryHandler) -> None:
        """Attach a process's delivery callback (``handler(src, message)``)."""
        if pid not in self.topology:
            raise SimulationError(f"{pid!r} is not a node of the topology")
        if pid in self._handlers:
            raise SimulationError(f"{pid!r} is already registered")
        self._handlers[pid] = handler
        if pid not in self._detached:
            self._live_handlers[pid] = handler

    def rebind(self, pid: ProcessId, handler: DeliveryHandler) -> None:
        """Replace an already-registered delivery callback.

        :meth:`SimProcess.bind` uses this to route deliveries straight
        into the driver, skipping the process's relay frame on the
        per-message hot path.
        """
        if pid not in self._handlers:
            raise SimulationError(f"{pid!r} is not registered")
        self._handlers[pid] = handler
        if pid not in self._detached:
            self._live_handlers[pid] = handler

    def unregister_all(self) -> None:
        """Drop every delivery callback (they are bound methods of drivers)."""
        self._handlers.clear()
        self._live_handlers.clear()

    # -- mobility ---------------------------------------------------------
    def detach(self, pid: ProcessId) -> None:
        """The node leaves the network (mobility): no send, no receive."""
        self._detached.add(pid)
        self._live_handlers.pop(pid, None)

    def attach(self, pid: ProcessId) -> None:
        self._detached.discard(pid)
        handler = self._handlers.get(pid)
        if handler is not None:
            self._live_handlers[pid] = handler

    def is_attached(self, pid: ProcessId) -> bool:
        return pid not in self._detached

    # -- partitions -------------------------------------------------------
    def begin_partition(self, fault: PartitionFault) -> None:
        """The partition becomes active: cross-side traffic starts dying."""
        self._partitions.append((fault, fault.side_of()))

    def end_partition(self, fault: PartitionFault) -> None:
        """The partition heals; the pre-partition link set is restored
        verbatim (the topology was never mutated)."""
        self._partitions = [
            entry for entry in self._partitions if entry[0] is not fault
        ]

    def is_separated(self, src: ProcessId, dst: ProcessId) -> bool:
        """Is traffic between the two endpoints cut by an active partition?"""
        for _fault, side_of in self._partitions:
            src_side = side_of.get(src)
            if src_side is None:
                continue
            dst_side = side_of.get(dst)
            if dst_side is not None and dst_side != src_side:
                return True
        return False

    # -- loss bursts ------------------------------------------------------
    def _burst_drop(self, src: ProcessId, dst: ProcessId) -> bool:
        """Draw against every burst covering this link right now."""
        now = self.scheduler.now
        for burst, links in self._bursts:
            if not burst.start <= now < burst.end:
                continue
            if links is not None and frozenset((src, dst)) not in links:
                continue
            if self._burst_rng.random() < burst.rate:
                return True
        return False

    # -- transmission -------------------------------------------------------
    def send(self, src: ProcessId, dst: ProcessId, message: object) -> bool:
        """Point-to-point transmission to a 1-hop neighbor.

        Returns whether the message was put on the wire (a detached sender,
        a non-neighbor destination, or random loss all drop it).
        """
        if src in self._detached:
            self.trace.record_drop()
            return False
        if dst != src and not self.topology.has_edge(src, dst):
            # The destination moved out of range since we learned about it.
            self.trace.record_drop()
            return False
        if self._partitions and self.is_separated(src, dst):
            self.trace.record_drop()
            return False
        if self._lossy and self._loss_rng.random() < self._loss_rate:
            self.trace.record_drop()
            return False
        if self._bursts and self._burst_drop(src, dst):
            self.trace.record_drop()
            return False
        # Flattened hot path: sample + schedule without the _sample_delay /
        # schedule_after wrappers — one response send per delivered query
        # makes this the second-busiest site after broadcast.
        scheduler = self.scheduler
        delay = self.latency.sample_at(self._delay_rng, src, dst, scheduler.now)
        if delay <= 0:
            raise SimulationError(
                f"latency model produced non-positive delay {delay} for {src!r}->{dst!r}"
            )
        # Fire-and-forget: deliveries are never cancelled, so skip the
        # EventHandle allocation entirely.
        scheduler.schedule_fire(scheduler.now + delay, self._deliver, src, dst, message)
        self.trace.record_message(message_kind_of(message), src)
        return True

    def broadcast(self, src: ProcessId, message: object) -> int:
        """Transmit to every current 1-hop neighbor; returns messages sent.

        This is the simulator's hottest site (n-1 deliveries per
        query/heartbeat), so every per-destination cost is batched: the
        neighbor order comes pre-sorted from the topology's cache, all
        delays are drawn with one :meth:`LatencyModel.sample_many` call,
        deliveries enter the scheduler as one batch, and trace counters are
        bumped once per broadcast.  Loss and delay are still sampled per
        destination, in neighbor order, so traces are bit-for-bit identical
        to per-destination :meth:`send` calls.
        """
        if src in self._detached:
            self.trace.record_drop()
            return 0
        dsts: tuple[ProcessId, ...] | list[ProcessId]
        dsts = self.topology.sorted_neighbors(src)
        if self._partitions:
            # Partition check precedes the loss draw, mirroring `send`, so
            # the loss stream sees exactly the destinations a per-target
            # send loop would have drawn for.
            reachable = [dst for dst in dsts if not self.is_separated(src, dst)]
            if len(reachable) != len(dsts):
                self.trace.record_drops(len(dsts) - len(reachable))
            dsts = reachable
        if self._lossy:
            rate = self._loss_rate
            loss = self._loss_rng.random
            kept: list[ProcessId] = []
            for dst in dsts:
                if loss() >= rate:
                    kept.append(dst)
            if len(kept) != len(dsts):
                self.trace.record_drops(len(dsts) - len(kept))
            dsts = kept
        if self._bursts:
            survived = [dst for dst in dsts if not self._burst_drop(src, dst)]
            if len(survived) != len(dsts):
                self.trace.record_drops(len(dsts) - len(survived))
            dsts = survived
        if not dsts:
            return 0
        now = self.scheduler.now
        delays = self.latency.sample_many(self._delay_rng, src, dsts, now)
        deliver = self._deliver
        deliveries: list[tuple[float, Callable[..., None], tuple]] = []
        for dst, delay in zip(dsts, delays):
            if delay <= 0:
                raise SimulationError(
                    f"latency model produced non-positive delay {delay} "
                    f"for {src!r}->{dst!r}"
                )
            deliveries.append((now + delay, deliver, (src, dst, message)))
        self.scheduler.schedule_batch(deliveries)
        self.trace.record_messages(message_kind_of(message), src, len(deliveries))
        return len(deliveries)

    # ------------------------------------------------------------------
    def _deliver(self, src: ProcessId, dst: ProcessId, message: object) -> None:
        # One probe of the attached-and-registered dict replaces the
        # separate detached check and handler lookup.
        handler = self._live_handlers.get(dst)
        if handler is None:
            self.trace.record_drop()
            return
        if self._partitions and self.is_separated(src, dst):
            # The partition started while this message was in flight.
            self.trace.record_drop()
            return
        handler(src, message)
