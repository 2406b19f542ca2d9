"""Run consensus over any registered failure detector on the simulator.

Each simulated node co-hosts two protocol stacks: the failure detector
(driven by its usual driver, built from the :mod:`repro.detectors`
registry) and a *sequence* of consensus participants —
one per instance of a repeated multi-instance run.  The composite driver
dispatches incoming messages by type, executes consensus effects, and
*pokes* the consensus state machines whenever the local detector's suspect
list changes — that is the oracle coupling, and it matches the formal model
(consensus queries the detector, the detector never pushes state).

Multi-instance semantics (the "heavy traffic" shape):

* Instance 1's participant exists from node construction (so a
  configuration without a correct majority is rejected when the harness
  is built) and proposes at ``propose_at``.
* A node proposes instance ``k + 1`` when its instance ``k`` decides
  locally (after an optional ``instance_gap`` think time), so the sequence
  is self-clocking: fast detectors chain instances quickly, stalled
  instances hold the sequence back.
* Every instance's ballots, instance 1's included, travel in an
  :class:`~repro.consensus.messages.InstanceEnvelope`; the driver buffers
  envelopes that arrive before the local participant proposed and replays
  them at propose time (the CT state machine drops pre-propose ballots,
  which would strand traffic from early deciders).
* Every decision is recorded into a per-instance
  :class:`InstanceOutcome` ledger — proposals, decision values/times,
  rounds, nacks — which :func:`repro.metrics.consensus_stats` summarises.
* Messages are **retransmitted on the oracle's word**: when the local
  detector withdraws a suspicion (the peer recovered, joined late, or the
  partition healed), the driver re-sends every locally decided instance's
  ``DECIDE`` to the returning process, and every ballot an undecided
  instance has sent it (the enveloped effects the driver keeps until that
  instance decides).  Under ``partition`` and ``lossburst`` the channels
  are fair-lossy, so a ballot lost inside the window would otherwise
  strand its instance.  The sans-I/O state machines stay pure crash-stop
  CT (their ballot maps are keyed by sender, so a duplicate is a no-op);
  retransmission is an I/O-layer concern, and keying it to suspicion
  retraction needs no timers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..core.effects import Broadcast, Effect, SendTo
from ..errors import ConfigurationError
from ..ids import ProcessId
from ..sim.cluster import SimCluster
from ..sim.node import SimProcess
from .messages import Decide, InstanceEnvelope
from .registry import get_protocol
from .spec import ConsensusContext, ConsensusSpec, oracle_from_suspects

if TYPE_CHECKING:
    from ..experiments.scenarios import Scenario

__all__ = [
    "ConsensusNodeDriver",
    "ConsensusHarness",
    "ConsensusRunResult",
    "InstanceOutcome",
]

#: callbacks: (pid, instance, value, time)
InstanceEvent = Callable[[ProcessId, int, Any, float], None]


class ConsensusNodeDriver:
    """Co-hosts a detector driver and a sequence of consensus participants."""

    def __init__(
        self,
        process: SimProcess,
        fd_driver,
        participant_factory: Callable[[int], Any],
        proposal_for: Callable[[int], Any],
        *,
        instances: int = 1,
        propose_at: float = 0.0,
        instance_gap: float = 0.0,
        on_propose: InstanceEvent | None = None,
        on_decide: InstanceEvent | None = None,
    ) -> None:
        self.process = process
        self.fd_driver = fd_driver
        self.instances = instances
        self.propose_at = propose_at
        self.instance_gap = instance_gap
        self._participant_factory = participant_factory
        self._proposal_for = proposal_for
        self._on_propose = on_propose
        self._on_decide = on_decide
        # Instance 1 exists from construction: building it is where a
        # configuration without a correct majority is rejected.  Later
        # instances are created lazily at their propose time.
        self.participants: dict[int, Any] = {1: participant_factory(1)}
        self._pending: dict[int, list[tuple[ProcessId, Any]]] = {}
        #: the enveloped effects each undecided instance has sent, dropped
        #: when it decides; re-sent to a peer whose suspicion is withdrawn
        self._in_flight: dict[int, list[Effect]] = {}
        #: the highest ballot round delivered from each (instance, sender):
        #: a peer that sent a round-r ballot is in round r or later, and CT
        #: reads only its current round's ballots
        self._peer_round: dict[tuple[int, ProcessId], int] = {}
        self._reported: set[int] = set()
        self._last_suspects: frozenset = frozenset(fd_driver.suspects())
        # Suspicion changes unblock phase-3 waits on a crashed coordinator.
        fd_driver.suspicion_listeners.append(self._on_suspicion_change)

    # -- driver surface ----------------------------------------------------
    def on_start(self) -> None:
        self.fd_driver.on_start()
        self.process.scheduler.schedule_at(
            max(self.propose_at, self.process.scheduler.now),
            lambda: self._propose(1),
        )

    def on_message(self, src: ProcessId, message: object) -> None:
        if isinstance(message, InstanceEnvelope):
            self._deliver(message.instance, src, message.payload)
        else:
            self.fd_driver.on_message(src, message)

    def on_crash(self) -> None:
        self.fd_driver.on_crash()

    def on_detach(self) -> None:
        self.fd_driver.on_detach()

    def on_attach(self) -> None:
        self.fd_driver.on_attach()

    def on_recover(self) -> None:
        # Persistent-state restart: participants survived with the driver.
        self.fd_driver.on_recover()

    def on_leave(self) -> None:
        self.fd_driver.on_leave()

    def suspects(self) -> frozenset:
        return self.fd_driver.suspects()

    def release(self) -> None:
        """Drop the edges back to this node's detector driver and to the harness."""
        self.fd_driver.release()
        self._participant_factory = self._proposal_for = None  # type: ignore[assignment]
        self._on_propose = self._on_decide = None

    # -- consensus plumbing ---------------------------------------------------
    def _deliver(self, instance: int, src: ProcessId, payload: Any) -> None:
        round_ = getattr(payload, "round", None)
        if round_ is not None and round_ > self._peer_round.get((instance, src), 0):
            self._peer_round[instance, src] = round_
        participant = self.participants.get(instance)
        if participant is None or not participant.proposed:
            # The state machine drops pre-propose ballots; buffer and replay
            # at propose time so early deciders' traffic is not lost.
            self._pending.setdefault(instance, []).append((src, payload))
            return
        self._run(instance, lambda: participant.on_message(src, payload))

    def _propose(self, instance: int) -> None:
        if not self.process.alive or instance > self.instances:
            return
        participant = self.participants.get(instance)
        if participant is None:
            participant = self._participant_factory(instance)
            self.participants[instance] = participant
        if participant.proposed:
            return  # a join/restart re-ran on_start; the sequence is live
        value = self._proposal_for(instance)
        if self._on_propose is not None:
            self._on_propose(
                self.process.pid, instance, value, self.process.scheduler.now
            )
        self._run(instance, lambda: participant.propose(value))
        for src, payload in self._pending.pop(instance, ()):
            self._run(instance, lambda s=src, p=payload: participant.on_message(s, p))

    def _on_suspicion_change(self, pid: ProcessId, suspects: frozenset) -> None:
        # Read the driver directly: elector round listeners reuse this hook
        # with a placeholder suspect set.
        current = frozenset(self.fd_driver.suspects())
        returned = self._last_suspects - current
        self._last_suspects = current
        if returned:
            self._retransmit(returned)
        for instance in sorted(self.participants):
            self._run(instance, self.participants[instance].poke)

    def _retransmit(self, returned: frozenset) -> None:
        """Oracle-driven retransmission to returning peers.

        A suspicion retraction means a process that was unreachable
        (crashed-and-recovered, late joiner, the far side of a healed
        partition) is back, and what was sent to it meanwhile may be lost.
        The CT state machines halt after deciding and never retransmit, so
        the driver re-sends every locally decided instance's ``DECIDE`` to
        it, then every kept ballot of an undecided instance addressed to
        it whose round is at least the highest round that peer has sent
        this instance (an older ballot is one the peer would ignore).
        Retransmission on the detector's word — no timers — and a no-op in
        runs where no suspicion is ever withdrawn (every t4 scenario).
        """
        if not self.process.alive:
            return
        targets = sorted(returned, key=repr)
        effects: list[Effect] = []
        for instance in sorted(self._reported):
            message = Decide(
                sender=self.process.pid, value=self.participants[instance].decision
            )
            for pid in targets:
                effects.append(self._enveloped(instance, SendTo(pid, message)))
        for instance in sorted(self._in_flight):
            for effect in self._in_flight[instance]:
                # a kept ballot is never a DECIDE, so it carries a round
                round_ = effect.message.payload.round
                to = targets if isinstance(effect, Broadcast) else (effect.destination,)
                for pid in to:
                    if pid in returned and round_ >= self._peer_round.get((instance, pid), 0):
                        effects.append(SendTo(pid, effect.message))
        if effects:
            self.process.execute(effects)

    def _run(self, instance: int, step: Callable[[], list[Effect]]) -> None:
        if not self.process.alive:
            return
        participant = self.participants[instance]
        effects = [self._enveloped(instance, e) for e in step()]
        self.process.execute(effects)
        if not participant.decided:
            self._in_flight.setdefault(instance, []).extend(effects)
        elif instance not in self._reported:
            self._in_flight.pop(instance, None)
            self._reported.add(instance)
            now = self.process.scheduler.now
            if self._on_decide is not None:
                self._on_decide(self.process.pid, instance, participant.decision, now)
            if instance < self.instances:
                if self.instance_gap > 0.0:
                    self.process.scheduler.schedule_at(
                        now + self.instance_gap,
                        lambda k=instance + 1: self._propose(k),
                    )
                else:
                    self._propose(instance + 1)

    @staticmethod
    def _enveloped(instance: int, effect: Effect) -> Effect:
        if isinstance(effect, SendTo):
            return SendTo(
                effect.destination,
                InstanceEnvelope(instance=instance, payload=effect.message),
            )
        if isinstance(effect, Broadcast):
            return Broadcast(InstanceEnvelope(instance=instance, payload=effect.message))
        raise ConfigurationError(f"unknown consensus effect {effect!r}")


@dataclass
class InstanceOutcome:
    """The decision ledger of one consensus instance across the cluster."""

    instance: int
    proposals: dict[ProcessId, Any] = field(default_factory=dict)
    propose_times: dict[ProcessId, float] = field(default_factory=dict)
    decisions: dict[ProcessId, Any] = field(default_factory=dict)
    decision_times: dict[ProcessId, float] = field(default_factory=dict)
    decision_rounds: dict[ProcessId, int] = field(default_factory=dict)
    rounds_executed: dict[ProcessId, int] = field(default_factory=dict)
    nacks_sent: dict[ProcessId, int] = field(default_factory=dict)
    correct: frozenset = frozenset()

    @property
    def agreement_holds(self) -> bool:
        """No two processes decided different values in this instance."""
        return len(set(self.decisions.values())) <= 1

    @property
    def validity_holds(self) -> bool:
        """Every decided value was actually proposed by somebody."""
        proposed = set(self.proposals.values())
        return all(value in proposed for value in self.decisions.values())

    @property
    def all_correct_decided(self) -> bool:
        return all(pid in self.decisions for pid in self.correct)

    @property
    def first_propose_time(self) -> float | None:
        times = [t for pid, t in self.propose_times.items() if pid in self.correct]
        return min(times, default=None)

    @property
    def last_decision_time(self) -> float | None:
        times = [t for pid, t in self.decision_times.items() if pid in self.correct]
        return max(times, default=None)

    @property
    def decision_latency(self) -> float | None:
        """First correct propose to last correct decision (``None`` if open)."""
        if not self.all_correct_decided or not self.correct:
            return None
        start, end = self.first_propose_time, self.last_decision_time
        if start is None or end is None:
            return None
        return end - start

    @property
    def rounds_to_decide(self) -> int | None:
        """The round in which the value was first decided (1 = fast path).

        The *first* correct decider's round — later deciders may have
        churned ahead while the reliable-broadcast relay was in flight,
        which is progress noise, not protocol cost.
        """
        rounds = [r for pid, r in self.decision_rounds.items() if pid in self.correct]
        return min(rounds, default=None)

    @property
    def aborted_rounds(self) -> int:
        """Rounds abandoned on the oracle's word (max per correct process).

        A phase-3 nack is exactly one aborted round: the participant gave
        up on the round's coordinator because its oracle denounced it.
        Waiting rounds that a ``DECIDE`` relay short-circuits are not
        counted — they cost latency, which :attr:`decision_latency` shows.
        """
        return max(
            (n for pid, n in self.nacks_sent.items() if pid in self.correct),
            default=0,
        )

    @property
    def nacks(self) -> int:
        """Total phase-3 nacks issued by correct processes."""
        return sum(n for pid, n in self.nacks_sent.items() if pid in self.correct)


@dataclass
class ConsensusRunResult:
    """Outcome of one simulated consensus run: one ledger per instance.

    ``instances[0]`` is instance 1 (the whole run when ``instances=1``).
    """

    correct: frozenset = frozenset()
    instances: list[InstanceOutcome] = field(default_factory=list)

    @property
    def agreement_holds(self) -> bool:
        """No two processes decided different values (any instance)."""
        return all(out.agreement_holds for out in self.instances)

    @property
    def validity_holds(self) -> bool:
        """Every decided value was somebody's proposal (any instance)."""
        return all(out.validity_holds for out in self.instances)


class ConsensusHarness:
    """Build-and-run helper for consensus workloads (t4/c1) and tests.

    The deployment is a :class:`~repro.experiments.scenarios.Scenario`
    (detector key and params, membership, ``f``, latency, faults, seed,
    horizon): its cluster is ``scenario.cluster(wrap=...)``, a composite
    node driver around each detector driver, run to ``scenario.horizon``.
    The consensus side is a **protocol registry key** (``protocol=``,
    default CT, plus an optional ``protocol_params`` knob dict).  The two
    are joined by a :class:`~repro.consensus.spec.ConsensusOracle` built
    from the per-node driver: ``suspects()`` is pulled straight from the
    detector, ``leader()`` uses the native Omega elector when the driver
    carries one and the Ω-from-◇S emulation otherwise.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        protocol: str = "ct",
        protocol_params: dict | None = None,
        proposals: dict[ProcessId, Any] | None = None,
        instances: int = 1,
        propose_at: float = 0.0,
        instance_gap: float = 0.0,
    ) -> None:
        if instances < 1:
            raise ConfigurationError("a consensus run needs at least 1 instance")
        spec: ConsensusSpec = get_protocol(protocol)
        typed_params = spec.make_params(**(protocol_params or {}))
        f = scenario.f
        self.protocol = spec
        self.horizon = scenario.horizon
        self._outcomes = {
            k: InstanceOutcome(instance=k) for k in range(1, instances + 1)
        }
        self.result = ConsensusRunResult(instances=list(self._outcomes.values()))

        def wrap(fd_factory):
            def composite_factory(process: SimProcess, cluster: SimCluster):
                fd_driver = fd_factory(process, cluster)
                membership = cluster.membership
                context = ConsensusContext(
                    process_id=process.pid, membership=membership, f=f
                )
                elector = getattr(fd_driver, "elector", None)
                oracle = oracle_from_suspects(
                    membership,
                    fd_driver.suspects,
                    leader_source=elector.leader if elector is not None else None,
                )
                driver = ConsensusNodeDriver(
                    process,
                    fd_driver,
                    lambda instance: spec.build(context, oracle, typed_params),
                    lambda instance: self._value_for(process.pid, instance),
                    instances=instances,
                    propose_at=propose_at,
                    instance_gap=instance_gap,
                    on_propose=self._record_propose,
                    on_decide=self._record_decision,
                )
                if spec.oracle == "leader" and elector is not None:
                    # A native elector can change leaders without a suspicion
                    # change (accusation gossip); completed query rounds are
                    # its clock, so poke the participants on each round outcome.
                    round_listeners = getattr(fd_driver, "round_listeners", None)
                    if round_listeners is not None:
                        round_listeners.append(
                            lambda *_args: driver._on_suspicion_change(
                                process.pid, frozenset()
                            )
                        )
                return driver

            return composite_factory

        self.cluster = scenario.cluster(wrap=wrap)
        membership = self.cluster.membership
        if len(membership) < 2:
            raise ConfigurationError("consensus needs at least 2 processes")
        self.proposals: dict[ProcessId, Any] = (
            dict(proposals)
            if proposals is not None
            else {pid: f"value-{pid}" for pid in sorted(membership, key=repr)}
        )
        missing = membership - set(self.proposals)
        if missing:
            raise ConfigurationError(f"missing proposals for {sorted(missing, key=repr)}")
        self.result.correct = self.cluster.correct_processes()
        for outcome in self.result.instances:
            outcome.correct = self.result.correct

    # ------------------------------------------------------------------
    def _value_for(self, pid: ProcessId, instance: int) -> Any:
        if instance == 1:
            return self.proposals[pid]
        return f"value-{pid}.{instance}"

    def _record_propose(self, pid: ProcessId, instance: int, value: Any, time: float) -> None:
        outcome = self._outcomes[instance]
        # A volatile restart re-proposes; the ledger keeps the first attempt.
        outcome.proposals.setdefault(pid, value)
        outcome.propose_times.setdefault(pid, time)

    def _record_decision(self, pid: ProcessId, instance: int, value: Any, time: float) -> None:
        outcome = self._outcomes[instance]
        outcome.decisions.setdefault(pid, value)
        outcome.decision_times.setdefault(pid, time)

    def run(self) -> ConsensusRunResult:
        """Run to the scenario's horizon and fill the ledger; a harness runs once.

        The cluster is closed (which releases every node driver it built,
        replaced ones included) once the participants are read, so nothing
        the run built outlives it in a reference cycle.
        """
        self.cluster.run(until=self.horizon)
        # A volatile restart's driver replaced its predecessor in `drivers`.
        for pid, driver in self.cluster.drivers.items():
            for instance, participant in driver.participants.items():
                outcome = self._outcomes.get(instance)
                if outcome is None:
                    continue
                outcome.rounds_executed[pid] = participant.rounds_executed
                outcome.nacks_sent[pid] = participant.nacks_sent
                if participant.decision_round is not None:
                    outcome.decision_rounds[pid] = participant.decision_round
        self.cluster.close()
        return self.result
