"""Declarative fault plans: the run's complete failure schedule.

A :class:`FaultPlan` is the run's *ground truth*: metrics compare detector
output against it (a suspicion of a process that never crashed is false by
definition).  Plans are applied by :class:`repro.sim.cluster.SimCluster`
which schedules the corresponding node/network transitions.

Fault kinds
-----------
* :class:`CrashFault` — permanent fail-stop (the paper's core model);
* :class:`MobilityFault` — detach/reattach with kept state (the follow-up
  report's disturbance-region model);
* :class:`PartitionFault` — the membership splits into sides at ``start``
  and heals at ``end``; cross-side messages are dropped by the network,
  the topology itself is untouched (healing restores exactly the
  pre-partition link set);
* :class:`RecoveryFault` — crash-*recovery*: the process crashes at
  ``crash`` and restarts at ``recover`` with an incremented incarnation,
  with either persistent or volatile detector state;
* :class:`JoinFault` / :class:`LeaveFault` — dynamic membership: a node
  starts participating only at ``time`` (join), or departs for good
  (leave);
* :class:`LossBurst` — a time-windowed per-link loss spike layered on top
  of the global ``loss_rate``.

Epoch ground truth
------------------
With recovery and dynamic membership, "correct" becomes a function of
time: a suspicion of a down-but-recovering node is *correct* until the
recovery instant.  :meth:`FaultPlan.alive_at`, :meth:`FaultPlan.down_at`,
:meth:`FaultPlan.down_intervals`, :meth:`FaultPlan.alive_intervals` and
:meth:`FaultPlan.incarnation_of` answer the per-epoch questions;
:mod:`repro.metrics.qos` scores suspicions against them
(``detection_stats`` / ``mistake_stats``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ConfigurationError
from ..ids import ProcessId

__all__ = [
    "CrashFault",
    "MobilityFault",
    "PartitionFault",
    "RecoveryFault",
    "JoinFault",
    "LeaveFault",
    "LossBurst",
    "FaultPlan",
    "uniform_crashes",
]


@dataclass(frozen=True, slots=True)
class CrashFault:
    """Process ``process`` crashes (permanently) at ``time``."""

    process: ProcessId
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.time}")


@dataclass(frozen=True, slots=True)
class MobilityFault:
    """``process`` detaches at ``depart`` and reattaches at ``arrive``.

    While detached the node neither sends nor receives but keeps its state
    (the follow-up report's mobility model).  ``arrive`` may be ``None`` for
    a node that never returns — indistinguishable from a crash, as the paper
    notes.  ``new_position``, when given, relocates the node on reattachment
    (its radio edges are rewired by transmission range); otherwise the node
    returns to its old neighborhood.
    """

    process: ProcessId
    depart: float
    arrive: float | None
    new_position: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.depart < 0:
            raise ConfigurationError(f"depart time must be >= 0, got {self.depart}")
        if self.arrive is not None and self.arrive <= self.depart:
            raise ConfigurationError(
                f"arrive ({self.arrive}) must be after depart ({self.depart})"
            )


@dataclass(frozen=True)
class PartitionFault:
    """The membership splits into ``sides`` at ``start``; heals at ``end``.

    While active, a message whose endpoints sit in *different* sides is
    dropped — at send time and in flight.  Processes named in no side are
    unaffected (boundary nodes that can still reach everyone).  ``end``
    may be ``None`` for a partition that never heals.  The topology is not
    mutated, so healing restores exactly the pre-partition link set.
    """

    sides: tuple[tuple[ProcessId, ...], ...]
    start: float
    end: float | None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sides", tuple(tuple(side) for side in self.sides)
        )
        if len(self.sides) < 2:
            raise ConfigurationError("a partition needs at least 2 sides")
        seen: set[ProcessId] = set()
        for side in self.sides:
            if not side:
                raise ConfigurationError("partition sides must be non-empty")
            for pid in side:
                if pid in seen:
                    raise ConfigurationError(
                        f"{pid!r} appears in more than one partition side"
                    )
                seen.add(pid)
        if self.start < 0:
            raise ConfigurationError(f"partition start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ConfigurationError(
                f"partition end ({self.end}) must be after start ({self.start})"
            )

    def side_of(self) -> dict[ProcessId, int]:
        """``process -> side index`` for every named process."""
        return {
            pid: index for index, side in enumerate(self.sides) for pid in side
        }

    def members(self) -> frozenset[ProcessId]:
        return frozenset(pid for side in self.sides for pid in side)


@dataclass(frozen=True, slots=True)
class RecoveryFault:
    """``process`` crashes at ``crash`` and restarts at ``recover``.

    The restart increments the process's *incarnation*.  With
    ``persistent=True`` the detector state survives the crash (stable
    storage); otherwise the process comes back with a freshly built
    detector (volatile state) — the cluster rebuilds and rebinds the
    driver through its factory.
    """

    process: ProcessId
    crash: float
    recover: float
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.crash < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.crash}")
        if self.recover <= self.crash:
            raise ConfigurationError(
                f"recover ({self.recover}) must be after crash ({self.crash})"
            )


@dataclass(frozen=True, slots=True)
class JoinFault:
    """``process`` joins the system at ``time`` (dynamic membership).

    Before ``time`` the node is down: never started, detached from the
    network.  When ``connect_to`` is given the node's topology edges are
    dropped at construction and rewired to ``connect_to`` at join time
    (the topology mutates at runtime); otherwise it keeps its
    construction-time edges and simply starts participating.
    """

    process: ProcessId
    time: float
    connect_to: tuple[ProcessId, ...] | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"join time must be >= 0, got {self.time}")
        if self.connect_to is not None:
            object.__setattr__(self, "connect_to", tuple(self.connect_to))


@dataclass(frozen=True, slots=True)
class LeaveFault:
    """``process`` departs for good at ``time`` (dynamic membership).

    The node stops executing, detaches, and its topology edges are
    dropped.  Ground truth counts it down from ``time`` on — suspecting a
    departed node is *correct*.
    """

    process: ProcessId
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"leave time must be >= 0, got {self.time}")


@dataclass(frozen=True, slots=True)
class LossBurst:
    """A loss spike of ``rate`` on ``links`` during ``[start, end)``.

    ``links`` is a tuple of undirected ``(a, b)`` pairs; ``None`` means
    every link.  Bursts layer on top of the network's global
    ``loss_rate`` and draw from their own RNG stream, so runs without
    bursts are bit-for-bit unchanged.
    """

    start: float
    end: float
    rate: float
    links: tuple[tuple[ProcessId, ProcessId], ...] | None = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"need 0 <= start < end, got [{self.start}, {self.end})"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ConfigurationError(f"burst rate must be in (0, 1], got {self.rate}")
        if self.links is not None:
            object.__setattr__(
                self, "links", tuple((a, b) for a, b in self.links)
            )


_INF = math.inf


@dataclass(frozen=True)
class FaultPlan:
    """The complete fault schedule of one run."""

    crashes: tuple[CrashFault, ...] = ()
    moves: tuple[MobilityFault, ...] = ()
    partitions: tuple[PartitionFault, ...] = ()
    recoveries: tuple[RecoveryFault, ...] = ()
    joins: tuple[JoinFault, ...] = ()
    leaves: tuple[LeaveFault, ...] = ()
    bursts: tuple[LossBurst, ...] = ()

    def __post_init__(self) -> None:
        crashed = [fault.process for fault in self.crashes]
        if len(crashed) != len(set(crashed)):
            raise ConfigurationError("a process can crash at most once")
        crash_time = {fault.process: fault.time for fault in self.crashes}
        # A mobility episode scheduled at/after the same process's crash
        # would be silently meaningless at sim time — reject it here.
        for move in self.moves:
            at = crash_time.get(move.process)
            if at is not None and move.depart >= at:
                raise ConfigurationError(
                    f"mobility of {move.process!r} departs at {move.depart} but "
                    f"the process crashes at {at}; a crashed process cannot move"
                )
        joined = [fault.process for fault in self.joins]
        if len(joined) != len(set(joined)):
            raise ConfigurationError("a process can join at most once")
        left = [fault.process for fault in self.leaves]
        if len(left) != len(set(left)):
            raise ConfigurationError("a process can leave at most once")
        join_time = {fault.process: fault.time for fault in self.joins}
        leave_time = {fault.process: fault.time for fault in self.leaves}
        for pid in set(crash_time) & set(leave_time):
            raise ConfigurationError(
                f"{pid!r} both crashes and leaves; pick one terminal fault"
            )
        # Per-process recovery windows must be disjoint and precede any
        # permanent fault; joins must precede every other fault.
        by_process: dict[ProcessId, list[RecoveryFault]] = {}
        for rec in self.recoveries:
            by_process.setdefault(rec.process, []).append(rec)
        for pid, recs in by_process.items():
            recs.sort(key=lambda rec: rec.crash)
            for first, second in zip(recs, recs[1:]):
                if second.crash < first.recover:
                    raise ConfigurationError(
                        f"overlapping recovery windows for {pid!r}: "
                        f"[{first.crash}, {first.recover}) and "
                        f"[{second.crash}, {second.recover})"
                    )
            terminal = min(
                crash_time.get(pid, _INF), leave_time.get(pid, _INF)
            )
            if recs[-1].recover > terminal:
                raise ConfigurationError(
                    f"{pid!r} recovers at {recs[-1].recover} after its terminal "
                    f"fault at {terminal}"
                )
        for pid, at in join_time.items():
            earliest = min(
                crash_time.get(pid, _INF),
                leave_time.get(pid, _INF),
                min((rec.crash for rec in by_process.get(pid, ())), default=_INF),
                min(
                    (move.depart for move in self.moves if move.process == pid),
                    default=_INF,
                ),
            )
            if earliest < at:
                raise ConfigurationError(
                    f"{pid!r} joins at {at} but has a fault scheduled at "
                    f"{earliest}; joins must precede every other fault"
                )

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def of(
        cls,
        crashes: Iterable[CrashFault] = (),
        moves: Iterable[MobilityFault] = (),
        *,
        partitions: Iterable[PartitionFault] = (),
        recoveries: Iterable[RecoveryFault] = (),
        joins: Iterable[JoinFault] = (),
        leaves: Iterable[LeaveFault] = (),
        bursts: Iterable[LossBurst] = (),
    ) -> "FaultPlan":
        return cls(
            crashes=tuple(crashes),
            moves=tuple(moves),
            partitions=tuple(partitions),
            recoveries=tuple(recoveries),
            joins=tuple(joins),
            leaves=tuple(leaves),
            bursts=tuple(bursts),
        )

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """This plan plus every fault of ``other`` (re-validated)."""
        return FaultPlan(
            crashes=self.crashes + other.crashes,
            moves=self.moves + other.moves,
            partitions=self.partitions + other.partitions,
            recoveries=self.recoveries + other.recoveries,
            joins=self.joins + other.joins,
            leaves=self.leaves + other.leaves,
            bursts=self.bursts + other.bursts,
        )

    # -- ground truth queries ------------------------------------------------
    def crashed_processes(self) -> frozenset[ProcessId]:
        return frozenset(fault.process for fault in self.crashes)

    def correct_processes(self, membership: Iterable[ProcessId]) -> frozenset[ProcessId]:
        """Processes that are up at the end of an unbounded run.

        Crashed and departed processes are not correct; recovered and
        joined processes are.
        """
        departed = frozenset(fault.process for fault in self.leaves)
        return frozenset(membership) - self.crashed_processes() - departed

    # -- epoch-aware ground truth ---------------------------------------------
    def down_intervals(
        self, process: ProcessId, *, horizon: float = _INF
    ) -> tuple[tuple[float, float], ...]:
        """Sorted, disjoint ``[start, end)`` intervals during which the
        process is down, clipped to ``[0, horizon]``.

        Mobility does *not* make a process down: a detached node is alive
        (suspecting it is a mistake, exactly as the mobility experiment
        scores it).
        """
        raw: list[tuple[float, float]] = []
        for join in self.joins:
            if join.process == process and join.time > 0:
                raw.append((0.0, join.time))
        for rec in self.recoveries:
            if rec.process == process:
                raw.append((rec.crash, rec.recover))
        for crash in self.crashes:
            if crash.process == process:
                raw.append((crash.time, _INF))
        for leave in self.leaves:
            if leave.process == process:
                raw.append((leave.time, _INF))
        raw.sort()
        merged: list[tuple[float, float]] = []
        for start, end in raw:
            end = min(end, horizon)
            start = min(start, horizon)
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            elif end > start or end == start == horizon:
                merged.append((start, end))
        return tuple((s, e) for s, e in merged if e > s)

    def alive_intervals(
        self, process: ProcessId, *, horizon: float
    ) -> tuple[tuple[float, float], ...]:
        """Complement of :meth:`down_intervals` within ``[0, horizon]``."""
        intervals: list[tuple[float, float]] = []
        cursor = 0.0
        for start, end in self.down_intervals(process, horizon=horizon):
            if start > cursor:
                intervals.append((cursor, start))
            cursor = max(cursor, end)
        if cursor < horizon:
            intervals.append((cursor, horizon))
        return tuple(intervals)

    def alive_at(self, process: ProcessId, time: float) -> bool:
        """Is the process up at ``time``?  Down intervals are ``[start, end)``:
        a process is down at its crash instant and up at its recovery
        instant."""
        for start, end in self.down_intervals(process):
            if start <= time < end:
                return False
        return True

    def incarnation_of(self, process: ProcessId, time: float) -> int:
        """How many times the process has restarted by ``time`` (0 initially)."""
        return sum(
            1
            for rec in self.recoveries
            if rec.process == process and rec.recover <= time
        )

    def down_at(self, time: float) -> frozenset[ProcessId]:
        """Every process that is down at ``time``.

        With only :class:`CrashFault` faults these are the processes that
        crashed at or before ``time``.
        """
        processes = set(fault.process for fault in self.crashes)
        processes.update(rec.process for rec in self.recoveries)
        processes.update(join.process for join in self.joins)
        processes.update(leave.process for leave in self.leaves)
        return frozenset(
            pid for pid in processes if not self.alive_at(pid, time)
        )

    def correct_at(
        self, time: float, membership: Iterable[ProcessId]
    ) -> frozenset[ProcessId]:
        """The members that are up at ``time`` (the per-epoch correct set)."""
        return frozenset(membership) - self.down_at(time)

    def epoch_times(self) -> tuple[float, ...]:
        """Every instant at which the ground truth changes, sorted."""
        times: set[float] = set()
        for crash in self.crashes:
            times.add(crash.time)
        for rec in self.recoveries:
            times.add(rec.crash)
            times.add(rec.recover)
        for join in self.joins:
            times.add(join.time)
        for leave in self.leaves:
            times.add(leave.time)
        for part in self.partitions:
            times.add(part.start)
            if part.end is not None:
                times.add(part.end)
        return tuple(sorted(times))

    def validate_against(self, membership: Iterable[ProcessId], f: int) -> None:
        """Check the plan respects the model: <= f crashes, members only."""
        members = frozenset(membership)

        def member(pid: ProcessId, what: str) -> None:
            if pid not in members:
                raise ConfigurationError(f"{what} of non-member {pid!r}")

        for fault in self.crashes:
            member(fault.process, "crash")
        for fault in self.moves:
            member(fault.process, "move")
        for fault in self.recoveries:
            member(fault.process, "recovery")
        for fault in self.joins:
            member(fault.process, "join")
        for fault in self.leaves:
            member(fault.process, "leave")
        for fault in self.partitions:
            for pid in fault.members():
                member(pid, "partition")
        if len(self.crashes) > f:
            raise ConfigurationError(
                f"plan crashes {len(self.crashes)} processes but f={f}"
            )


def uniform_crashes(
    victims: Sequence[ProcessId],
    rng: random.Random,
    *,
    start: float,
    end: float,
) -> FaultPlan:
    """Crash each victim at an independent uniform time in ``[start, end]``.

    Mirrors the paper's evaluation: "the number of faults is equal to 5 and
    they are uniformly inserted during an experiment".
    """
    if end <= start:
        raise ConfigurationError(f"need start < end, got [{start}, {end}]")
    crashes = tuple(
        CrashFault(process=pid, time=rng.uniform(start, end)) for pid in victims
    )
    return FaultPlan(crashes=crashes)
