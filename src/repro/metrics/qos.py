"""QoS computations over traces.  See package docstring for definitions."""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean as _mean
from typing import Iterable, Sequence

from ..errors import ExperimentError
from ..ids import ProcessId
from ..sim.faults import FaultPlan
from ..sim.trace import TraceRecorder

__all__ = [
    "DetectionStats",
    "MistakeStats",
    "detection_stats",
    "mistake_stats",
    "accuracy_stabilization",
    "false_suspicion_series",
    "message_load",
]


@dataclass(frozen=True)
class DetectionStats:
    """Detection of one down window, seen from every observer up when it
    closes."""

    #: the process that was down, and when its window opened
    crashed: ProcessId
    crash_time: float
    #: observer -> detection latency (detecting suspicion - window start)
    latencies: dict[ProcessId, float]
    #: observers that never detected the window
    undetected: frozenset[ProcessId]

    @property
    def detected_by_all(self) -> bool:
        """Strong completeness achieved for this crash within the horizon."""
        return not self.undetected and bool(self.latencies)

    @property
    def min_latency(self) -> float | None:
        return min(self.latencies.values(), default=None)

    @property
    def mean_latency(self) -> float | None:
        return _mean(self.latencies.values()) if self.latencies else None

    @property
    def max_latency(self) -> float | None:
        """Time for *all* observers to detect — the strong completeness time."""
        return max(self.latencies.values(), default=None)


def _intersect(
    intervals: Sequence[tuple[float, float]],
    windows: Sequence[tuple[float, float]],
    *,
    horizon: float,
) -> list[tuple[float, float]]:
    """Pairwise intersection of two sorted, disjoint interval lists.

    Windows are half-open, ``[start, end)``, except that one ending at
    ``horizon`` holds the horizon too.  An instant in ``intervals``
    (``start == end``: a suspicion withdrawn at the time it began) is kept
    when a window holds it.
    """
    result: list[tuple[float, float]] = []
    wi = 0
    for start, end in intervals:
        while wi < len(windows) and windows[wi][1] <= start:
            wi += 1
        if start == end:
            if (wi < len(windows) and windows[wi][0] <= start) or (
                windows and start == windows[-1][1] == horizon
            ):
                result.append((start, end))
            continue
        probe = wi
        while probe < len(windows) and windows[probe][0] < end:
            lo = max(start, windows[probe][0])
            hi = min(end, windows[probe][1])
            if hi > lo:
                result.append((lo, hi))
            probe += 1
    return result


@dataclass(frozen=True)
class MistakeStats:
    """False suspicions scored against epoch ground truth.

    A suspicion of a target is a mistake only while the target is *up*
    (per :meth:`~repro.sim.faults.FaultPlan.down_intervals`) — suspecting
    a down-but-recovering node is correct until the recovery instant.
    Observers only accuse while they themselves are up.
    """

    #: number of (clipped) wrong suspicion intervals across all pairs
    count: int
    total_duration: float
    #: total (observer up ∧ target up) pair-time — the denominator of P_A
    alive_pair_time: float
    horizon: float
    #: pairs wrongly suspected at the horizon (both endpoints still up)
    unresolved: int

    @property
    def mean_duration(self) -> float | None:
        """Chen's T_M: average length of a mistake."""
        return self.total_duration / self.count if self.count else None

    @property
    def rate(self) -> float:
        """Mistakes per unit time, whole system (Chen's lambda_M analogue)."""
        return self.count / self.horizon if self.horizon > 0 else 0.0

    @property
    def query_accuracy_probability(self) -> float:
        """P_A: fraction of co-alive pair time with a correct answer."""
        if self.alive_pair_time <= 0:
            return 1.0
        return max(0.0, 1.0 - self.total_duration / self.alive_pair_time)


def mistake_stats(
    trace: TraceRecorder,
    fault_plan: FaultPlan,
    membership: Iterable[ProcessId],
    *,
    horizon: float,
) -> MistakeStats:
    """Aggregate false suspicions among ``membership`` against per-epoch
    aliveness.

    Each suspicion interval of ``(observer, target)`` is clipped to the
    time both endpoints are up, and the accuracy denominator is the
    co-alive pair time rather than ``n^2 * horizon``.  A suspicion
    withdrawn at the instant it began counts as one mistake of length 0
    when both endpoints are up then (Chen's mistake is the transition).
    Scoring a crash-only plan over its correct set counts every suspicion
    among correct pairs, as the crash-stop experiments always have.  Pairs
    are visited in ``repr`` order of the members, so the float sums do not
    depend on the hash seed.
    """
    if horizon <= 0:
        raise ExperimentError(f"horizon must be > 0, got {horizon}")
    members = sorted(frozenset(membership), key=repr)
    alive: dict[ProcessId, tuple[tuple[float, float], ...]] = {
        pid: fault_plan.alive_intervals(pid, horizon=horizon) for pid in members
    }
    count = 0
    total = 0.0
    unresolved = 0
    alive_pair_time = 0.0
    for observer in members:
        observer_alive = alive[observer]
        if not observer_alive:
            continue
        suspected_ever = trace.targets_of(observer)
        for target in members:
            if target == observer:
                continue
            co_alive = _intersect(observer_alive, alive[target], horizon=horizon)
            alive_pair_time += sum(end - start for start, end in co_alive)
            if target not in suspected_ever:
                continue
            intervals = trace.suspicion_intervals(observer, target, horizon=horizon)
            mistakes = _intersect(intervals, co_alive, horizon=horizon)
            count += len(mistakes)
            total += sum(end - start for start, end in mistakes)
            if mistakes and mistakes[-1][1] >= horizon:
                unresolved += 1
    return MistakeStats(
        count=count,
        total_duration=total,
        alive_pair_time=alive_pair_time,
        horizon=horizon,
        unresolved=unresolved,
    )


def detection_stats(
    trace: TraceRecorder,
    fault_plan: FaultPlan,
    membership: Iterable[ProcessId],
    *,
    horizon: float,
) -> list[DetectionStats]:
    """Detection stats for every *down window* in the plan.

    Each element covers one ``[start, end)`` down interval of one process
    (a permanent crash, a recovery window, a pre-join gap, or a
    departure).  For a terminal window (the process never comes back) an
    observer detects with its final, never-withdrawn suspicion; for a
    transient window an observer detects by suspecting the target at any
    point inside it.  Observers are the members the ground truth says are
    up when the window closes.

    Windows are listed process by process, in the order the plan first
    names each process (crashes, then recoveries, joins and leaves, each
    in declaration order), and within a process by start time.  A victim's
    window is ``next(w for w in windows if w.crashed == victim)``.
    """
    if horizon <= 0:
        raise ExperimentError(f"horizon must be > 0, got {horizon}")
    members = frozenset(membership)
    faults = (*fault_plan.crashes, *fault_plan.recoveries, *fault_plan.joins, *fault_plan.leaves)
    named = dict.fromkeys(fault.process for fault in faults if fault.process in members)
    stats: list[DetectionStats] = []
    for pid in named:
        for start, end in fault_plan.down_intervals(pid, horizon=horizon):
            terminal = end >= horizon and not fault_plan.alive_at(pid, horizon)
            observers = fault_plan.correct_at(end, members) - {pid}
            latencies: dict[ProcessId, float] = {}
            undetected: set[ProcessId] = set()
            for observer in observers:
                if terminal:
                    first = trace.permanent_suspicion_time(observer, pid)
                else:
                    first = None
                    for s, e in trace.suspicion_intervals(
                        observer, pid, horizon=horizon
                    ):
                        if e > start and s < end:
                            first = max(s, start)
                            break
                if first is None:
                    undetected.add(observer)
                else:
                    # The permanent interval may have begun before the
                    # window (a false suspicion that the fault then made
                    # true); latency is floored at zero.
                    latencies[observer] = max(0.0, first - start)
            stats.append(
                DetectionStats(
                    crashed=pid,
                    crash_time=start,
                    latencies=latencies,
                    undetected=frozenset(undetected),
                )
            )
    return stats


def accuracy_stabilization(
    trace: TraceRecorder,
    correct: Iterable[ProcessId],
    *,
    horizon: float,
) -> dict[ProcessId, float | None]:
    """For each correct process: when did everyone stop suspecting it?

    Value is the end of its last false-suspicion interval (0.0 if it was
    never suspected), or ``None`` when some correct observer still suspects
    it at the horizon.  Eventual weak accuracy holds iff some entry is not
    ``None``; the witnesses are the *never-again-suspected* processes the
    ◇S proof promises.
    """
    correct_set = frozenset(correct)
    # As in mistake_stats: only (observer, target) pairs with suspicion
    # history can move the answer, so prune by each observer's
    # ever-suspected set instead of scanning every timeline per pair.
    suspected_by = {
        observer: trace.targets_of(observer) for observer in correct_set
    }
    result: dict[ProcessId, float | None] = {}
    for target in correct_set:
        latest = 0.0
        still_suspected = False
        for observer in correct_set:
            if observer == target or target not in suspected_by[observer]:
                continue
            intervals = trace.suspicion_intervals(observer, target, horizon=horizon)
            if not intervals:
                continue
            last_start, last_end = intervals[-1]
            if last_end >= horizon:
                still_suspected = True
                break
            latest = max(latest, last_end)
        result[target] = None if still_suspected else latest
    return result


def false_suspicion_series(
    trace: TraceRecorder,
    sample_times: Sequence[float],
    fault_plan: FaultPlan,
) -> list[tuple[float, int]]:
    """Total wrongly-suspected (observer, target) pairs at each sample time.

    Regenerates the y-axis of the mobility experiment (Figure 3 of the
    follow-up report): a correct-but-moving node racks up false suspicions
    which must collapse back to zero after reconnection.
    """
    return [
        (t, trace.false_suspicion_count_at(t, fault_plan.down_at(t)))
        for t in sample_times
    ]


def message_load(
    trace: TraceRecorder,
    *,
    horizon: float,
    n: int,
) -> dict[str, float]:
    """Messages per second per process, by message kind plus ``"total"``."""
    if horizon <= 0 or n <= 0:
        raise ExperimentError("horizon and n must be positive")
    load = {
        kind: count / horizon / n for kind, count in sorted(trace.messages_by_kind.items())
    }
    load["total"] = trace.messages_total / horizon / n
    return load
