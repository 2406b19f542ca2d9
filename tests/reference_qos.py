"""Reference model of QoS scoring: the removed crash-stop scorers.

These are ``repro.metrics.qos``'s crash-stop scorers as they stood beside
the epoch scorers: ``detection_stats`` (one crash, a hand-picked victim,
crash time and observer set), ``all_detection_stats`` (every crash of a
plan, observed by the plan's correct set), ``mistake_stats`` /
``MistakeStats`` (false suspicions among a given correct set over the
whole horizon) and ``pair_qos`` / ``PairQoS`` (one monitored pair).  The
bodies are verbatim.  Production scores every cell against the fault
plan's down windows (``repro.metrics.detection_stats`` /
``mistake_stats``); on a crash-only plan scored over its correct set that
must equal this model value for value
(``tests/property/test_qos_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ExperimentError
from repro.ids import ProcessId
from repro.metrics import DetectionStats
from repro.sim.faults import FaultPlan
from repro.sim.trace import TraceRecorder

__all__ = [
    "MistakeStats",
    "PairQoS",
    "all_detection_stats",
    "detection_stats",
    "mistake_stats",
    "pair_qos",
]


def detection_stats(
    trace: TraceRecorder,
    crashed: ProcessId,
    crash_time: float,
    observers: Iterable[ProcessId],
) -> DetectionStats:
    """Per-observer detection latencies of one crash."""
    latencies: dict[ProcessId, float] = {}
    undetected: set[ProcessId] = set()
    for observer in observers:
        if observer == crashed:
            continue
        start = trace.permanent_suspicion_time(observer, crashed)
        if start is None:
            undetected.add(observer)
        else:
            # The permanent interval may have begun before the crash (a
            # false suspicion that the crash then made true); latency is
            # measured from the crash, floored at zero.
            latencies[observer] = max(0.0, start - crash_time)
    return DetectionStats(
        crashed=crashed,
        crash_time=crash_time,
        latencies=latencies,
        undetected=frozenset(undetected),
    )


def all_detection_stats(
    trace: TraceRecorder,
    fault_plan: FaultPlan,
    membership: Iterable[ProcessId],
) -> list[DetectionStats]:
    """Detection stats for every crash in the plan, observed by correct nodes."""
    correct = fault_plan.correct_processes(membership)
    return [
        detection_stats(trace, fault.process, fault.time, correct)
        for fault in fault_plan.crashes
    ]


@dataclass(frozen=True)
class MistakeStats:
    """False suspicions of correct processes by correct observers."""

    #: number of wrong suspicion intervals across all (observer, target) pairs
    count: int
    total_duration: float
    horizon: float
    #: pairs that were wrongly suspected at the end of the run
    unresolved: int

    @property
    def mean_duration(self) -> float | None:
        """Chen's T_M: average length of a mistake."""
        return self.total_duration / self.count if self.count else None

    @property
    def rate(self) -> float:
        """Chen's lambda_M analogue: mistakes per unit time, whole system."""
        return self.count / self.horizon if self.horizon > 0 else 0.0


def mistake_stats(
    trace: TraceRecorder,
    correct: Iterable[ProcessId],
    *,
    horizon: float,
) -> MistakeStats:
    """Aggregate false-suspicion statistics among correct processes."""
    correct_set = frozenset(correct)
    count = 0
    total = 0.0
    unresolved = 0
    for observer in correct_set:
        # Pairs with no suspicion history contribute nothing; skipping them
        # via the observer's ever-suspected set turns the quadratic pair
        # sweep into one bounded by actual suspicions (large-n grids).
        suspected_ever = trace.targets_of(observer)
        for target in suspected_ever & correct_set:
            if observer == target:
                continue
            intervals = trace.suspicion_intervals(observer, target, horizon=horizon)
            count += len(intervals)
            total += sum(end - start for start, end in intervals)
            if intervals and intervals[-1][1] >= horizon:
                unresolved += 1
    return MistakeStats(
        count=count, total_duration=total, horizon=horizon, unresolved=unresolved
    )


@dataclass(frozen=True)
class PairQoS:
    """Chen-Toueg-Aguilera QoS of one (observer, target) monitored pair."""

    observer: ProcessId
    target: ProcessId
    horizon: float
    #: crash-detection latency; None when the target never crashed
    detection_time: float | None
    mistake_count: int
    mistake_total_duration: float

    @property
    def mistake_rate(self) -> float:
        return self.mistake_count / self.horizon if self.horizon > 0 else 0.0

    @property
    def average_mistake_duration(self) -> float | None:
        if self.mistake_count == 0:
            return None
        return self.mistake_total_duration / self.mistake_count

    @property
    def query_accuracy_probability(self) -> float:
        """P_A: fraction of (pre-crash) time the pair's output was correct."""
        if self.horizon <= 0:
            return 1.0
        return max(0.0, 1.0 - self.mistake_total_duration / self.horizon)


def pair_qos(
    trace: TraceRecorder,
    observer: ProcessId,
    target: ProcessId,
    *,
    horizon: float,
    crash_time: float | None = None,
) -> PairQoS:
    """QoS of one monitored pair over ``[0, horizon]``.

    When the target crashed at ``crash_time``, suspicion intervals after the
    crash are correct behavior and excluded from the mistake tally.
    """
    if horizon <= 0:
        raise ExperimentError(f"horizon must be > 0, got {horizon}")
    truth_end = crash_time if crash_time is not None else horizon
    intervals = trace.suspicion_intervals(observer, target, horizon=horizon)
    mistakes = [
        (start, min(end, truth_end))
        for start, end in intervals
        if start < truth_end
    ]
    detection: float | None = None
    if crash_time is not None:
        start = trace.permanent_suspicion_time(observer, target)
        if start is not None:
            detection = max(0.0, start - crash_time)
    return PairQoS(
        observer=observer,
        target=target,
        horizon=horizon,
        detection_time=detection,
        mistake_count=len(mistakes),
        mistake_total_duration=sum(end - start for start, end in mistakes),
    )
