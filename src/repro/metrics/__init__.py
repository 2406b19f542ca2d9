"""Failure-detector quality-of-service metrics.

Computed exclusively from run traces plus the ground-truth fault plan,
following the vocabulary of Chen, Toueg & Aguilera ("On the quality of
service of failure detectors", IEEE ToC 2002).  The plan's down windows
(:meth:`~repro.sim.faults.FaultPlan.down_intervals`: a crash, a recovery
window, a pre-join gap, a departure) are the one ground truth, so every
definition is per epoch:

* **detection time** — a down window's start to the observer's detecting
  suspicion (for a window that never closes, the start of its final,
  never-revoked suspicion); the max across the observers up when the
  window closes is the *strong completeness* time the paper's Figure 2
  plots;
* **mistake rate / duration** — how often and for how long processes get
  suspected while both ends are up (accuracy);
* **query accuracy probability** — fraction of co-alive pair time an
  observer was right about its peer;
* **message load** — messages per second per process, by kind (the
  ``"consensus.instance"`` entry is the consensus workload's share).

A crash-only plan scored over its correct set gives the crash-stop
numbers: one window per crash, mistakes among correct pairs.

:mod:`repro.metrics.consensus` adds the application side of the QoS story:
decision latency, rounds-to-decide and oracle-aborted rounds of a consensus
workload running over the detector under measurement.
"""

from .consensus import ConsensusStats, consensus_stats
from .qos import (
    DetectionStats,
    MistakeStats,
    accuracy_stabilization,
    detection_stats,
    false_suspicion_series,
    message_load,
    mistake_stats,
)

__all__ = [
    "ConsensusStats",
    "DetectionStats",
    "MistakeStats",
    "accuracy_stabilization",
    "consensus_stats",
    "detection_stats",
    "false_suspicion_series",
    "message_load",
    "mistake_stats",
]
