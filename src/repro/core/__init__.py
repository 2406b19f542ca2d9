"""The paper's primary contribution: a time-free failure detector.

Public surface:

* :class:`repro.core.protocol.TimeFreeDetector` — the sans-I/O query-response
  detector (Algorithm 1 of the paper): over a given membership with an
  ``n - f`` quorum, or over a learned one with a ``d - f`` quorum.
* :class:`repro.core.tags.TaggedSet` / :class:`repro.core.tags.SuspicionState`
  — the counter-tagged suspicion/mistake bookkeeping.
* :mod:`repro.core.messages` — wire messages shared by every runtime.
* :mod:`repro.core.properties` — oracles for the behavioral properties (MP,
  RP, winning responses) the correctness proof relies on.
* :mod:`repro.core.classes` — the Chandra-Toueg failure-detector class
  taxonomy and the abstract detector interface.
* :mod:`repro.core.omega` — eventual leader election layered on the detector.
"""

from .classes import FailureDetector, FDClass
from .messages import Query, Response
from .protocol import DetectorConfig, QueryRoundOutcome, TimeFreeDetector
from .tags import MergeOutcome, SuspicionState, TaggedSet

__all__ = [
    "DetectorConfig",
    "FDClass",
    "FailureDetector",
    "MergeOutcome",
    "Query",
    "QueryRoundOutcome",
    "Response",
    "SuspicionState",
    "TaggedSet",
    "TimeFreeDetector",
]
