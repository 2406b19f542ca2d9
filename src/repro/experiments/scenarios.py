"""Canonical scenario builders shared by every experiment and benchmark.

A scenario is: a topology, a latency model, a fault plan, and one detector
deployed on every node.  :func:`run_scenario` assembles the cluster, runs it
to the horizon and returns it (trace included).  Detectors are selected by
**registry key** (see :mod:`repro.detectors`) — pass a key string, or a
:class:`DetectorSetup` when knobs need overriding — so experiment tables
can iterate over comparable configurations of any registered family.

Parameter conventions follow the paper family's evaluation: Δ (``period`` /
query ``grace``) defaults to 1 s, Θ (``timeout``) to 2 s, and the one-hop
delay δ averages 1 ms.

.. deprecated::
    :class:`DetectorSetup` predates the :mod:`repro.detectors` registry
    and is kept as a thin compatibility shim: it is one flat bag of every
    family's knobs, translated to the family's typed params at
    ``driver_factory`` time.  New code should address families through
    the registry (``sim_driver_factory(key, f, **params)``) or pass plain
    key strings to :func:`run_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from ..detectors import get_detector, sim_driver_factory
from ..errors import ConfigurationError
from ..ids import ProcessId
from ..sim.cluster import DriverFactory, SimCluster
from ..sim.faults import (
    CrashFault,
    FaultPlan,
    JoinFault,
    LeaveFault,
    LossBurst,
    PartitionFault,
    RecoveryFault,
)
from ..sim.latency import ExponentialLatency, LatencyModel
from ..sim.topology import Topology

__all__ = [
    "DetectorSetup",
    "FaultScenario",
    "run_scenario",
    "setup_for",
    "register_fault_scenario",
    "get_fault_scenario",
    "fault_scenario_keys",
    "fault_plan_for",
    "TIME_FREE",
    "HEARTBEAT",
    "GOSSIP",
    "PHI",
]


@dataclass(frozen=True)
class DetectorSetup:
    """Which detector to deploy and with what knobs (legacy shim).

    ``kind`` is any :mod:`repro.detectors` registry key (built-in:
    ``time-free``, ``partial``, ``heartbeat``, ``heartbeat-adaptive``,
    ``gossip``, ``phi``).  Timer-based kinds use ``period``/``timeout``
    (and ``phi_threshold``); query-response kinds use ``grace``/``idle``
    (plus ``d`` for the partial detector and ``retry`` for the
    lossy-channel extension).  Knobs that do not apply to ``kind`` are
    ignored, which is what lets one flat setup sweep across families.
    """

    kind: str
    label: str = ""
    grace: float = 1.0
    idle: float = 0.0
    retry: float | None = None
    d: int | None = None
    period: float = 1.0
    timeout: float = 2.0
    phi_threshold: float = 8.0
    timeout_increment: float = 0.5
    mobility: bool = True
    with_omega: bool = False

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", self.kind)

    def with_(self, **changes) -> "DetectorSetup":
        return replace(self, **changes)

    def registry_params(self) -> dict:
        """This setup's knobs, narrowed to the family's typed params."""
        spec = get_detector(self.kind)
        legacy = {
            "grace": self.grace,
            "idle": self.idle,
            "retry": self.retry,
            "with_omega": self.with_omega,
            "d": self.d,
            "mobility": self.mobility,
            "period": self.period,
            "timeout": self.timeout,
            "threshold": self.phi_threshold,
            "timeout_increment": self.timeout_increment,
        }
        return {name: legacy[name] for name in spec.param_names() if name in legacy}

    def driver_factory(self, f: int) -> DriverFactory:
        return sim_driver_factory(self.kind, f, **self.registry_params())


#: Canonical comparable configurations (Δ = 1 s everywhere, Θ = 2 s).
TIME_FREE = DetectorSetup(kind="time-free", label="time-free (async)", grace=1.0)
HEARTBEAT = DetectorSetup(kind="heartbeat", label="heartbeat Θ=2s", period=1.0, timeout=2.0)
GOSSIP = DetectorSetup(kind="gossip", label="gossip FT Θ=2s", period=1.0, timeout=2.0)
PHI = DetectorSetup(kind="phi", label="phi-accrual", period=1.0, phi_threshold=8.0)

_PRESETS = {
    TIME_FREE.kind: TIME_FREE,
    HEARTBEAT.kind: HEARTBEAT,
    GOSSIP.kind: GOSSIP,
    PHI.kind: PHI,
}


def setup_for(detector: "str | DetectorSetup") -> DetectorSetup:
    """Resolve a registry key (or pass through a setup) to a DetectorSetup.

    Keys with a canonical comparable preset (``time-free``, ``heartbeat``,
    ``gossip``, ``phi``) resolve to it — same Δ/Θ and table labels as
    always; any other registered key resolves to a default-knob setup.
    """
    if isinstance(detector, DetectorSetup):
        return detector
    preset = _PRESETS.get(detector)
    if preset is not None:
        return preset
    get_detector(detector)  # raise early on unknown keys
    return DetectorSetup(kind=detector)


# ---------------------------------------------------------------------------
# fault scenarios
# ---------------------------------------------------------------------------

#: ``build(members, f, horizon, exclude)`` -> the scenario's fault plan
FaultPlanBuilder = Callable[
    [Sequence[ProcessId], int, float, frozenset], FaultPlan
]


@dataclass(frozen=True)
class FaultScenario:
    """A named, typed fault-plan builder — the value of a ``FaultAxis``.

    Builders are **deterministic** (no RNG): every fault time is a fixed
    fraction of the horizon and every victim a fixed pick from the sorted
    membership, so a scenario name fully determines the plan and per-cell
    seeds keep their meaning.  ``exclude`` shields processes with a
    scripted role elsewhere in the cell (q1's crash victim) from double
    casting.
    """

    name: str
    summary: str
    build: FaultPlanBuilder


_FAULT_SCENARIOS: dict[str, FaultScenario] = {}


def register_fault_scenario(scenario: FaultScenario) -> FaultScenario:
    if not scenario.name or scenario.name != scenario.name.lower():
        raise ConfigurationError(
            f"fault scenario name must be non-empty lower-case: {scenario.name!r}"
        )
    existing = _FAULT_SCENARIOS.get(scenario.name)
    if existing is not None and existing is not scenario:
        raise ConfigurationError(
            f"fault scenario {scenario.name!r} is already registered"
        )
    _FAULT_SCENARIOS[scenario.name] = scenario
    return scenario


def get_fault_scenario(name: str) -> FaultScenario:
    scenario = _FAULT_SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown fault scenario {name!r}; choose from {sorted(_FAULT_SCENARIOS)}"
        )
    return scenario


def fault_scenario_keys() -> list[str]:
    return sorted(_FAULT_SCENARIOS)


def fault_plan_for(
    name: str,
    *,
    members: Iterable[ProcessId],
    f: int,
    horizon: float,
    exclude: Iterable[ProcessId] = (),
) -> FaultPlan:
    """Build the named scenario's plan for one concrete deployment."""
    ordered = sorted(members, key=repr)
    return get_fault_scenario(name).build(ordered, f, horizon, frozenset(exclude))


def _eligible(
    members: Sequence[ProcessId], exclude: frozenset
) -> list[ProcessId]:
    return [pid for pid in members if pid not in exclude]


def _build_partition(
    members: Sequence[ProcessId], f: int, horizon: float, exclude: frozenset
) -> FaultPlan:
    if len(members) < 2:
        raise ConfigurationError("a partition needs at least 2 members")
    half = len(members) // 2
    return FaultPlan.of(
        partitions=[
            PartitionFault(
                sides=(tuple(members[:half]), tuple(members[half:])),
                start=0.25 * horizon,
                end=0.45 * horizon,
            )
        ]
    )


def _build_crashrec(
    members: Sequence[ProcessId], f: int, horizon: float, exclude: frozenset
) -> FaultPlan:
    victims = _eligible(members, exclude)[:2]
    if not victims:
        raise ConfigurationError("crashrec needs at least 1 eligible member")
    recoveries = [
        RecoveryFault(
            process=victims[0],
            crash=0.20 * horizon,
            recover=0.35 * horizon,
            persistent=False,
        )
    ]
    if len(victims) > 1:
        recoveries.append(
            RecoveryFault(
                process=victims[1],
                crash=0.50 * horizon,
                recover=0.65 * horizon,
                persistent=True,
            )
        )
    return FaultPlan.of(recoveries=recoveries)


def _build_churn(
    members: Sequence[ProcessId], f: int, horizon: float, exclude: frozenset
) -> FaultPlan:
    eligible = _eligible(members, exclude)
    if len(eligible) < 3:
        raise ConfigurationError("churn needs at least 3 eligible members")
    joiner, first_leaver, second_leaver = eligible[:3]
    return FaultPlan.of(
        joins=[JoinFault(process=joiner, time=0.20 * horizon)],
        leaves=[
            LeaveFault(process=first_leaver, time=0.70 * horizon),
            LeaveFault(process=second_leaver, time=0.80 * horizon),
        ],
    )


def _build_coordcrash(
    members: Sequence[ProcessId], f: int, horizon: float, exclude: frozenset
) -> FaultPlan:
    victims = _eligible(members, exclude)
    if not victims:
        raise ConfigurationError("coordcrash needs at least 1 eligible member")
    # The first member in sorted order is the round-1 coordinator of the
    # rotating-coordinator protocols; killing it right at start — before it
    # can answer the first query round or the workload proposes — makes
    # every in-flight consensus instance pay the detector's full detection
    # latency before round 2 can proceed.
    return FaultPlan.of(crashes=[CrashFault(process=victims[0], time=0.001)])


def _build_lossburst(
    members: Sequence[ProcessId], f: int, horizon: float, exclude: frozenset
) -> FaultPlan:
    return FaultPlan.of(
        bursts=[LossBurst(start=0.30 * horizon, end=0.50 * horizon, rate=0.25)]
    )


register_fault_scenario(
    FaultScenario(
        name="partition",
        summary="membership splits into two halves mid-run, heals later",
        build=_build_partition,
    )
)
register_fault_scenario(
    FaultScenario(
        name="crashrec",
        summary="two crash-recovery episodes: one volatile, one persistent",
        build=_build_crashrec,
    )
)
register_fault_scenario(
    FaultScenario(
        name="churn",
        summary="dynamic membership: one late joiner, two departures",
        build=_build_churn,
    )
)
register_fault_scenario(
    FaultScenario(
        name="coordcrash",
        summary="the round-1 coordinator (first sorted member) crashes at start",
        build=_build_coordcrash,
    )
)
register_fault_scenario(
    FaultScenario(
        name="lossburst",
        summary="25% loss spike on every link for a fifth of the run",
        build=_build_lossburst,
    )
)


def run_scenario(
    *,
    setup: "DetectorSetup | str",
    f: int,
    horizon: float,
    n: int | None = None,
    topology: Topology | None = None,
    latency: LatencyModel | None = None,
    fault_plan: FaultPlan | None = None,
    seed: int = 1,
    loss_rate: float = 0.0,
    start_stagger: float | None = None,
) -> SimCluster:
    """Build the cluster, run it to ``horizon``, return it (trace inside).

    The cluster comes back closed (:meth:`SimCluster.close`): its trace,
    ``drivers`` and ``suspects_of`` read as before, and it cannot run again.
    Hand-over rule (docs/scenarios.md): ``topology`` becomes the cluster's graph
    (mobility faults rewire it) and should be the caller's only live one.  A cell
    reads what it reports about the graph it validated first, then passes
    ``Topology.copy()`` (the edge replay the goldens' bytes rest on) and drops it.
    """
    setup = setup_for(setup)
    if latency is None:
        latency = ExponentialLatency(mean=0.001)  # the paper's δ ≈ 1 ms
    if start_stagger is None:
        # Desynchronise rounds/heartbeats by up to one period by default.
        start_stagger = max(setup.grace, setup.period)
    cluster = SimCluster(
        n=n,
        topology=topology,
        driver_factory=setup.driver_factory(f),
        latency=latency,
        seed=seed,
        fault_plan=fault_plan,
        loss_rate=loss_rate,
        start_stagger=start_stagger,
    )
    cluster.run(until=horizon)
    cluster.close()
    return cluster
