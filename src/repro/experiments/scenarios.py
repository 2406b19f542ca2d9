"""Canonical scenario builders shared by every experiment and benchmark.

A scenario is: a topology, a latency model, a fault plan, and one detector
deployed on every node.  :func:`run_scenario` assembles the cluster, runs it
to the horizon and returns it (trace included).  The detector is named the
way :class:`~repro.consensus.ConsensusHarness` and
:class:`~repro.runtime.LocalCluster` name it: a **registry key** (see
:mod:`repro.detectors`) plus a dict of that family's typed params, where a
knob the family lacks is a :class:`~repro.errors.ConfigurationError`.

Parameter conventions follow the paper family's evaluation: Δ (``period`` /
query ``grace``) defaults to 1 s, Θ (``timeout``) to 2 s, and the one-hop
delay δ averages 1 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..detectors import get_detector, sim_driver_factory
from ..errors import ConfigurationError
from ..ids import ProcessId
from ..registry import Registry
from ..sim.cluster import SimCluster
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
    "FaultScenario",
    "FAULT_SCENARIOS",
    "run_scenario",
    "table_label",
    "register_fault_scenario",
    "get_fault_scenario",
    "fault_scenario_keys",
    "fault_plan_for",
]


#: table labels of the four comparable families (Δ = 1 s everywhere, Θ = 2 s:
#: the registry defaults); any other key labels itself
_TABLE_LABELS = {
    "time-free": "time-free (async)",
    "heartbeat": "heartbeat Θ=2s",
    "gossip": "gossip FT Θ=2s",
    "phi": "phi-accrual",
}


def table_label(detector: str) -> str:
    """The row label experiment tables print for a detector registry key."""
    return _TABLE_LABELS.get(detector, detector)


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


#: the scenarios below register at this module's import (built-ins listed
#: in name order)
FAULT_SCENARIOS: Registry[FaultScenario] = Registry(
    "fault scenario",
    "name",
    dict.fromkeys(("churn", "coordcrash", "crashrec", "lossburst", "partition"), __name__),
)
register_fault_scenario = FAULT_SCENARIOS.register
get_fault_scenario = FAULT_SCENARIOS.get
fault_scenario_keys = FAULT_SCENARIOS.keys


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
    detector: str,
    detector_params: Mapping[str, Any] | None = None,
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

    ``detector`` is a registry key and ``detector_params`` that family's
    typed knobs; one the family lacks raises :class:`ConfigurationError`.
    The cluster comes back closed (:meth:`SimCluster.close`): its trace,
    ``drivers`` and ``suspects_of`` read as before, and it cannot run again.
    Hand-over rule (docs/scenarios.md): ``topology`` becomes the cluster's graph
    (mobility faults rewire it) and should be the caller's only live one.  A cell
    reads what it reports about the graph it validated first, then passes
    ``Topology.copy()`` (the edge replay the goldens' bytes rest on) and drops it.
    """
    params = get_detector(detector).make_params(**(detector_params or {}))
    if latency is None:
        latency = ExponentialLatency(mean=0.001)  # the paper's δ ≈ 1 ms
    if start_stagger is None:
        # Desynchronise rounds/heartbeats by up to one period by default;
        # never under 1 s (docs/scenarios.md, "Start stagger").
        start_stagger = max(
            1.0, getattr(params, "grace", 0.0), getattr(params, "period", 0.0)
        )
    cluster = SimCluster(
        n=n,
        topology=topology,
        driver_factory=sim_driver_factory(detector, f, params),
        latency=latency,
        seed=seed,
        fault_plan=fault_plan,
        loss_rate=loss_rate,
        start_stagger=start_stagger,
    )
    cluster.run(until=horizon)
    cluster.close()
    return cluster
