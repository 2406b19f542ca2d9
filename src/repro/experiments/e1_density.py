"""E1 — detection time vs range density d (extension experiment).

Reconstruction of the follow-up report's Figure 2 on our simulator: the
partial-connectivity time-free detector against the Friedman-Tcharny gossip
detector, on f-covering MANET topologies whose range density ``d`` is swept
via the construction's acceptance threshold.  Five crashes are inserted
uniformly during each run.

Expected shape (as documented in the report): the gossip detector's mean
detection time lies in ``[Θ - Δ, Θ]`` at every density (timer-bound); the
time-free detector's detection time *decreases* as density grows — query
messages carry suspicion records to more neighbors per hop — and flattens
around ``Δ + δ`` at high density.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import detection_stats
from ..partial import validate_f_covering, validate_f_covering_fast
from ..sim.faults import uniform_crashes
from ..sim.rng import RngStreams
from ..sim.topology import manet_topology
from .api import (
    DetectorAxis,
    ExperimentSpec,
    Metric,
    ParamAxis,
    TrialAxis,
    register_experiment,
)
from .report import Table
from .scenarios import Scenario, table_label

__all__ = ["E1Params", "SPEC", "run_cell", "tabulate"]

#: legacy table labels for the default comparison pair
_LABELS = {"partial": "time-free (async)", "gossip": "Friedman-Tcharny"}


def _label(detector: str) -> str:
    return _LABELS.get(detector, table_label(detector))


@dataclass(frozen=True)
class E1Params:
    n: int = 50
    f: int = 5
    #: registry keys of the detectors under comparison (sweepable axis)
    detectors: tuple[str, ...] = ("partial", "gossip")
    densities: tuple[int, ...] = (7, 12, 20)
    crashes: int = 5
    crash_window: tuple[float, float] = (5.0, 20.0)
    horizon: float = 45.0
    area: float = 700.0
    transmission_range: float = 100.0
    #: independent topologies/crash schedules pooled per density row
    trials: int = 1
    seed: int = 1

    @classmethod
    def full(cls) -> "E1Params":
        return cls(n=100, densities=(7, 10, 14, 20, 28, 40), horizon=90.0, trials=3)

    @classmethod
    def large_n(cls) -> "E1Params":
        """An order of magnitude past the report's figures (n=2000).

        Only feasible on the columnar trace plane: the object recorder's
        per-change suspect snapshots alone would dwarf the simulation.
        Topology validation switches to the fast necessary checks above
        ``_MENGER_VALIDATION_MAX_N`` nodes (see ``_build_topology``).
        """
        return cls(
            n=2000,
            f=4,
            densities=(10, 16),
            crashes=4,
            crash_window=(5.0, 15.0),
            horizon=30.0,
            area=2500.0,
        )


#: above this size deciding (f+1)-connectivity (one bounded flow per node)
#: costs more than the cell it guards; fall back to the cheap necessary conditions
_MENGER_VALIDATION_MAX_N = 500


def _build_topology(params: E1Params, target_density: int, attempt_seed: int):
    """Build an f-covering MANET whose density is at least the target."""
    rng = RngStreams(attempt_seed).stream("e1", "topology", target_density)
    topology = manet_topology(
        params.n,
        params.f,
        rng,
        area=params.area,
        transmission_range=params.transmission_range,
        min_neighbors=target_density - 1,
    )
    if params.n <= _MENGER_VALIDATION_MAX_N:
        validate_f_covering(topology, params.f)
    else:
        validate_f_covering_fast(topology, params.f)
    return topology


def run_cell(params: E1Params, coords: dict, seed: int) -> dict:
    # The MANET construction's acceptance restrictions are calibrated to the
    # params' own seed schedule, so the derived per-cell seed is unused: the
    # same (seed, trial) must rebuild the identical topology for both
    # detectors of a trial.
    trial_seed = params.seed + 1000 * coords["trial"]
    target = coords["target_d"]
    topology = _build_topology(params, target, trial_seed)
    victims_rng = RngStreams(trial_seed).stream("e1", "victims", target)
    victims = victims_rng.sample(sorted(topology.ids()), params.crashes)
    plan = uniform_crashes(
        victims,
        victims_rng,
        start=params.crash_window[0],
        end=params.crash_window[1],
    )
    actual_d = topology.range_density()
    # The Scenario hand-over rule: the validated original is dropped here
    topology = topology.copy()
    cluster = Scenario(
        detector=coords["detector"],
        topology=topology,
        f=params.f,
        horizon=params.horizon,
        fault_plan=plan,
        seed=trial_seed,
    ).run()
    stats = detection_stats(
        cluster.trace, plan, cluster.membership, horizon=params.horizon
    )
    return {
        "actual_d": actual_d,
        "latencies": [
            latency for stat in stats for latency in stat.latencies.values()
        ],
        "undetected": sum(len(stat.undetected) for stat in stats),
    }


def tabulate(params: E1Params, values: list[dict]) -> Table:
    table = Table(
        title=(
            f"E1: detection time vs range density "
            f"(MANET, n={params.n}, f={params.f}, {params.crashes} crashes)"
        ),
        headers=[
            "target d",
            "actual d",
            "detector",
            "detect min (s)",
            "detect mean (s)",
            "detect max (s)",
            "undetected",
        ],
    )
    grouped: dict[tuple[int, str], dict] = {}
    densities_by_target: dict[int, list[int]] = {}
    for coords, value in zip(SPEC.cells(params), values):
        key = (coords["target_d"], coords["detector"])
        group = grouped.setdefault(key, {"latencies": [], "undetected": 0})
        group["latencies"].extend(value["latencies"])
        group["undetected"] += value["undetected"]
        if coords["detector"] == params.detectors[0]:
            densities_by_target.setdefault(coords["target_d"], []).append(
                value["actual_d"]
            )
    for target in params.densities:
        observed = densities_by_target[target]
        actual_d = round(sum(observed) / len(observed))
        for detector in params.detectors:
            group = grouped[(target, detector)]
            latencies = group["latencies"]
            table.add_row(
                target,
                actual_d,
                _label(detector),
                min(latencies) if latencies else None,
                sum(latencies) / len(latencies) if latencies else None,
                max(latencies) if latencies else None,
                group["undetected"],
            )
    table.add_note("Δ = 1 s, Θ = 2 s, one-hop δ ≈ 1 ms; suspicions flood hop by hop.")
    table.add_note(
        "expected: gossip flat within [Θ-Δ, Θ]; time-free decreasing with d towards Δ+δ."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="e1",
        title="detection time vs range density on f-covering MANETs",
        params_cls=E1Params,
        axes=(ParamAxis("target_d", field="densities"), TrialAxis(), DetectorAxis()),
        run_cell=run_cell,
        metrics=(
            Metric("actual_d", "range density of the built topology"),
            Metric("latencies", "pooled per-observer detection latencies (s)"),
            Metric("undetected", "(observer, crash) pairs never detected"),
        ),
        tabulate=tabulate,
    )
)
