"""T1 — crash detection time vs. system size n.

For each system size, one process crashes mid-run; we report the mean and
max (strong-completeness) detection latency across correct observers,
averaged over trials, for the time-free detector and the heartbeat
baseline.

Expected shape: heartbeat sits inside ``[Θ - Δ, Θ]`` independent of n (the
timeout dominates); the time-free detector tracks ``Δ + δ`` — the query
pacing plus one network hop — and does not degrade with n because every
query round refreshes all pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.faults import CrashFault, FaultPlan
from .api import (
    Banded,
    DetectorAxis,
    ExperimentSpec,
    Metric,
    ParamAxis,
    TrialAxis,
    group_values,
    per_detector_headers,
    register_experiment,
    stat_mean,
)
from .report import Table
from .scenarios import Scenario, victim_window

__all__ = ["T1Params", "SPEC", "run_cell", "tabulate"]


@dataclass(frozen=True)
class T1Params:
    sizes: tuple[int, ...] = (10, 20, 30)
    #: registry keys of the detectors under comparison (sweepable axis)
    detectors: tuple[str, ...] = ("time-free", "heartbeat")
    f_fraction: float = 0.2
    trials: int = 3
    crash_at: float = 15.0
    horizon: float = 40.0
    seed: int = 1

    @classmethod
    def full(cls) -> "T1Params":
        return cls(sizes=(10, 20, 30, 40, 50, 60), trials=5)


def run_cell(params: T1Params, coords: dict, seed: int) -> dict:
    n = coords["n"]
    f = max(1, int(n * params.f_fraction))
    victim = n  # crash the highest id; ids are symmetric under full mesh
    plan = FaultPlan.of(crashes=[CrashFault(victim, params.crash_at)])
    cluster = Scenario(
        detector=coords["detector"],
        n=n,
        f=f,
        horizon=params.horizon,
        fault_plan=plan,
        seed=seed,
    ).run()
    stats = victim_window(cluster, victim, params.horizon)
    return {"mean": stats.mean_latency, "max": stats.max_latency}


def tabulate(params: T1Params, values: list[dict]) -> Table:
    table = Table(
        title="T1: crash detection time vs system size (full mesh, 1 crash)",
        headers=["n", "f", *per_detector_headers(params.detectors, ("mean", "max"))],
    )
    grouped = group_values(SPEC.cells(params), values, "n", "detector")
    for n in params.sizes:
        row: list[float] = []
        for detector in params.detectors:
            trials = [v for v in grouped[(n, detector)] if v["mean"] is not None]
            row.append(stat_mean(v["mean"] for v in trials))
            row.append(stat_mean(v["max"] for v in trials))
        table.add_row(n, max(1, int(n * params.f_fraction)), *row)
    table.add_note(
        "Δ = 1 s (query grace / heartbeat period), Θ = 2 s, δ ≈ 1 ms exponential."
    )
    table.add_note(
        "expected: heartbeat in [Θ-Δ, Θ] regardless of n; time-free ≈ Δ + δ."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="t1",
        title="crash detection time vs system size (time-free vs heartbeat)",
        params_cls=T1Params,
        axes=(ParamAxis("n", field="sizes"), DetectorAxis(), TrialAxis()),
        run_cell=run_cell,
        metrics=(
            Metric("mean", "mean detection latency across correct observers (s)"),
            Metric("max", "strong-completeness latency: last observer to detect (s)"),
        ),
        shapes=(
            Banded("mean", lo=0.0),
            Banded("max", lo=0.0),
        ),
        tabulate=tabulate,
    )
)
