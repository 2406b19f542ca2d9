"""F1 — distribution (CDF) of crash detection time.

Pools per-observer detection latencies over many independent trials (one
crash each, fresh seed per trial) and reports quantiles for the time-free
detector and the heartbeat baseline.

Expected shape: the heartbeat CDF is a ramp supported on ``[Θ - Δ, Θ]``
(where the crash falls inside the beat/timer cycle is uniform); the
time-free CDF concentrates slightly above Δ (grace) + δ with a short tail
from quorum arrival jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.faults import CrashFault, FaultPlan
from .api import (
    DetectorAxis,
    ExperimentSpec,
    Metric,
    TrialAxis,
    per_detector_headers,
    register_experiment,
)
from .report import Table
from .scenarios import Scenario, victim_window

__all__ = ["F1Params", "SPEC", "run_cell", "tabulate"]


@dataclass(frozen=True)
class F1Params:
    n: int = 20
    f: int = 4
    #: registry keys of the detectors under comparison (sweepable axis)
    detectors: tuple[str, ...] = ("time-free", "heartbeat")
    trials: int = 10
    crash_at: float = 10.0
    horizon: float = 25.0
    quantiles: tuple[float, ...] = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99)
    seed: int = 1

    @classmethod
    def full(cls) -> "F1Params":
        return cls(n=30, f=6, trials=50)


def run_cell(params: F1Params, coords: dict, seed: int) -> dict:
    victim = params.n  # symmetric under full mesh
    plan = FaultPlan.of(crashes=[CrashFault(victim, params.crash_at)])
    cluster = Scenario(
        detector=coords["detector"],
        n=params.n,
        f=params.f,
        horizon=params.horizon,
        fault_plan=plan,
        seed=seed,
    ).run()
    stats = victim_window(cluster, victim, params.horizon)
    return {"latencies": sorted(stats.latencies.values())}


def _quantile(sorted_values: list[float], q: float) -> float | None:
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def tabulate(params: F1Params, values: list[dict]) -> Table:
    pooled: dict[str, list[float]] = {detector: [] for detector in params.detectors}
    for coords, value in zip(SPEC.cells(params), values):
        pooled[coords["detector"]].extend(value["latencies"])
    series = {detector: sorted(pooled[detector]) for detector in params.detectors}
    table = Table(
        title=(
            f"F1: detection-time distribution (n={params.n}, f={params.f}, "
            f"{params.trials} trials pooled)"
        ),
        headers=["quantile", *per_detector_headers(params.detectors)],
    )
    for q in params.quantiles:
        table.add_row(
            f"p{int(q * 100)}",
            *(_quantile(series[detector], q) for detector in params.detectors),
        )
    table.add_row("min", *(series[d][0] if series[d] else None for d in params.detectors))
    table.add_row("max", *(series[d][-1] if series[d] else None for d in params.detectors))
    table.add_note("heartbeat support is [Θ-Δ, Θ] = [1, 2] s; time-free ≈ Δ + δ.")
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="f1",
        title="distribution (CDF) of crash detection time",
        params_cls=F1Params,
        axes=(DetectorAxis(), TrialAxis()),
        run_cell=run_cell,
        metrics=(
            Metric("latencies", "sorted per-observer detection latencies of the crash (s)"),
        ),
        tabulate=tabulate,
    )
)
