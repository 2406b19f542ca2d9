"""T2 — impact of the crash bound f on the time-free detector.

``f`` shapes the protocol directly: a query terminates after ``n - f``
responses, so raising ``f`` makes rounds terminate earlier (a smaller
quorum is reached sooner) but also makes the round's verdict rely on fewer
witnesses — at the extreme, under delay variance, more false suspicions
(all self-correcting).  Detection time itself stays pinned near Δ + δ
because the pacing grace dominates the quorum wait.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from ..metrics import mistake_stats
from ..sim.faults import CrashFault, FaultPlan
from ..sim.latency import LogNormalLatency
from .api import ExperimentSpec, Metric, ParamAxis, register_experiment
from .report import Table
from .scenarios import Scenario, victim_window

__all__ = ["T2Params", "SPEC", "run_cell", "tabulate"]


@dataclass(frozen=True)
class T2Params:
    n: int = 30
    #: registry key of the detector under test (sweepable axis)
    detector: str = "time-free"
    f_values: tuple[int, ...] = (1, 5, 10, 14)
    crash_at: float = 15.0
    horizon: float = 40.0
    #: heavy-ish delays so quorum size visibly matters
    delay_median: float = 0.002
    delay_sigma: float = 1.0
    seed: int = 1

    @classmethod
    def full(cls) -> "T2Params":
        return cls(f_values=(1, 3, 5, 7, 10, 14, 20))


def run_cell(params: T2Params, coords: dict, seed: int) -> dict:
    f = coords["f"]
    victim = params.n
    plan = FaultPlan.of(crashes=[CrashFault(victim, params.crash_at)])
    cluster = Scenario(
        detector=params.detector,
        n=params.n,
        f=f,
        horizon=params.horizon,
        latency=LogNormalLatency(params.delay_median, params.delay_sigma),
        fault_plan=plan,
        seed=seed,
    ).run()
    stats = victim_window(cluster, victim, params.horizon)
    durations = [r.finished_at - r.started_at for r in cluster.trace.rounds]
    mistakes = mistake_stats(
        cluster.trace, plan, cluster.correct_processes(), horizon=params.horizon
    )
    return {
        "detect_mean": stats.mean_latency,
        "detect_max": stats.max_latency,
        "round_duration": mean(durations) if durations else None,
        "rounds_per_process": len(cluster.trace.rounds) / (params.n - 1),
        "false_suspicions": mistakes.count,
    }


def tabulate(params: T2Params, values: list[dict]) -> Table:
    table = Table(
        title=f"T2: impact of f (time-free detector, n={params.n}, 1 crash)",
        headers=[
            "f",
            "quorum n-f",
            "detect mean (s)",
            "detect max (s)",
            "round duration (s)",
            "rounds/process",
            "false suspicions",
        ],
    )
    for f, value in zip(params.f_values, values):
        table.add_row(
            f,
            params.n - f,
            value["detect_mean"],
            value["detect_max"],
            value["round_duration"],
            value["rounds_per_process"],
            value["false_suspicions"],
        )
    table.add_note(
        "rounds terminate after n-f responses; the grace Δ=1s dominates round time."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="t2",
        title="impact of the crash bound f on the time-free detector",
        params_cls=T2Params,
        axes=(ParamAxis("f", field="f_values"),),
        run_cell=run_cell,
        metrics=(
            Metric("detect_mean", "mean crash-detection latency (s)"),
            Metric("detect_max", "max crash-detection latency (s)"),
            Metric("round_duration", "mean query-round duration (s)"),
            Metric("rounds_per_process", "completed query rounds per process"),
            Metric("false_suspicions", "wrong suspicion intervals among correct pairs"),
        ),
        tabulate=tabulate,
    )
)
