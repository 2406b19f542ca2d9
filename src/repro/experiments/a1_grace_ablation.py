"""A1 (ablation) — the evaluation's pacing improvement, quantified.

Section 6 of the paper family's evaluation inserts a delay Δ between the
quorum wait (line 7) and the suspicion computation (line 8): extra
responses arriving during Δ are credited to ``rec_from``, which "reduces
the number of false suspicions... worth remarking that this improvement
does not change the protocol correctness".

This ablation sweeps Δ from 0 (raw protocol: *every* round suspects the
f slowest responders) upward, measuring false suspicions, detection time
of a real crash, and round throughput.  The trade surfaces directly:

* Δ = 0 — maximal round rate, detection within one RTT, but a storm of
  transient (self-correcting) false suspicions;
* growing Δ — false suspicions vanish once Δ covers the straggler spread,
  while detection time grows as ≈ Δ (a crash is noticed at the end of the
  round in progress).

Correctness is unaffected at every point (the crash is detected by all,
and every false suspicion is corrected) — which is the paper's claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import detection_stats, mistake_stats
from ..sim.faults import CrashFault, FaultPlan
from ..sim.latency import LogNormalLatency
from .api import ExperimentSpec, Metric, Monotone, ParamAxis, register_experiment
from .report import Table
from .scenarios import run_scenario

__all__ = ["A1Params", "SPEC", "run_cell", "tabulate"]


@dataclass(frozen=True)
class A1Params:
    n: int = 15
    f: int = 3
    #: registry key of the detector under test (sweepable axis)
    detector: str = "time-free"
    graces: tuple[float, ...] = (0.0, 0.01, 0.1, 0.5, 1.0)
    #: pacing between rounds so Δ=0 does not run hot
    idle: float = 0.1
    crash_at: float = 15.0
    horizon: float = 40.0
    delay_median: float = 0.003
    delay_sigma: float = 1.0
    seed: int = 1

    @classmethod
    def full(cls) -> "A1Params":
        return cls(n=30, f=6, graces=(0.0, 0.005, 0.02, 0.1, 0.3, 1.0, 2.0))


def run_cell(params: A1Params, coords: dict, seed: int) -> dict:
    grace = coords["grace"]
    victim = params.n
    plan = FaultPlan.of(crashes=[CrashFault(victim, params.crash_at)])
    cluster = run_scenario(
        detector=params.detector,
        detector_params={"grace": grace, "idle": params.idle},
        n=params.n,
        f=params.f,
        horizon=params.horizon,
        latency=LogNormalLatency(params.delay_median, params.delay_sigma),
        fault_plan=plan,
        seed=seed,
        start_stagger=max(grace, params.idle),
    )
    correct = cluster.correct_processes()
    mistakes = mistake_stats(cluster.trace, correct, horizon=params.horizon)
    crash = detection_stats(cluster.trace, victim, params.crash_at, correct)
    return {
        "false_suspicions": mistakes.count,
        "unresolved": mistakes.unresolved,
        "detect_mean": crash.mean_latency,
        "detect_max": crash.max_latency,
        "rounds_per_process": len(cluster.trace.rounds) / (params.n - 1),
    }


def tabulate(params: A1Params, values: list[dict]) -> Table:
    table = Table(
        title=(
            f"A1 (ablation): query-pacing grace Δ sweep "
            f"(n={params.n}, f={params.f}, 1 crash, log-normal delays)"
        ),
        headers=[
            "grace Δ (s)",
            "false suspicions",
            "uncorrected at end",
            "detect mean (s)",
            "detect max (s)",
            "rounds/process",
        ],
    )
    for grace, value in zip(params.graces, values):
        table.add_row(
            grace,
            value["false_suspicions"],
            value["unresolved"],
            value["detect_mean"],
            value["detect_max"],
            value["rounds_per_process"],
        )
    table.add_note(
        "Δ=0 is the raw protocol: the f slowest responders of every round "
        "get (transiently) suspected and corrected — correctness holds, "
        "accuracy noise is maximal."
    )
    table.add_note(
        "the paper's evaluation uses Δ=1s: zero false suspicions at the "
        "price of ≈Δ detection latency."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="a1",
        title="query-pacing grace Δ ablation",
        params_cls=A1Params,
        axes=(ParamAxis("grace", field="graces"),),
        run_cell=run_cell,
        metrics=(
            Metric("false_suspicions", "wrong suspicion intervals among correct pairs"),
            Metric("unresolved", "pairs still wrongly suspected at the horizon"),
            Metric("detect_mean", "mean crash-detection latency (s)"),
            Metric("detect_max", "max crash-detection latency (s)"),
            Metric("rounds_per_process", "completed query rounds per process"),
        ),
        shapes=(
            Monotone("false_suspicions", along="grace", direction="decreasing"),
            Monotone("rounds_per_process", along="grace", direction="decreasing"),
        ),
        tabulate=tabulate,
    )
)
