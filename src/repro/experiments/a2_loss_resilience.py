"""A2 (ablation) — behavior outside the model: lossy channels.

The paper assumes reliable links ("they do not create, alter or lose
messages").  This ablation measures what actually breaks when that
assumption fails, and what the minimal fix costs:

* without retransmission, a query round whose broadcast loses too many
  copies can stall below its ``n - f`` quorum forever — the process stops
  cycling (its detector freezes, completeness dies silently);
* with the driver-level retransmission extension (``QueryPacing.retry``),
  rounds always eventually terminate: lost queries/responses are re-asked.
  The timer involved re-transmits only — no suspicion is raised from it —
  so detection remains time-free.

Reported per (loss rate, retry setting): processes whose rounds froze,
round throughput, detection of a real crash, retransmissions sent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.faults import CrashFault, FaultPlan
from .api import ExperimentSpec, Metric, ParamAxis, register_experiment
from .report import Table
from .scenarios import Scenario, victim_window

__all__ = ["A2Params", "SPEC", "run_cell", "tabulate"]


@dataclass(frozen=True)
class A2Params:
    n: int = 10
    f: int = 2
    #: registry key of the detector under test (sweepable axis)
    detector: str = "time-free"
    loss_rates: tuple[float, ...] = (0.0, 0.1, 0.3)
    retry_settings: tuple[float | None, ...] = (None, 0.5)
    crash_at: float = 20.0
    horizon: float = 60.0
    grace: float = 0.2
    seed: int = 1

    @classmethod
    def full(cls) -> "A2Params":
        return cls(n=20, f=4, loss_rates=(0.0, 0.05, 0.1, 0.2, 0.3, 0.4))


def run_cell(params: A2Params, coords: dict, seed: int) -> dict:
    victim = params.n
    cluster = Scenario(
        detector=params.detector,
        detector_params={"grace": params.grace, "idle": 0.1, "retry": coords["retry"]},
        n=params.n,
        f=params.f,
        horizon=params.horizon,
        seed=seed,
        fault_plan=FaultPlan.of(crashes=[CrashFault(victim, params.crash_at)]),
        loss_rate=coords["loss"],
        start_stagger=params.grace,
    ).run()
    correct = cluster.correct_processes()
    # A process is "frozen" if it completed no round in the final
    # quarter of the run: its current query never reached quorum.
    cutoff = params.horizon * 0.75
    active = {r.querier for r in cluster.trace.rounds if r.finished_at >= cutoff}
    frozen = len([pid for pid in correct if pid not in active])
    retransmissions = sum(
        getattr(driver.core, "retries_sent", 0) for driver in cluster.drivers.values()
    )
    crash = victim_window(cluster, victim, params.horizon)
    return {
        "frozen": frozen,
        "rounds_per_process": len(cluster.trace.rounds) / (params.n - 1),
        "retransmissions": retransmissions,
        "detected_by": f"{len(crash.latencies)}/{len(correct)}",
    }


def tabulate(params: A2Params, values: list[dict]) -> Table:
    table = Table(
        title=(
            f"A2 (ablation): message loss vs round liveness "
            f"(n={params.n}, f={params.f}, 1 crash at t={params.crash_at:g}s)"
        ),
        headers=[
            "loss rate",
            "retry (s)",
            "frozen processes",
            "rounds/process",
            "retransmissions",
            "crash detected by",
        ],
    )
    for coords, value in zip(SPEC.cells(params), values):
        table.add_row(
            coords["loss"],
            coords["retry"] if coords["retry"] is not None else "off",
            value["frozen"],
            value["rounds_per_process"],
            value["retransmissions"],
            value["detected_by"],
        )
    table.add_note(
        "reliable channels (loss 0) never need retries; with loss, rounds "
        "stall without retransmission and recover with it."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="a2",
        title="message loss vs round liveness (retry ablation)",
        params_cls=A2Params,
        axes=(ParamAxis("loss", field="loss_rates"), ParamAxis("retry", field="retry_settings")),
        run_cell=run_cell,
        metrics=(
            Metric("frozen", "correct processes whose rounds stalled"),
            Metric("rounds_per_process", "completed query rounds per process"),
            Metric("retransmissions", "driver-level retries sent"),
            Metric("detected_by", "observers that detected the crash / correct"),
        ),
        tabulate=tabulate,
    )
)
