"""F2 — accuracy under asynchrony: who keeps an accuracy anchor?

No process ever crashes in these runs, so every suspicion is false.  One
process (p1) is *responsive* in the paper's RP sense: its links are 8x
faster than everyone else's (:class:`~repro.sim.latency.BiasedLatency`).
◇S only promises that *some* correct process is eventually never suspected
— that anchor is what consensus liveness consumes — so the decisive metric
is the **responsive process's** false suspicions, not the total (transient
suspicions of slow processes are by-design and self-correcting in the
time-free protocol).

* **Regime shift** (the ``shift`` section): all delays multiply by a
  factor mid-run.  Rescaling preserves response *order*, so the responsive
  process keeps winning quorums and the time-free detector never suspects
  it, at any factor.  Fixed timeouts are calibrated in absolute time: once
  the inflated delays approach Θ, even the responsive process's heartbeats
  miss the deadline — the anchor is lost.  Phi-accrual re-adapts after its
  window refills but is wrong during the transition.
* **Variance sweep** (the ``sigma`` section): log-normal delays with
  growing σ at a fixed median; same metrics, tail-driven instead of
  shift-driven.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import accuracy_stabilization, mistake_stats
from ..sim.latency import (
    BiasedLatency,
    ExponentialLatency,
    LatencyModel,
    LogNormalLatency,
    RegimeShiftLatency,
)
from .api import (
    ConstAxis,
    DetectorAxis,
    ExperimentSpec,
    Metric,
    ParamAxis,
    Section,
    register_experiment,
)
from .report import Table
from .scenarios import Scenario, table_label

__all__ = ["F2Params", "SPEC", "run_cell", "tabulate"]


#: legacy table labels for the default comparison trio
_LABELS = {
    "time-free": "time-free",
    "heartbeat": "heartbeat Θ=2s",
    "phi": "phi-accrual t=8",
}


@dataclass(frozen=True)
class F2Params:
    n: int = 15
    f: int = 3
    #: registry keys of the detectors under comparison (sweepable axis)
    detectors: tuple[str, ...] = ("time-free", "heartbeat", "phi")
    horizon: float = 60.0
    responsive: int = 1
    responsive_speedup: float = 8.0
    base_delay_mean: float = 0.005
    shift_at: float = 20.0
    shift_factors: tuple[float, ...] = (1.0, 50.0, 400.0, 2000.0)
    sigmas: tuple[float, ...] = (0.5, 1.5, 2.5)
    delay_median: float = 0.005
    seed: int = 1

    @classmethod
    def full(cls) -> "F2Params":
        return cls(
            n=30,
            f=6,
            horizon=120.0,
            shift_factors=(1.0, 10.0, 50.0, 200.0, 400.0, 1000.0, 2000.0),
            sigmas=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        )


def _label(detector: str) -> str:
    return _LABELS.get(detector, table_label(detector))


def _biased(params: F2Params, base: LatencyModel) -> LatencyModel:
    return BiasedLatency(
        base,
        favored=frozenset({params.responsive}),
        speedup=params.responsive_speedup,
        bidirectional=True,
    )


def run_cell(params: F2Params, coords: dict, seed: int) -> dict:
    if coords["sweep"] == "shift":
        latency = _biased(
            params,
            RegimeShiftLatency(
                ExponentialLatency(params.base_delay_mean),
                shift_at=params.shift_at,
                factor=coords["stress"],
            ),
        )
    else:
        latency = _biased(params, LogNormalLatency(params.delay_median, coords["stress"]))
    cluster = Scenario(
        detector=coords["detector"],
        n=params.n,
        f=params.f,
        horizon=params.horizon,
        latency=latency,
        seed=seed,
    ).run()
    correct = cluster.correct_processes()
    total = mistake_stats(
        cluster.trace, cluster.fault_plan, correct, horizon=params.horizon
    )
    responsive_suspicions = sum(
        len(cluster.trace.suspicion_intervals(obs, params.responsive, horizon=params.horizon))
        for obs in correct
        if obs != params.responsive
    )
    stabilization = accuracy_stabilization(cluster.trace, correct, horizon=params.horizon)
    return {
        "total": total.count,
        "responsive": responsive_suspicions,
        "anchor_ok": stabilization[params.responsive] is not None,
    }


def _headers() -> list[str]:
    return [
        "stress",
        "detector",
        "total false susp.",
        "responsive-node false susp.",
        "responsive node clear at end",
    ]


def _fill(
    table: Table, params: F2Params, grid: list[dict], values: list[dict], stress_format
) -> Table:
    for coords, value in zip(grid, values):
        table.add_row(
            stress_format(coords["stress"]),
            _label(coords["detector"]),
            value["total"],
            value["responsive"],
            value["anchor_ok"],
        )
    return table


def _shift_table(params: F2Params, values: list[dict]) -> Table:
    table = Table(
        title=(
            f"F2a: delay regime shift at t={params.shift_at}s "
            f"(n={params.n}, no crashes, p{params.responsive} responsive 8x)"
        ),
        headers=_headers(),
    )
    _fill(
        table, params, SPEC.section_cells("shift", params), values,
        lambda stress: f"x{stress:g}",
    )
    table.add_note(
        "delay rescaling preserves response order: the time-free detector "
        "never suspects the responsive node at any factor; fixed timeouts "
        "lose the anchor once inflated delays reach Θ."
    )
    table.add_note(
        "total counts include by-design transient suspicions of slow nodes "
        "(self-correcting via the mistake mechanism); ◇S consumers only need "
        "the anchor column."
    )
    return table


def _sigma_table(params: F2Params, values: list[dict]) -> Table:
    table = Table(
        title=(
            f"F2b: delay variance sweep (log-normal, median="
            f"{params.delay_median * 1000:g} ms, n={params.n}, no crashes, "
            f"p{params.responsive} responsive 8x)"
        ),
        headers=_headers(),
    )
    return _fill(
        table, params, SPEC.section_cells("sigma", params), values,
        lambda stress: f"σ={stress:g}",
    )


def tabulate(params: F2Params, values: list[dict]) -> list[Table]:
    split = len(SPEC.section_cells("shift", params))
    return [
        _shift_table(params, values[:split]),
        _sigma_table(params, values[split:]),
    ]


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="f2",
        title="accuracy under asynchrony (regime shift + variance sweep)",
        params_cls=F2Params,
        axes=(
            Section(
                name="shift",
                axes=(
                    ConstAxis("sweep", value="shift"),
                    ParamAxis("stress", field="shift_factors"),
                    DetectorAxis(),
                ),
            ),
            Section(
                name="sigma",
                axes=(
                    ConstAxis("sweep", value="sigma"),
                    ParamAxis("stress", field="sigmas"),
                    DetectorAxis(),
                ),
            ),
        ),
        run_cell=run_cell,
        metrics=(
            Metric("total", "false suspicions among all correct pairs"),
            Metric("responsive", "false suspicions of the responsive (anchor) node"),
            Metric("anchor_ok", "responsive node unsuspected at the horizon"),
        ),
        tabulate=tabulate,
    )
)
