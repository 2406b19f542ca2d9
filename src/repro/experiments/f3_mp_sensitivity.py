"""F3 — how load-bearing is the MP assumption?

The algorithm's eventual weak accuracy is *conditional* on the message
pattern property: some correct process must eventually win (respond among
the first ``n - f``) every query of ``f + 1`` processes.  We realise MP to
a controllable degree with :class:`~repro.sim.latency.BiasedLatency`: the
favored process's messages are ``speedup`` times faster than everyone
else's.  Sweeping the speedup down to (and below) 1 decays its winning
ratio — and with it, the detector's accuracy *for that process*.

Reported per speedup: the favored process's measured winning ratio, whether
the MP oracle certifies the run, how often the favored process was falsely
suspected, and whether its suspicions had ceased by the horizon (the ◇S
stabilization the proof promises when MP holds).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.properties import find_mp_witness, winning_ratio
from ..metrics import accuracy_stabilization
from ..sim.latency import BiasedLatency, LogNormalLatency
from .api import ExperimentSpec, Metric, ParamAxis, register_experiment
from .report import Table
from .scenarios import run_scenario

__all__ = ["F3Params", "SPEC", "run_cell", "tabulate"]


@dataclass(frozen=True)
class F3Params:
    n: int = 10
    f: int = 4
    #: registry key of the detector under test (sweepable axis)
    detector: str = "time-free"
    horizon: float = 20.0
    speedups: tuple[float, ...] = (8.0, 2.0, 1.0, 0.5)
    favored: int = 1
    delay_median: float = 0.005
    delay_sigma: float = 1.0
    #: tight grace so that round membership actually tracks response speed
    grace: float = 0.004
    idle: float = 0.1
    mp_suffix: int = 10
    seed: int = 1

    @classmethod
    def full(cls) -> "F3Params":
        return cls(
            n=12, f=5, speedups=(8.0, 4.0, 2.0, 1.5, 1.0, 0.7, 0.5), horizon=60.0
        )


def run_cell(params: F3Params, coords: dict, seed: int) -> dict:
    latency = BiasedLatency(
        LogNormalLatency(params.delay_median, params.delay_sigma),
        favored=frozenset({params.favored}),
        speedup=coords["speedup"],
        bidirectional=True,
    )
    cluster = run_scenario(
        detector=params.detector,
        detector_params={"grace": params.grace, "idle": params.idle},
        n=params.n,
        f=params.f,
        horizon=params.horizon,
        latency=latency,
        seed=seed,
    )
    correct = cluster.correct_processes()
    ratio = winning_ratio(cluster.trace.rounds, params.favored)
    witness = find_mp_witness(
        cluster.trace.rounds, f=params.f, correct=correct, min_suffix=params.mp_suffix
    )
    suspicion_count = sum(
        len(cluster.trace.suspicion_intervals(obs, params.favored, horizon=params.horizon))
        for obs in correct
        if obs != params.favored
    )
    stabilization = accuracy_stabilization(cluster.trace, correct, horizon=params.horizon)
    return {
        "ratio": ratio,
        "mp_holds": witness is not None and witness.responder == params.favored,
        "suspicions": suspicion_count,
        "stable": stabilization[params.favored] is not None,
    }


def tabulate(params: F3Params, values: list[dict]) -> Table:
    table = Table(
        title=(
            f"F3: accuracy vs MP strength (n={params.n}, f={params.f}, "
            f"favored process p{params.favored}, no crashes)"
        ),
        headers=[
            "speedup",
            "winning ratio",
            "MP holds (oracle)",
            "times favored suspected",
            "favored stable by end",
        ],
    )
    for speedup, value in zip(params.speedups, values):
        table.add_row(
            speedup,
            value["ratio"],
            value["mp_holds"],
            value["suspicions"],
            value["stable"],
        )
    table.add_note(
        "MP oracle: favored process wins the last "
        f"{params.mp_suffix} rounds of >= f+1 queriers."
    )
    table.add_note(
        "expected: high speedup -> ratio ≈ 1, MP certified, zero suspicions; "
        "speedup <= 1 -> ratio decays and the favored process gets suspected."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="f3",
        title="accuracy vs message-pattern (MP) strength",
        params_cls=F3Params,
        axes=(ParamAxis("speedup", field="speedups"),),
        run_cell=run_cell,
        metrics=(
            Metric("ratio", "favored process's measured round winning ratio"),
            Metric("mp_holds", "MP oracle certifies the run for the favored process"),
            Metric("suspicions", "times the favored process was falsely suspected"),
            Metric("stable", "favored process unsuspected by the horizon"),
        ),
        tabulate=tabulate,
    )
)
