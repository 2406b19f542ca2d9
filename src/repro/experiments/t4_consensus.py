"""T4 — Chandra-Toueg consensus latency over each failure detector.

The detector exists to make consensus live; this experiment runs the CT
protocol (registry key ``ct``) over the time-free detector and over the
heartbeat baseline — both addressed by detector registry key through the
generic :class:`~repro.consensus.ConsensusHarness` — in a fault-free run
and with the round-1 coordinator crashed at startup.

Expected shape: fault-free, both decide in one coordinated round (network
RTTs).  With a crashed coordinator, progress requires the detector to
suspect it — the heartbeat run stalls for ~Θ while the time-free run only
waits for one query round (grace + δ), so it recovers faster by roughly
``Θ / Δ``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..consensus import ConsensusHarness
from ..detectors import get_detector
from ..sim.faults import CrashFault, FaultPlan
from ..sim.latency import ExponentialLatency
from .api import DetectorAxis, ExperimentSpec, FixedAxis, Metric, register_experiment
from .report import Table
from .scenarios import Scenario

__all__ = ["T4Params", "SPEC", "run_cell", "tabulate"]

_SCENARIOS = ("fault-free", "coordinator crash")

#: legacy table labels for the default comparison pair
_LABELS = {
    "time-free": lambda delta: f"time-free Δ={delta}s",
    "heartbeat": lambda delta: f"heartbeat Θ={2 * delta}s",
}


@dataclass(frozen=True)
class T4Params:
    n: int = 9
    f: int = 4
    #: registry keys of the detectors under comparison (sweepable axis)
    detectors: tuple[str, ...] = ("time-free", "heartbeat")
    horizon: float = 60.0
    delay_mean: float = 0.001
    #: query grace / heartbeat period; timeout is 2x
    delta: float = 0.5
    seed: int = 1

    @classmethod
    def full(cls) -> "T4Params":
        return cls(n=15, f=7)


def _label(params: T4Params, detector: str) -> str:
    label_fn = _LABELS.get(detector, lambda delta: f"{detector} Δ={delta}s")
    return label_fn(params.delta)


def _timing(params: T4Params, detector: str) -> dict:
    """The family's timing knobs rescaled to Δ: grace / period / timeout =
    Δ / Δ / 2Δ, each set only where the family has it."""
    timing = {"grace": params.delta, "period": params.delta, "timeout": 2 * params.delta}
    names = get_detector(detector).param_names()
    return {name: value for name, value in timing.items() if name in names}


def run_cell(params: T4Params, coords: dict, seed: int) -> dict:
    if coords["scenario"] == "fault-free":
        plan = FaultPlan.none()
    else:
        # Process 1 coordinates round 1; crash it before anyone proposes.
        plan = FaultPlan.of(crashes=[CrashFault(1, 0.001)])
    scenario = Scenario(
        detector=coords["detector"],
        detector_params=_timing(params, coords["detector"]),
        n=params.n,
        f=params.f,
        latency=ExponentialLatency(params.delay_mean),
        fault_plan=plan,
        seed=seed,
        start_stagger=0.0,
        horizon=params.horizon,
    )
    result = ConsensusHarness(scenario, protocol="ct", propose_at=0.01).run()
    outcome = result.instances[0]
    correct_rounds = [
        r for pid, r in outcome.rounds_executed.items() if pid in result.correct
    ]
    return {
        "all_correct_decided": outcome.all_correct_decided,
        "agreement": result.agreement_holds,
        "validity": result.validity_holds,
        "decision_time": outcome.last_decision_time,
        "max_rounds": max(correct_rounds, default=None),
    }


def tabulate(params: T4Params, values: list[dict]) -> Table:
    table = Table(
        title=f"T4: consensus latency over each detector (n={params.n}, f={params.f})",
        headers=[
            "detector",
            "scenario",
            "all correct decided",
            "agreement",
            "validity",
            "decision time (s)",
            "max rounds",
        ],
    )
    for coords, value in zip(SPEC.cells(params), values):
        table.add_row(
            _label(params, coords["detector"]),
            coords["scenario"],
            value["all_correct_decided"],
            value["agreement"],
            value["validity"],
            value["decision_time"],
            value["max_rounds"],
        )
    table.add_note(
        "with a crashed coordinator, decision time ≈ time for the detector "
        "to suspect it + one round of messages."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="t4",
        title="Chandra-Toueg consensus latency over each detector",
        params_cls=T4Params,
        axes=(DetectorAxis(), FixedAxis("scenario", values=_SCENARIOS)),
        run_cell=run_cell,
        metrics=(
            Metric("all_correct_decided", "every correct process decided"),
            Metric("agreement", "no two processes decided differently"),
            Metric("validity", "decisions were proposed values"),
            Metric("decision_time", "time of the last correct decision (s)"),
            Metric("max_rounds", "most CT rounds any correct process executed"),
        ),
        tabulate=tabulate,
    )
)
