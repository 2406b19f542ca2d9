"""Q1 — QoS comparison: detection time vs accuracy across *all* detectors.

The Chen-Toueg-Aguilera QoS study asks the question the per-family
experiments dodge: on one common grid, how does every registered detector
trade crash-detection speed against query accuracy?  Each cell deploys one
registry family on the same full-mesh scenario (one crash mid-run) and
reports the two QoS axes of Chen's scatter plot — detection time
(``T_D``) and accuracy (mistake rate ``λ_M`` / query accuracy probability
``P_A``) — plus the message load the family pays for them.

This is the first experiment written directly against the declarative
:mod:`repro.experiments.api`: the detector axis defaults to **every**
registered family (``detector_keys()``), so registering a new family —
crash-recovery, ADD-channel ◇P, system-level diagnosis — adds it to this
comparison with zero code changes here.  Deployment context is not a
knob: the partial detector's range density ``d`` comes from the graph, and
a full mesh pins it to ``n`` (every range is the whole system).

Expected shape: the timer families' detection time tracks their timeout
(Θ-bound), the query families track Δ + δ; accuracy is ≈ 1.0 for everyone
on calm exponential delays — the interesting spread appears under ``-p``
stress (e.g. ``repro run q1 -p delay_sigma=2.0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..detectors import detector_keys, get_detector
from ..metrics import message_load, mistake_stats
from ..sim.faults import CrashFault, FaultPlan
from ..sim.latency import LogNormalLatency
from .api import (
    Banded,
    DetectorAxis,
    ExperimentSpec,
    FaultAxis,
    Metric,
    TrialAxis,
    group_values,
    register_experiment,
    stat_mean,
)
from .report import Table
from .scenarios import Scenario, fault_plan_for, table_label, victim_window

__all__ = ["Q1Params", "SPEC", "run_cell", "tabulate"]


def _all_detectors() -> tuple[str, ...]:
    return tuple(detector_keys())


@dataclass(frozen=True)
class Q1Params:
    n: int = 20
    f: int = 4
    #: registry keys under comparison — defaults to every registered family
    detectors: tuple[str, ...] = field(default_factory=_all_detectors)
    trials: int = 3
    crash_at: float = 20.0
    horizon: float = 40.0
    #: log-normal one-hop delays; raise sigma to spread the accuracy axis
    delay_median: float = 0.001
    delay_sigma: float = 0.5
    seed: int = 1
    #: fault-scenario names (see repro.experiments.scenarios) — the
    #: optional stress axis; omitted from artifacts while empty, so the
    #: default grid stays byte-identical to pre-fault-plane runs.
    faults: tuple[str, ...] = field(default=(), metadata={"omit_default": True})

    @classmethod
    def full(cls) -> "Q1Params":
        return cls(n=40, f=8, trials=10, crash_at=30.0, horizon=80.0)

    # -- stress presets: the regimes where the accuracy axis separates ----
    @classmethod
    def partition(cls) -> "Q1Params":
        """Two-sided split that heals mid-run (quorums stall, timers accuse)."""
        return cls(faults=("partition",))

    @classmethod
    def crashrec(cls) -> "Q1Params":
        """Crash-recovery episodes: volatile and persistent restarts."""
        return cls(faults=("crashrec",))

    @classmethod
    def churn(cls) -> "Q1Params":
        """Dynamic membership: a late joiner plus two departures."""
        return cls(faults=("churn",))

    @classmethod
    def lossburst(cls) -> "Q1Params":
        """A 25% per-link loss spike for a fifth of the run."""
        return cls(faults=("lossburst",))


def run_cell(params: Q1Params, coords: dict, seed: int) -> dict:
    detector = coords["detector"]
    victim = params.n  # symmetric under full mesh
    detector_params = {}
    plan = FaultPlan.of(crashes=[CrashFault(victim, params.crash_at)])
    fault = coords.get("fault")
    if fault is not None:
        if "retry" in get_detector(detector).param_names():
            # Query families stall when a partition or a burst eats the
            # quorum; the lossy-channel rebroadcast (QueryPacing.retry) is
            # the standard remedy.  Timer families have no such knob.
            detector_params["retry"] = 2.0
        # A stress cell: the scripted crash *plus* the named fault scenario,
        # which never casts the crash victim a second time.
        plan = plan.merged(
            fault_plan_for(
                fault,
                members=range(1, params.n + 1),
                f=params.f,
                horizon=params.horizon,
                exclude=(victim,),
            )
        )
    cluster = Scenario(
        detector=detector,
        detector_params=detector_params,
        n=params.n,
        f=params.f,
        horizon=params.horizon,
        latency=LogNormalLatency(params.delay_median, params.delay_sigma),
        fault_plan=plan,
        seed=seed,
    ).run()
    load = message_load(cluster.trace, horizon=params.horizon, n=params.n)
    if fault is not None:
        return _score_stress(params, cluster, plan, load)
    correct = cluster.correct_processes()
    crash = victim_window(cluster, victim, params.horizon)
    mistakes = mistake_stats(cluster.trace, plan, correct, horizon=params.horizon)
    # With one survivor there are no monitored pairs and no accuracy to
    # speak of (n=2, f=1 is a legal grid) — report None, not a crash.
    pairs = len(correct) * (len(correct) - 1)
    return {
        "detect_mean": crash.mean_latency,
        "detect_max": crash.max_latency,
        "detected_by": len(crash.latencies),
        # Chen's lambda_M, normalised per monitored pair (per second).
        "mistake_rate": mistakes.count / params.horizon / pairs if pairs else None,
        # Chen's P_A: fraction of pair-time the output was correct.
        "query_accuracy": (
            1.0 - mistakes.total_duration / (params.horizon * pairs) if pairs else None
        ),
        "msgs_per_s": load["total"],
    }


def _score_stress(params: Q1Params, cluster, plan: FaultPlan, load: dict) -> dict:
    """A stress cell's scores against epoch ground truth (a suspicion of a
    down-but-recovering node is correct until the recovery instant)."""
    crash = victim_window(cluster, params.n, params.horizon)
    mistakes = mistake_stats(
        cluster.trace, plan, cluster.membership, horizon=params.horizon
    )
    alive_time = mistakes.alive_pair_time
    return {
        "detect_mean": crash.mean_latency,
        "detect_max": crash.max_latency,
        "detected_by": len(crash.latencies),
        # Per co-alive pair-second — same unit as the calm grid's
        # per-pair-per-second rate, with epoch-aware denominators.
        "mistake_rate": mistakes.count / alive_time if alive_time else None,
        "query_accuracy": (
            mistakes.query_accuracy_probability if alive_time else None
        ),
        "msgs_per_s": load["total"],
    }


def tabulate(params: Q1Params, values: list[dict]) -> Table:
    if params.faults:
        return _tabulate_stress(params, values)
    return _tabulate_calm(params, values)


def _tabulate_stress(params: Q1Params, values: list[dict]) -> Table:
    table = Table(
        title=(
            f"Q1: QoS under fault stress — {', '.join(params.faults)} "
            f"(n={params.n}, f={params.f}, 1 crash, {params.trials} trials)"
        ),
        headers=[
            "fault",
            "detector",
            "detect mean (s)",
            "detect max (s)",
            "false susp. /pair/min",
            "query accuracy P_A",
            "msgs/s/process",
        ],
        precision=4,
    )
    grouped = group_values(SPEC.cells(params), values, "fault", "detector")
    for fault in params.faults:
        for detector in params.detectors:
            trials = grouped[(fault, detector)]
            detected = [v for v in trials if v["detect_mean"] is not None]
            monitored = [v for v in trials if v["mistake_rate"] is not None]
            table.add_row(
                fault,
                table_label(detector),
                stat_mean(v["detect_mean"] for v in detected),
                stat_mean(v["detect_max"] for v in detected),
                stat_mean(v["mistake_rate"] * 60.0 for v in monitored),
                stat_mean(v["query_accuracy"] for v in monitored),
                stat_mean(v["msgs_per_s"] for v in trials),
            )
    table.add_note(
        "Suspicions scored against epoch ground truth: accusing a process "
        "inside a down window (crash, pre-recovery, pre-join, departed) is "
        "correct, not a mistake."
    )
    table.add_note(
        "Query families run with retry rebroadcast (2s) so partition-stalled "
        "rounds resume after the heal."
    )
    return table


def _tabulate_calm(params: Q1Params, values: list[dict]) -> Table:
    table = Table(
        title=(
            f"Q1: QoS comparison — detection time vs query accuracy "
            f"(n={params.n}, f={params.f}, 1 crash, {params.trials} trials)"
        ),
        headers=[
            "detector",
            "detect mean (s)",
            "detect max (s)",
            "false susp. /pair/min",
            "query accuracy P_A",
            "msgs/s/process",
        ],
        precision=4,
    )
    grouped = group_values(SPEC.cells(params), values, "detector")
    for detector in params.detectors:
        trials = grouped[(detector,)]
        detected = [v for v in trials if v["detect_mean"] is not None]
        monitored = [v for v in trials if v["mistake_rate"] is not None]
        table.add_row(
            table_label(detector),
            stat_mean(v["detect_mean"] for v in detected),
            stat_mean(v["detect_max"] for v in detected),
            stat_mean(v["mistake_rate"] * 60.0 for v in monitored),
            stat_mean(v["query_accuracy"] for v in monitored),
            stat_mean(v["msgs_per_s"] for v in trials),
        )
    table.add_note(
        "T_D from the crash at t="
        f"{params.crash_at:g}s; λ_M and P_A over correct pairs only (Chen et al.)."
    )
    table.add_note(
        "detector axis defaults to every registered family; new registrations "
        "join this comparison automatically."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="q1",
        title="QoS comparison: detection time vs accuracy, all registered detectors",
        params_cls=Q1Params,
        axes=(FaultAxis(), DetectorAxis(), TrialAxis()),
        run_cell=run_cell,
        metrics=(
            Metric("detect_mean", "mean crash-detection latency T_D (s)"),
            Metric("detect_max", "strong-completeness latency (s)"),
            Metric("detected_by", "observers that detected the crash"),
            Metric("mistake_rate", "false suspicions per correct pair per second (λ_M)"),
            Metric("query_accuracy", "fraction of pair-time the output was correct (P_A)"),
            Metric("msgs_per_s", "messages per second per process"),
        ),
        shapes=(
            Banded("query_accuracy", lo=0.0, hi=1.0),
            Banded("detect_mean", lo=0.0),
            Banded("detect_max", lo=0.0),
            Banded("msgs_per_s", lo=0.0),
        ),
        tabulate=tabulate,
    )
)
