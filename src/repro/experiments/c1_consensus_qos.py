"""C1 — consensus QoS: decision latency vs detector QoS under fault stress.

Q1 measures the detector's own QoS axes (detection time, accuracy, load);
this experiment closes the loop and measures what an *application* pays for
them.  Each cell deploys one registered detector family under one named
fault scenario and runs a self-clocking sequence of consensus instances
over it (the protocol is a registry key too — CT by default, ``-p
protocol=omega`` for the early-deciding leader variant).  The reported
numbers are the application-side QoS of Reis & Vieira's framing: decision
latency, rounds to decide, oracle-aborted rounds — next to the detector's
epoch-scored query accuracy from the very same trace, so one row links
cause (detector mistakes/stalls) to effect (stalled or churning consensus).

Expected shape: fault-free-ish scenarios (``lossburst``) decide every
instance in one round for every family; ``coordcrash`` makes the in-flight
instance pay the full crash-detection latency (query families ≈ Δ + δ,
timer families ≈ Θ), separating the families on the latency axis; the
``partition`` window (no majority side) stalls every instance until the
heal, and timer families churn aborted rounds meanwhile, separating the
nack axis.  Agreement and validity hold in every cell — safety does not
depend on detector quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..consensus import ConsensusHarness
from ..detectors import detector_keys, get_detector
from ..metrics import consensus_message_load, consensus_stats, epoch_mistake_stats
from ..sim.latency import LogNormalLatency
from .api import (
    Banded,
    DetectorAxis,
    ExperimentSpec,
    FaultAxis,
    Metric,
    group_values,
    register_experiment,
    stat_mean,
)
from .report import Table
from .scenarios import fault_plan_for, table_label

__all__ = ["C1Params", "SPEC", "run_cell", "tabulate"]


def _all_detectors() -> tuple[str, ...]:
    return tuple(detector_keys())


#: every fault scenario the cell grid stresses by default — coordcrash (the
#: consensus-specific one) plus the four shared presets from the fault plane
_ALL_FAULTS = ("coordcrash", "partition", "crashrec", "churn", "lossburst")


@dataclass(frozen=True)
class C1Params:
    n: int = 8
    f: int = 2
    #: registry keys under comparison — defaults to every registered family
    detectors: tuple[str, ...] = field(default_factory=_all_detectors)
    #: consensus-protocol registry key (``ct`` or ``omega``)
    protocol: str = "ct"
    #: length of the self-clocking instance sequence per run
    instances: int = 4
    #: think time between a local decision and the next propose (s)
    instance_gap: float = 6.0
    horizon: float = 40.0
    #: log-normal one-hop delays, same axis q1 stresses
    delay_median: float = 0.001
    delay_sigma: float = 0.5
    #: first propose — after the coordcrash instant, before any fault window
    propose_at: float = 0.5
    seed: int = 1
    #: fault-scenario names (see repro.experiments.scenarios); unlike q1
    #: this axis is *always* on — a consensus workload with no adversity
    #: decides in one round everywhere and separates nothing.
    faults: tuple[str, ...] = _ALL_FAULTS

    @classmethod
    def full(cls) -> "C1Params":
        return cls(n=12, f=3, instances=6, horizon=60.0, instance_gap=7.0)

    # -- single-scenario presets ------------------------------------------
    @classmethod
    def coordcrash(cls) -> "C1Params":
        """Round-1 coordinator crashes at start: detection latency on the path."""
        return cls(faults=("coordcrash",))

    @classmethod
    def partition(cls) -> "C1Params":
        """Even split (no majority side): every instance stalls to the heal."""
        return cls(faults=("partition",))

    @classmethod
    def crashrec(cls) -> "C1Params":
        """Crash-recovery episodes: volatile and persistent restarts."""
        return cls(faults=("crashrec",))

    @classmethod
    def churn(cls) -> "C1Params":
        """Dynamic membership: a late joiner plus two departures."""
        return cls(faults=("churn",))

    @classmethod
    def lossburst(cls) -> "C1Params":
        """A 25% per-link loss spike — retries pay, decisions still land."""
        return cls(faults=("lossburst",))


def run_cell(params: C1Params, coords: dict, seed: int) -> dict:
    fault = coords["fault"]
    detector = coords["detector"]
    spec = get_detector(detector)
    # Full mesh: every range is the whole system, so the density is n.
    detector_params = {"d": params.n} if "d" in spec.required else {}
    if "retry" in spec.param_names():
        # Same remedy as q1's stress cells: query families stall when a
        # partition or a burst eats the quorum; the lossy-channel
        # rebroadcast resumes them.  Timer families have no such knob.
        detector_params["retry"] = 2.0
    members = tuple(range(1, params.n + 1))
    plan = fault_plan_for(
        fault, members=members, f=params.f, horizon=params.horizon
    )
    harness = ConsensusHarness(
        n=params.n,
        f=params.f,
        protocol=params.protocol,
        detector=detector,
        detector_params=detector_params,
        latency=LogNormalLatency(params.delay_median, params.delay_sigma),
        seed=seed,
        fault_plan=plan,
        instances=params.instances,
        propose_at=params.propose_at,
        instance_gap=params.instance_gap,
    )
    result = harness.run(until=params.horizon)
    stats = consensus_stats(result)
    trace = harness.cluster.trace
    mistakes = epoch_mistake_stats(
        trace, plan, harness.cluster.membership, horizon=params.horizon
    )
    return {
        "decided": stats.decided,
        "latency_mean": stats.latency_mean,
        "latency_max": stats.latency_max,
        "rounds_mean": stats.rounds_mean,
        "aborted_rounds": stats.aborted_rounds,
        "nacks": stats.nacks,
        "agreement": stats.agreement,
        "validity": stats.validity,
        "consensus_msgs_per_s": consensus_message_load(
            trace, horizon=params.horizon, n=params.n
        ),
        # The detector's epoch-scored accuracy from the same trace — the
        # QoS number the latency column should correlate with.
        "query_accuracy": (
            mistakes.query_accuracy_probability
            if mistakes.alive_pair_time
            else None
        ),
    }


def tabulate(params: C1Params, values: list[dict]) -> Table:
    table = Table(
        title=(
            f"C1: consensus QoS over each detector — {params.protocol} protocol, "
            f"{params.instances} instances (n={params.n}, f={params.f})"
        ),
        headers=[
            "fault",
            "detector",
            "decided",
            "latency mean (s)",
            "latency max (s)",
            "rounds",
            "aborted rounds",
            "query accuracy P_A",
            "consensus msgs/s",
        ],
        precision=4,
    )
    grouped = group_values(SPEC.cells(params), values, "fault", "detector")
    for fault in params.faults:
        for detector in params.detectors:
            cells = grouped[(fault, detector)]
            decided = [v for v in cells if v["latency_mean"] is not None]
            table.add_row(
                fault,
                table_label(detector),
                f"{sum(v['decided'] for v in cells)}/{params.instances * len(cells)}",
                stat_mean(v["latency_mean"] for v in decided),
                stat_mean(v["latency_max"] for v in decided),
                stat_mean(v["rounds_mean"] for v in decided),
                max(v["aborted_rounds"] for v in cells),
                stat_mean(
                    v["query_accuracy"]
                    for v in cells
                    if v["query_accuracy"] is not None
                ),
                stat_mean(v["consensus_msgs_per_s"] for v in cells),
            )
    table.add_note(
        "decision latency = first correct propose to last correct decision, "
        "per instance; aborted rounds = phase-3 nacks (oracle-abandoned "
        "rounds) of the worst correct process."
    )
    table.add_note(
        "agreement and validity held in every cell unless a metric row says "
        "otherwise — consensus safety never depends on detector quality."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="c1",
        title="Consensus QoS: decision latency vs detector QoS under fault stress",
        params_cls=C1Params,
        axes=(FaultAxis(), DetectorAxis()),
        run_cell=run_cell,
        metrics=(
            Metric("decided", "instances every correct process decided"),
            Metric("latency_mean", "mean per-instance decision latency (s)"),
            Metric("latency_max", "worst per-instance decision latency (s)"),
            Metric("rounds_mean", "mean first-decider round (1 = fast path)"),
            Metric("aborted_rounds", "worst per-process oracle-aborted rounds"),
            Metric("nacks", "total phase-3 nacks by correct processes"),
            Metric("agreement", "no two processes decided differently"),
            Metric("validity", "decisions were proposed values"),
            Metric("consensus_msgs_per_s", "consensus messages per second per process"),
            Metric("query_accuracy", "detector epoch-scored accuracy P_A, same trace"),
        ),
        shapes=(
            Banded("query_accuracy", lo=0.0, hi=1.0),
            Banded("latency_mean", lo=0.0),
            Banded("latency_max", lo=0.0),
            Banded("consensus_msgs_per_s", lo=0.0),
        ),
        tabulate=tabulate,
    )
)
