"""E2 — false-suspicion transient under mobility (extension experiment).

Reconstruction of the follow-up report's Figure 3: one node detaches
(moves through a "disturbance region", neither sending nor receiving),
travels, and reattaches in a *different* neighborhood.  No process ever
crashes, so every suspicion in the run is false by definition; the figure
tracks the total number of wrongly-suspecting (observer, target) pairs over
time.

Expected shape: while the node is away, everyone comes to suspect it
(count → n - 1).  On reconnection it refutes itself (count falls), but it
also starts suspecting its *old* neighbors — who are alive — and those
suspicions flood (secondary spike), until the old neighbors' mistakes
propagate and the count collapses to zero.  The collapse *requires*
Algorithm 2's ``known``-eviction rule: the ablation column runs the same
scenario with the rule disabled and shows the count never settles (the
mover re-suspects its old range forever — the "ping-pong" the report
warns about).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from ..errors import ExperimentError
from ..metrics import false_suspicion_series
from ..partial import validate_mobility_scenario
from ..sim.faults import FaultPlan, MobilityFault
from ..sim.rng import RngStreams
from ..sim.topology import Topology, manet_topology
from .api import ExperimentSpec, FixedAxis, Metric, register_experiment
from .report import Table
from .scenarios import Scenario

__all__ = ["E2Params", "SPEC", "run_cell", "tabulate"]

#: Algorithm 2, and the ablation without its known-eviction rule
_VARIANTS = ("alg2", "no-eviction")


@dataclass(frozen=True)
class E2Params:
    n: int = 30
    f: int = 1
    #: registry key of the detector under test (sweepable axis)
    detector: str = "partial"
    target_density: int = 7
    depart: float = 30.0
    arrive: float = 90.0
    horizon: float = 130.0
    sample_step: float = 2.0
    area: float = 700.0
    transmission_range: float = 100.0
    seed: int = 1
    max_topology_attempts: int = 25

    @classmethod
    def full(cls) -> "E2Params":
        return cls(n=100, horizon=200.0, arrive=120.0, sample_step=1.0)


def _pick_scenario(params: E2Params) -> tuple[Topology, int, tuple[float, float]]:
    """Find a topology, a mover and a landing position that satisfy the
    experiment's restrictions (Section 6.2 of the report)."""
    for attempt in range(params.max_topology_attempts):
        rng = RngStreams(params.seed + attempt).stream("e2", "topology")
        topology = manet_topology(
            params.n,
            params.f,
            rng,
            area=params.area,
            transmission_range=params.transmission_range,
            min_neighbors=params.target_density - 1,
        )
        d = topology.range_density()
        for mover in sorted(topology.ids()):
            try:
                validate_mobility_scenario(topology, mover, d=d, f=params.f)
            except Exception:
                continue
            landing = _farthest_node(topology, mover)
            if landing is None:
                continue
            # Land exactly on the farthest node: its whole neighborhood
            # becomes the mover's new range.
            new_position = topology.positions[landing]
            if landing in topology.neighbors(mover):
                continue  # too close; the move must change the neighborhood
            return topology, mover, new_position
    raise ExperimentError(
        "could not build a mobility scenario satisfying the restrictions; "
        "try another seed or a denser topology"
    )


def _farthest_node(topology: Topology, mover: int):
    origin = topology.positions[mover]
    best, best_dist = None, -1.0
    for pid in sorted(topology.ids()):
        if pid == mover:
            continue
        pos = topology.positions[pid]
        dist = math.hypot(pos[0] - origin[0], pos[1] - origin[1])
        if dist > best_dist:
            best, best_dist = pid, dist
    return best


def _sample_times(params: E2Params) -> list[float]:
    times = [
        params.depart - 2 * params.sample_step + i * params.sample_step
        for i in range(
            int((params.horizon - params.depart) / params.sample_step) + 3
        )
    ]
    return [t for t in times if 0 <= t <= params.horizon]


def run_cell(params: E2Params, coords: dict, seed: int) -> dict:
    # The mobility restrictions (Section 6.2) are satisfied by the params'
    # own seed schedule; both variants must replay the *same* scenario, so
    # the derived per-cell seed is unused here.
    topology, mover, new_position = _pick_scenario(params)
    plan = FaultPlan.of(
        moves=[
            MobilityFault(
                process=mover,
                depart=params.depart,
                arrive=params.arrive,
                new_position=new_position,
            )
        ]
    )
    d = topology.range_density()
    # The Scenario hand-over rule: the validated original is dropped here
    topology = topology.copy()
    cluster = Scenario(
        detector=params.detector,
        detector_params={"mobility": coords["variant"] == "alg2"},
        topology=topology,
        f=params.f,
        horizon=params.horizon,
        fault_plan=plan,
        seed=params.seed,
    ).run()
    series = false_suspicion_series(cluster.trace, _sample_times(params), plan)
    return {
        "mover": mover,
        "d": d,
        "series": [[t, count] for t, count in series],
    }


def tabulate(params: E2Params, values: list[dict]) -> Table:
    by_variant = dict(
        zip((coords["variant"] for coords in SPEC.cells(params)), values)
    )
    reference = by_variant["alg2"]
    table = Table(
        title=(
            f"E2: false suspicions under mobility (n={params.n}, d={reference['d']}, "
            f"mover p{reference['mover']} away "
            f"[{params.depart}, {params.arrive}]s, no crashes)"
        ),
        headers=["time (s)", "false suspicions (alg 2)", "false suspicions (no eviction)"],
        precision=1,
    )
    for (t, with_rule), (_, without_rule) in zip(
        reference["series"], by_variant["no-eviction"]["series"]
    ):
        table.add_row(t, with_rule, without_rule)
    table.add_note(
        "while away, all n-1 nodes come to suspect the mover; reconnection "
        "triggers the secondary spike (mover suspects its old range) before "
        "mistakes flood and the count collapses."
    )
    table.add_note(
        "the ablation column shows Algorithm 2's known-eviction rule is what "
        "lets the count settle back to zero."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="e2",
        title="false-suspicion transient under mobility",
        params_cls=E2Params,
        axes=(FixedAxis("variant", values=_VARIANTS),),
        run_cell=run_cell,
        metrics=(
            Metric("mover", "the detaching/reattaching process id"),
            Metric("d", "range density of the built topology"),
            Metric("series", "[time, wrongly-suspecting pair count] samples"),
        ),
        tabulate=tabulate,
    )
)
