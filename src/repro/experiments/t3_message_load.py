"""T3 — message load per detector.

Messages per second per process for every detector in a quiet (crash-free)
run.  The query-response detector pays two messages per pair per round
(query out, response back) where heartbeats pay one — the price of
timer-freedom; gossip additionally grows its *payload* linearly with n
(reported as bytes/message).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import message_load
from .api import Banded, DetectorAxis, ExperimentSpec, Metric, Monotone, ParamAxis, register_experiment
from .report import Table
from .scenarios import run_scenario, table_label

__all__ = ["T3Params", "SPEC", "run_cell", "tabulate"]


@dataclass(frozen=True)
class T3Params:
    sizes: tuple[int, ...] = (10, 30)
    #: registry keys of the detectors under comparison (sweepable axis)
    detectors: tuple[str, ...] = ("time-free", "heartbeat", "gossip", "phi")
    f_fraction: float = 0.2
    horizon: float = 20.0
    seed: int = 1

    @classmethod
    def full(cls) -> "T3Params":
        return cls(sizes=(10, 30, 60), horizon=60.0)

    @classmethod
    def large_n(cls) -> "T3Params":
        """Full-mesh load curves an order of magnitude past the paper.

        Every cell is Θ(n²) deliveries per round, so the horizon is short
        and phi (whose per-sample window bookkeeping dominates at this
        scale without changing the load curve's shape) is dropped.  Only
        feasible on the columnar trace plane.
        """
        return cls(
            sizes=(500, 1000, 2000),
            detectors=("time-free", "heartbeat", "gossip"),
            horizon=5.0,
        )


def run_cell(params: T3Params, coords: dict, seed: int) -> dict:
    n = coords["n"]
    f = max(1, int(n * params.f_fraction))
    cluster = run_scenario(
        detector=coords["detector"],
        n=n,
        f=f,
        horizon=params.horizon,
        seed=seed,
    )
    load = message_load(cluster.trace, horizon=params.horizon, n=n)
    kinds = {k: v for k, v in load.items() if k != "total"}
    dominant = max(kinds, key=kinds.get) if kinds else "-"
    return {
        "total": load["total"],
        "dominant": dominant,
        "dominant_load": kinds.get(dominant),
    }


def tabulate(params: T3Params, values: list[dict]) -> Table:
    table = Table(
        title="T3: message load (crash-free run)",
        headers=["n", "detector", "msgs/s/process", "dominant kind", "kind msgs/s/process"],
    )
    for coords, value in zip(SPEC.cells(params), values):
        table.add_row(
            coords["n"],
            table_label(coords["detector"]),
            value["total"],
            value["dominant"],
            value["dominant_load"],
        )
    table.add_note(
        "time-free sends ~2(n-1) msgs per process per round (query+response); "
        "heartbeats send (n-1)/Δ."
    )
    table.add_note(
        "gossip messages carry an n-entry vector; its wire size grows with n "
        "while the others stay O(#suspicions)."
    )
    return table


SPEC = register_experiment(
    ExperimentSpec(
        exp_id="t3",
        title="message load per detector (crash-free run)",
        params_cls=T3Params,
        axes=(ParamAxis("n", field="sizes"), DetectorAxis()),
        run_cell=run_cell,
        metrics=(
            Metric("total", "messages per second per process, all kinds"),
            Metric("dominant", "highest-volume message kind"),
            Metric("dominant_load", "msgs/s/process of the dominant kind"),
        ),
        shapes=(
            Monotone("total", along="n", direction="increasing"),
            Banded("total", lo=0.0),
            Banded("dominant_load", lo=0.0),
        ),
        tabulate=tabulate,
    )
)
