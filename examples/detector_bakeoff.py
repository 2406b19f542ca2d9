"""Detector bake-off: four detectors, one misbehaving network.

Deploys the time-free detector and the three timer-based baselines
(heartbeat, Friedman-Tcharny gossip, phi-accrual) on identical simulated
clusters, then hits them with the worst enemy of timeouts: a 400x delay
inflation mid-run (think sudden congestion or a route flap).  One process
(p1) has genuinely fast links — the responsiveness property RP — and a
crash happens later, so the run measures completeness *and* accuracy:

* detection time of the real crash,
* false suspicions of the responsive process (◇S's accuracy anchor),
* total false suspicions (transient noise),
* message load.

Run with::

    python examples/detector_bakeoff.py
"""

from repro.experiments.report import Table
from repro.experiments.scenarios import Scenario, table_label, victim_window
from repro.metrics import message_load, mistake_stats
from repro.sim.faults import CrashFault, FaultPlan
from repro.sim.latency import BiasedLatency, ExponentialLatency, RegimeShiftLatency

N = 12
F = 3
HORIZON = 90.0
SHIFT_AT = 20.0
CRASH_AT = 60.0
VICTIM = N
RESPONSIVE = 1


def latency_model():
    return BiasedLatency(
        RegimeShiftLatency(ExponentialLatency(0.003), shift_at=SHIFT_AT, factor=400.0),
        favored=frozenset({RESPONSIVE}),
        speedup=8.0,
        bidirectional=True,
    )


def main() -> None:
    table = Table(
        title=(
            f"detector bake-off: n={N}, f={F}, 400x delay inflation at "
            f"t={SHIFT_AT:.0f}s, crash of p{VICTIM} at t={CRASH_AT:.0f}s"
        ),
        headers=[
            "detector",
            "crash detect mean (s)",
            "crash detected by all",
            "false susp. of RP node",
            "total false susp.",
            "msgs/s/process",
        ],
    )
    plan = FaultPlan.of(crashes=[CrashFault(VICTIM, CRASH_AT)])
    for detector in ("time-free", "heartbeat", "gossip", "phi"):
        cluster = Scenario(
            detector=detector,
            n=N,
            f=F,
            horizon=HORIZON,
            latency=latency_model(),
            fault_plan=plan,
            seed=2024,
        ).run()
        correct = cluster.correct_processes()
        crash = victim_window(cluster, VICTIM, HORIZON)
        mistakes = mistake_stats(cluster.trace, plan, correct, horizon=HORIZON)
        rp_false = sum(
            len(cluster.trace.suspicion_intervals(obs, RESPONSIVE, horizon=HORIZON))
            for obs in correct
            if obs != RESPONSIVE
        )
        load = message_load(cluster.trace, horizon=HORIZON, n=N)
        table.add_row(
            table_label(detector),
            crash.mean_latency,
            crash.detected_by_all,
            rp_false,
            mistakes.count,
            load["total"],
        )
    table.add_note(
        "the RP-node column is the ◇S accuracy anchor: the time-free "
        "detector keeps it at 0 because delay inflation preserves response "
        "order; timeouts compare against absolute clocks and lose it."
    )
    print(table)


if __name__ == "__main__":
    main()
