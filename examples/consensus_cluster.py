"""Consensus surviving a coordinator crash — the detector's raison d'être.

Chandra & Toueg proved consensus solvable in an asynchronous system with a
◇S failure detector and a correct majority.  This example runs their
rotating-coordinator protocol on the deterministic simulator twice, with
the round-1 coordinator crashed at startup:

* over the **time-free detector** — recovery takes one query round;
* over a **timeout heartbeat detector** — recovery waits out Θ.

Same consensus code, same network, same crash; only the oracle differs.

Run with::

    python examples/consensus_cluster.py
"""

from repro.consensus import ConsensusHarness
from repro.sim import ExponentialLatency
from repro.sim.faults import CrashFault, FaultPlan


def run(label, detector, detector_params, *, seed=7):
    harness = ConsensusHarness(
        n=9,
        f=4,
        detector=detector,  # any key of the repro.detectors registry
        detector_params=detector_params,
        latency=ExponentialLatency(0.001),  # δ ≈ 1 ms, unbounded tail
        seed=seed,
        # Process 1 coordinates round 1 — crash it before anyone proposes.
        fault_plan=FaultPlan.of(crashes=[CrashFault(1, 0.001)]),
        proposals={pid: f"value-from-{pid}" for pid in range(1, 10)},
        propose_at=0.01,
    )
    result = harness.run(until=60.0)
    assert result.agreement_holds and result.validity_holds
    outcome = result.instances[0]
    assert outcome.all_correct_decided
    decided = next(iter(set(outcome.decisions.values())))
    print(f"{label}:")
    print(f"  decided value      : {decided!r}")
    print(f"  decision latency   : {outcome.last_decision_time:.3f} s")
    print(f"  rounds executed    : {max(outcome.rounds_executed.values())}")
    return outcome.last_decision_time


def main() -> None:
    print("consensus with the round-1 coordinator crashed at t≈0\n")
    tf = run(
        "time-free ◇S detector (Δ = 0.5 s query pacing)",
        "time-free",
        {"grace": 0.5},
    )
    hb = run(
        "heartbeat detector (Δ = 0.5 s, Θ = 1.0 s)",
        "heartbeat",
        {"period": 0.5, "timeout": 1.0},
    )
    print(f"\nrecovery speedup of the time-free detector: {hb / tf:.2f}x")
    print("(the heartbeat run must wait out its timeout before nacking;")
    print(" the time-free run only needs one query round to suspect)")


if __name__ == "__main__":
    main()
