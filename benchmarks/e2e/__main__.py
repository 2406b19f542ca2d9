"""``python -m benchmarks.e2e`` — run the end-to-end benchmark.

Two ways in:

* **suite** (default): all six workloads, or ``--only a,b``; prints each
  metric by name with its unit and regression bound, writes
  ``result.json`` (and ``trace.json`` with ``--trace``) under ``--out``,
  exits non-zero when any operation failed.  ``--check-noise`` runs two
  sets back to back and compares them against the bounds.
* **one run** (``--workload NAME --seed N --seconds S --trace 0|1``): what a
  benchmark driver calls; the last line of standard output is one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` holding every
  end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``).

Names, units, directions, bounds and the run length come from
``BENCHMARK.json`` at the repo root; which workloads a metric applies to is
:data:`APPLIES` below.  ``BENCHMARK.json`` lists the four workloads a driver
runs (:data:`GATED`): its time limit leaves room for four runs long enough to
be steady, not six.  The suite runs the other two as well.  See ``README.md``
beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .workloads import WORKLOADS as _REGISTRY

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = list(_REGISTRY)
GATED = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}

_GRIDS_AND_SIMS = {"grid_cold", "sim_dense", "sim_large_n"}
_RUNTIME = {"runtime_mem", "runtime_udp"}
#: end-to-end metric -> the workloads it is defined on.  Every other
#: (metric, workload) pair reports the host reference instead (see
#: ``checks.host_reference_s``): the result contract wants every workload to
#: print every metric, and a reading no change under ``src/`` can move is the
#: one filler that cannot turn into a false regression.
APPLIES = {
    "setup_s": set(WORKLOADS),
    "peak_rss_mb": set(WORKLOADS),
    "wall_s": _GRIDS_AND_SIMS,
    "warm_wall_ms": {"grid_cold"},
    "pool2_wall_s": {"grid_dist2"},
    "steal2_wall_s": {"grid_dist2"},
    "rounds_per_s": _RUNTIME,
    "detect_p50_ms": _RUNTIME,
    "detect_p75_ms": _RUNTIME,
}

#: set-up samples per run: this many ``--setup-only`` children before the
#: measured child and as many after it, plus the measured child's own
SETUP_PROBES = 2
#: a run — four set-up probes and the measured child — must end inside the
#: driver's 180 s
DEFAULT_TIMEOUT_S = 150.0


def _child_env() -> dict[str, str]:
    paths = [str(ROOT), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_child(args: list[str], timeout: float) -> dict[str, Any]:
    """Run ``benchmarks.e2e.child``; a crash or a timeout is a failed run.

    The child leads its own process group so that a timeout also takes its
    pool and steal workers down.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child", *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"error": f"child exited {process.returncode}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"error": f"unparseable child output: {lines[-1][:200]!r}"}


def _stand_in(metric: str, host_ref_s: float) -> float:
    spec = END_TO_END[metric]
    if spec["better"] == "higher":
        return 1.0 / host_ref_s
    return host_ref_s * (1e3 if spec["unit"] == "ms" else 1.0)


def run_workload(name: str, options: argparse.Namespace, seed: int, trace: int) -> dict:
    """One run of one workload: set-up probes, then the measured child."""
    workdir = Path(options.workdir).resolve() / f"{name}-t{trace}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(options.seconds),
              "--workdir", str(workdir)] + (["--quick"] if options.quick else [])
    setups = []

    def probe_setup() -> None:
        for _ in range(1 if options.quick else SETUP_PROBES):
            probe = run_child([*common, "--setup-only"], options.timeout)
            if "setup_s" in probe:
                setups.append(probe["setup_s"])

    probe_setup()
    result = run_child([*common, "--trace", str(trace)], options.timeout)
    probe_setup()
    if "error" in result:
        return {"workload": name, "seed": seed, "trace": trace, "error": result["error"],
                "attempted": 1, "failed": 1, "failures": [result["error"]],
                "metrics": {}, "workdir": str(workdir)}
    setups.append(result["setup_s"])
    # The fastest, like every timing here; the probes span the whole run.
    measured = {**result["metrics"], "setup_s": min(setups)}
    result["setup_samples_s"] = setups
    result["metrics"] = {
        metric: measured[metric] if name in APPLIES[metric] and metric in measured
        else _stand_in(metric, result["host_ref_s"])
        for metric in END_TO_END
    }
    result["not_applicable"] = sorted(m for m in END_TO_END if name not in APPLIES[m])
    missing = sorted(m for m in END_TO_END if name in APPLIES[m] and m not in measured)
    if missing:
        result["failed"] += 1
        result["failures"].append(f"metrics not measured: {missing}")
    result["attempted"] += 1
    result["noisy"] = result["load_avg"]["start"] > 0.5 * (os.cpu_count() or 1)
    if trace and (workdir / "trace.json").exists():
        result["trace_spans"] = json.loads((workdir / "trace.json").read_text("utf-8"))
    if result["failed"] == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        result["workdir"] = str(workdir)
    return result


def contract_line(result: dict, trace: int) -> str:
    """The one JSON object a benchmark driver reads from the last line."""
    if trace:
        layers = result.get("layers", {})
        metrics = {name: {"value": layers.get(name, 0.0), "unit": spec["unit"]}
                   for name, spec in PER_LAYER.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]["unit"]}
                   for name, value in result["metrics"].items()}
    return json.dumps({
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


def environment() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "git_commit": commit,
        "load_avg_1m": os.getloadavg()[0],
    }


def print_result(result: dict) -> None:
    name = result["workload"]
    flags = "".join(
        f"  [{flag}]" for flag, on in (("noisy host", result.get("noisy")),
                                      ("quick: not for numbers", result.get("quick")),
                                      ("suite only", name not in GATED))
        if on
    )
    print(f"\n== {name} (seed {result['seed']}, trace {result['trace']}){flags}")
    if "error" in result:
        print(f"   FAILED: {result['error']}")
        return
    for metric, value in result["metrics"].items():
        spec = END_TO_END[metric]
        if name in APPLIES[metric]:
            note = f"{spec['better']} is better, bound {spec['bound']:.0%}"
        else:
            note = "n/a here: host reference"
        print(f"   {metric:<16} {value:>12.4f} {spec['unit']:<9} {note}")
    share = result["failed"] / result["attempted"]
    print(f"   {'failed_share':<16} {share:>12.4f} {'fraction':<9} "
          f"{result['failed']} of {result['attempted']} operations")
    for failure in result["failures"][:10]:
        print(f"     ! {failure}")
    for key, value in sorted(result.get("notes", {}).items()):
        if not isinstance(value, list):  # raw samples stay in result.json
            print(f"     {key}: {value}")
    if result.get("layers"):
        print(f"   per layer (traced wall {result['layers']['traced_wall_s']:.3f} s, "
              f"partition sums to {result['partition_sum_s']:.3f} s):")
        for metric, value in result["layers"].items():
            if value:
                print(f"     {metric:<34} {value:>14.6f} {PER_LAYER[metric]['unit']}")


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def check_noise(sets: list[list[dict]]) -> int:
    """Compare two sets of runs pair by pair against the bounds."""
    print(f"\n{'workload':<12} {'metric':<14} {'median A':>11} {'median B':>11} "
          f"{'B worse by':>10} {'spread A':>9} {'spread B':>9} {'bound':>6}")
    worst = 0
    for name in dict.fromkeys(r["workload"] for r in sets[0]):
        for metric, spec in END_TO_END.items():
            values = [[r["metrics"][metric] for r in runs
                       if r["workload"] == name and metric in r["metrics"]]
                      for runs in sets]
            if not all(values):
                print(f"{name:<12} {metric:<14} missing")
                worst = 1
                continue
            a, b = (statistics.median(v) for v in values)
            worse = (a - b) / a if spec["better"] == "higher" else (b - a) / a
            spreads = [_spread(v) for v in values]
            bad = worse > spec["bound"] or (
                metric != "setup_s" and max(spreads) > spec["bound"])
            filler = "" if name in APPLIES[metric] else "  (n/a: host reference)"
            print(f"{name:<12} {metric:<14} {a:>11.4f} {b:>11.4f} {worse:>+10.2%} "
                  f"{spreads[0]:>9.2%} {spreads[1]:>9.2%} {spec['bound']:>6.0%}"
                  f"{'  FAIL' if bad else ''}{filler}")
            worst |= bad
    return int(worst)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", allow_abbrev=False)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one run of one workload; last stdout line is the result")
    parser.add_argument("--only", default="", metavar="NAME[,NAME]",
                        help="suite: run just these workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(MANIFEST["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="per-layer pass (suite: after the untraced pass)")
    parser.add_argument("--quick", action="store_true",
                        help="seconds-long sizing that exercises every code path; "
                        "NOT for numbers")
    parser.add_argument("--check-noise", action="store_true",
                        help="two sets of --runs runs; fail if they disagree by more "
                        "than a bound")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per workload and set with --check-noise (seed, seed+1, ...)")
    parser.add_argument("--out", default=str(ROOT / "results" / "e2e"),
                        help="where result.json and trace.json go")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: OUT/work); removed on success")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                        help="hard limit per child process, seconds")
    options = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    out = Path(options.out)
    options.workdir = options.workdir or str(out / "work")
    names = [options.workload] if options.workload else (
        [n for n in options.only.split(",") if n] or WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {WORKLOADS}")

    env = environment()
    started = time.time()
    if options.workload:
        passes = [options.trace]
    else:
        passes = [0, 1] if options.trace else [0]
    sets: list[list[dict]] = []
    for _ in range(2 if options.check_noise else 1):
        runs = []
        for name in names:
            for run in range(options.runs if options.check_noise else 1):
                for trace in passes:
                    result = run_workload(name, options, options.seed + run, trace)
                    print_result(result)
                    runs.append(result)
        sets.append(runs)

    out.mkdir(parents=True, exist_ok=True)
    spans = {f"{r['workload']}:{r['seed']}": r.pop("trace_spans")
             for runs in sets for r in runs if "trace_spans" in r}
    if spans:
        (out / "trace.json").write_text(json.dumps(spans), encoding="utf-8")
    (out / "result.json").write_text(json.dumps({
        "environment": {**env, "load_avg_1m_end": os.getloadavg()[0],
                        "elapsed_s": time.time() - started},
        "manifest": {"run_seconds": MANIFEST["run_seconds"], "seconds": options.seconds},
        "sets": sets,
    }, indent=1), encoding="utf-8")
    try:
        os.rmdir(options.workdir)
    except OSError:
        pass  # a failed run kept its directory for inspection

    failed = sum(r["failed"] for runs in sets for r in runs)
    status = 1 if failed else 0
    if options.check_noise:
        status |= check_noise(sets)
    print(f"\nenvironment: {env}")
    print(f"{'FAILED' if failed else 'ok'}: {failed} failed operations; "
          f"results in {out / 'result.json'}")
    if options.workload:
        print(contract_line(sets[0][-1], options.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
