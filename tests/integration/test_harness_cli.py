"""End-to-end tests of ``python -m repro`` (the harness CLI).

A tiny T2 grid keeps the run under a few seconds; the critical acceptance
property — rerunning the same grid is served from cache and rewrites a
byte-identical artifact — is asserted on real experiment output.
"""

import json

import pytest

from repro.experiments import t2_impact_of_f
from repro.harness import ResultCache, run_grid, write_artifact
from repro.harness.cli import main
from tests.helpers import SMALL_T2, fresh_process, fresh_python

CANONICAL = ["t1", "t2", "t3", "t4", "f1", "f2", "f3", "e1", "e2", "a1", "a2", "q1", "c1"]


class TestCliList:
    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("t1", "t2", "f2", "e2", "a2"):
            assert exp_id in out

    def test_detectors_lists_every_registered_family(self, capsys):
        assert main(["detectors"]) == 0
        out = capsys.readouterr().out
        for key in ("time-free", "partial", "heartbeat", "gossip", "phi"):
            assert key in out
        assert "◇S" in out and "◇P" in out

    def test_experiments_lists_all_thirteen_with_axes_and_sizes(self, capsys):
        assert main(["experiments"]) == 0
        lines = capsys.readouterr().out.splitlines()
        body = [line for line in lines[1:] if line.strip()]
        assert len(body) == 13
        ids = [line.split()[0] for line in body]
        assert ids == CANONICAL
        by_id = dict(zip(ids, body))
        assert "n×detector×trial" in by_id["t1"]
        assert "sweep×stress×detector" in by_id["f2"]
        assert "detector×trial" in by_id["q1"]
        assert "fault×detector" in by_id["c1"]

    def test_protocols_lists_every_registered_protocol(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for key in ("ct", "omega"):
            assert key in out
        assert "suspects" in out and "leader" in out
        assert "fast_round" in out


class TestCliDryRun:
    def test_dry_run_prints_cells_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "t2", "--dry-run", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "t2: 4 cells (nothing executed)" in printed
        assert '{"f": 1}' in printed and "seed=" in printed
        assert not (out / "BENCH_T2.json").exists()

    def test_dry_run_reflects_param_and_detector_overrides(self, tmp_path, capsys):
        assert main(["run", "t1", "--detector", "phi", "-p", "sizes=[6]",
                     "-p", "trials=1", "--dry-run", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "t1: 1 cells (nothing executed)" in printed
        assert '"detector": "phi"' in printed

    def test_dry_run_previews_a_static_shard(self, tmp_path, capsys):
        assert main(["run", "t2", "--worker-id", "2/3", "--dry-run",
                     "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        # t2's smoke-free default grid has 4 cells: shard 2/3 owns index 1.
        assert "t2: 4 cells; shard 2/3 claims 1 (split 1/3:2, 2/3:1, 3/3:1)" in printed
        cells = [line for line in printed.splitlines() if line.startswith("  [")]
        assert len(cells) == 1 and cells[0].startswith("  [  1]")

    def test_dry_run_rejects_malformed_worker_id(self, tmp_path, capsys):
        assert main(["run", "t2", "--worker-id", "4/2", "--dry-run",
                     "--out", str(tmp_path)]) == 2
        assert "out of range" in capsys.readouterr().err


class TestCliRun:
    def test_unknown_experiment_fails(self, tmp_path, capsys):
        assert main(["run", "zz", "--out", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_artifact_and_caches(self, tmp_path, capsys):
        out = tmp_path / "results"
        argv = ["run", "t2", *SMALL_T2, "--workers", "2", "--out", str(out), "--quiet"]
        assert main(argv) == 0
        artifact = out / "BENCH_T2.json"
        first = artifact.read_bytes()
        payload = json.loads(first)
        assert payload["experiment"] == "t2"
        assert payload["schema"] == "repro-bench/1"
        assert len(payload["cells"]) == len(t2_impact_of_f.T2Params().f_values)
        assert payload["tables"][0]["rows"]

        # Second run: every cell cached, artifact byte-identical.
        assert main(argv) == 0
        summary = capsys.readouterr().out
        assert "(4 cached)" in summary.splitlines()[-1]
        assert artifact.read_bytes() == first

    def test_quiet_run_tabulates_the_grid_once(self, tmp_path, monkeypatch):
        # the artifact needs the tables; a --quiet run prints none
        from repro.harness import runner

        calls = []
        tabulate = runner.tabulate

        def counting(spec, *args):
            calls.append(spec.exp_id)
            return tabulate(spec, *args)

        monkeypatch.setattr(runner, "tabulate", counting)
        argv = ["run", "t2", *SMALL_T2, "--out", str(tmp_path), "--quiet", "--no-cache"]
        assert main(argv) == 0
        assert calls == ["t2"]
        assert json.loads((tmp_path / "BENCH_T2.json").read_text())["tables"][0]["rows"]

    def test_seed_override_changes_results(self, tmp_path):
        out = tmp_path / "results"
        argv = ["run", "t2", *SMALL_T2, "--out", str(out), "--quiet"]
        assert main(argv) == 0
        first = (out / "BENCH_T2.json").read_bytes()
        assert main(argv + ["--seed", "2"]) == 0
        assert (out / "BENCH_T2.json").read_bytes() != first


class TestExperimentResolution:
    """`repro run EXP...` imports only the experiments it names; nothing a
    caller can see depends on which ones happen to be loaded."""

    def test_unknown_id_exits_two_and_names_every_valid_id(self, tmp_path, capsys):
        assert main(["run", "t2", "nope", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment ids: ['nope']" in err
        assert f"choose from {sorted(CANONICAL)}" in err
        assert not list(tmp_path.iterdir())

    def test_ids_are_case_insensitive_and_keep_the_order_typed(self, capsys):
        assert main(["run", "t2", "Q1", "t1", "--dry-run"]) == 0
        headers = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith(" ")]
        assert [line.split(":")[0] for line in headers] == ["t2", "q1", "t1"]

    def test_no_ids_means_all_thirteen_in_canonical_order(self, capsys):
        from repro.experiments.api import all_experiments

        assert main(["run", "--dry-run"]) == 0
        headers = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith(" ")]
        assert [line.split(":")[0] for line in headers] == CANONICAL
        assert list(all_experiments()) == CANONICAL

    def test_manifest_plugin_record_of_a_distributed_run_is_unchanged(self, tmp_path):
        shared = tmp_path / "shared"
        argv = ["run", "t2", "-p", "f_values=[1]", "--workers-dir", str(shared),
                "--steal", "--out", str(tmp_path / "out"), "--quiet"]
        assert main(argv) == 0
        manifest = json.loads((shared / "manifest.json").read_text())
        assert manifest["plugins"] == {"env": [], "entry_points": []}

    @pytest.mark.parametrize("source", ["env", "entry_points"])
    def test_plugin_id_resolves_where_the_registry_was_never_listed(self, source, tmp_path):
        # A fresh interpreter: in this one some earlier test has listed the
        # registry, and a registered `zz` would leak into every later test.
        code = f"""
import json
from repro.experiments import api
from repro.harness import cli, plugins
from repro.harness.registry import get_spec

if {source!r} == "entry_points":
    plugins._scan_entry_points = lambda: (("lab", "tests.grid_plugin"),)
listing = api.all_experiments
def all_experiments():
    raise AssertionError("the whole registry was listed")
api.all_experiments = all_experiments
assert cli.main(["run", "ZZ", "--dry-run"]) == 0
assert get_spec("zz").exp_id == "zz"
assert get_spec("q1").exp_id == "q1"
assert cli.main(["run", "zz", "--workers-dir", {str(tmp_path / "shared")!r}, "--steal",
                 "--out", {str(tmp_path / "out")!r}, "--quiet"]) == 0
print(json.dumps(json.load(open({str(tmp_path / "shared" / "manifest.json")!r}))["plugins"]))
print(json.dumps(list(listing())))
"""
        plugins = {"REPRO_PLUGINS": "tests.grid_plugin"} if source == "env" else {}
        lines = fresh_python(code, **plugins).splitlines()
        assert lines[0] == "zz: 6 cells (nothing executed)"
        recorded = {"env": [], "entry_points": [], source: ["tests.grid_plugin"]}
        assert json.loads(lines[-2]) == recorded
        assert json.loads(lines[-1]) == [*CANONICAL, "zz"]


class TestRegistryPlugins:
    """Every registry loads ``REPRO_PLUGINS`` the same way.  Fresh
    interpreters only: a plugin detector registered in this process would
    join the default detector axis of q1 and c1 for every later test."""

    @pytest.mark.parametrize(
        "argv",
        [["experiments"], ["detectors"], ["protocols"], ["run", "zz", "--dry-run"]],
    )
    def test_an_unimportable_plugin_is_one_line_and_exit_two(self, argv):
        done = fresh_process("-m", "repro", *argv, REPRO_PLUGINS="no_such_module")
        assert done.returncode == 2, done.stderr
        [line] = done.stderr.splitlines()
        assert "REPRO_PLUGINS" in line and "'no_such_module'" in line

    def test_plugin_families_reach_every_listing_and_host(self):
        code = """
import contextlib, io, json
from repro.consensus import ConsensusHarness
from repro.experiments.scenarios import Scenario
from repro.harness import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return [line.split()[0] for line in out.getvalue().splitlines()]

listed = [run("detectors"), run("protocols"), run("run", "t1", "--detector", "zz-heartbeat", "--dry-run")[0]]
scenario = Scenario(detector="zz-heartbeat", n=4, f=1, start_stagger=0.0, horizon=20.0)
result = ConsensusHarness(scenario, protocol="zz-ct").run()
print(json.dumps([*listed, result.instances[0].all_correct_decided]))
"""
        detectors, protocols, dry_run, decided = json.loads(
            fresh_python(code, REPRO_PLUGINS="tests.registry_plugin")
        )
        assert detectors == [
            "gossip", "heartbeat", "heartbeat-adaptive", "partial", "phi", "time-free",
            "zz-heartbeat",
        ]
        assert protocols == ["ct", "omega", "zz-ct"]
        assert dry_run == "t1:"
        assert decided


# Small t1 cell so each detector-sweep invocation stays fast.
T1_SMALL = ["-p", "sizes=[6]", "-p", "trials=1", "-p", "horizon=15.0", "-p", "crash_at=4.0"]


class TestDetectorSweep:
    """`repro run EXP --detector KEY...` — no per-experiment code involved."""

    @pytest.mark.parametrize("detector", ["heartbeat", "phi"])
    def test_t1_sweeps_any_registered_detector(self, detector, tmp_path):
        out = tmp_path / "results"
        argv = ["run", "t1", "--detector", detector, *T1_SMALL, "--out", str(out), "--quiet"]
        assert main(argv) == 0
        payload = json.loads((out / "BENCH_T1.json").read_text())
        assert payload["params"]["detectors"] == [detector]
        assert [cell["coords"]["detector"] for cell in payload["cells"]] == [detector]
        assert f"{detector} mean (s)" in payload["tables"][0]["headers"]
        # The crash was actually detected: a finite latency in every row.
        for row in payload["tables"][0]["rows"]:
            assert row[2] is not None and 0.0 < row[2] < 15.0

    def test_multiple_detectors_in_one_grid(self, tmp_path):
        out = tmp_path / "results"
        argv = [
            "run", "t1", "--detector", "heartbeat", "--detector", "heartbeat-adaptive",
            *T1_SMALL, "--out", str(out), "--quiet",
        ]
        assert main(argv) == 0
        payload = json.loads((out / "BENCH_T1.json").read_text())
        assert payload["params"]["detectors"] == ["heartbeat", "heartbeat-adaptive"]
        assert len(payload["cells"]) == 2

    def test_single_detector_experiments_accept_an_override(self, tmp_path, capsys):
        out = tmp_path / "results"
        argv = ["run", "t2", "--detector", "heartbeat", "-p", "n=6",
                "-p", "f_values=[1]", "-p", "horizon=10.0", "-p", "crash_at=3.0",
                "--out", str(out), "--quiet"]
        assert main(argv) == 0
        payload = json.loads((out / "BENCH_T2.json").read_text())
        assert payload["params"]["detector"] == "heartbeat"

    def test_unknown_detector_fails_cleanly(self, tmp_path, capsys):
        argv = ["run", "t1", "--detector", "nope", "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 2
        assert "unknown detector" in capsys.readouterr().err

    def test_partial_runs_on_the_density_of_the_deployment(self, tmp_path):
        # t1 passes no range density: the partial family reads d = n from
        # the full mesh it is deployed on, and detects the crash.
        argv = [
            "run", "t1", "--detector", "partial", "-p", "sizes=[6]", "-p", "trials=1",
            "--out", str(tmp_path), "--quiet", "--no-cache",
        ]
        assert main(argv) == 0
        payload = json.loads((tmp_path / "BENCH_T1.json").read_text())
        (cell,) = payload["cells"]
        assert cell["value"]["mean"] is not None and cell["value"]["max"] is not None

    def test_bare_string_on_sequence_field_fails_cleanly(self, tmp_path, capsys):
        argv = ["run", "t1", "-p", "detectors=phi", "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 2
        assert "expects a list" in capsys.readouterr().err

    def test_multiple_detectors_rejected_on_single_axis(self, tmp_path, capsys):
        argv = [
            "run", "t2", "--detector", "heartbeat", "--detector", "phi",
            "--out", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 2
        assert "single detector" in capsys.readouterr().err

    def test_override_validation_precedes_any_grid_run(self, tmp_path, capsys):
        """A bad override on a later grid must fail before the first runs."""
        out = tmp_path / "results"
        argv = [
            "run", "t1", "t2", "--detector", "heartbeat", "--detector", "phi",
            "--out", str(out), "--quiet",
        ]
        assert main(argv) == 2  # t2 has a single-detector axis
        assert "single detector" in capsys.readouterr().err
        assert not (out / "BENCH_T1.json").exists()

    def test_unknown_param_fails_cleanly(self, tmp_path, capsys):
        argv = ["run", "t1", "-p", "bogus=1", "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 2
        assert "unknown parameter" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_writes_micro_artifact(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["bench", "--events", "2000", "--only", "chain,batch",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "BENCH_MICRO.json").read_text())
        assert payload["experiment"] == "micro"
        assert payload["schema"].startswith("repro-bench/1")
        workloads = [cell["coords"]["workload"] for cell in payload["cells"]]
        assert workloads == ["chain", "batch"]
        for cell in payload["cells"]:
            assert cell["value"]["seconds"] > 0
            assert cell["value"]["kev_per_s"] > 0
        assert payload["tables"][0]["headers"] == ["workload", "events", "seconds", "kev/s"]
        assert "BENCH_MICRO.json" in capsys.readouterr().out

    def test_unknown_workload_fails_cleanly(self, tmp_path, capsys):
        assert main(["bench", "--only", "nope", "--out", str(tmp_path)]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestCacheCommand:
    def test_info_and_prune_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "t2", "-p", "n=6", "-p", "f_values=[1]",
                     "-p", "horizon=10.0", "--out", str(out), "--quiet"]) == 0
        cache_dir = str(out / ".cache")
        assert main(["cache", "info", "--dir", cache_dir]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "prune", "--dir", cache_dir, "--max-size-mb", "0"]) == 0
        assert "pruned 1 entries" in capsys.readouterr().out
        assert main(["cache", "info", "--dir", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_prune_without_caps_fails_cleanly(self, tmp_path, capsys):
        assert main(["cache", "prune", "--dir", str(tmp_path)]) == 2
        assert "prune needs" in capsys.readouterr().err


class TestGridEquivalence:
    """A pool and a cache change nothing a grid reports."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_t2_table_matches_serial_uncached_grid(self, workers, tmp_path):
        params = t2_impact_of_f.T2Params(n=12, f_values=(1, 5), horizon=25.0)
        serial = run_grid(t2_impact_of_f.SPEC, params).tables()[0]
        cache = ResultCache(tmp_path / "cache")
        via_grid = run_grid(
            t2_impact_of_f.SPEC, params, workers=workers, cache=cache
        ).tables()[0]
        assert via_grid.headers == serial.headers
        assert [list(row) for row in via_grid.rows] == [
            list(row) for row in serial.rows
        ]

    def test_artifact_of_cached_grid_is_byte_identical(self, tmp_path):
        params = t2_impact_of_f.T2Params(n=10, f_values=(1, 3), horizon=20.0)
        cache = ResultCache(tmp_path / "cache")
        first = write_artifact(
            tmp_path, run_grid(t2_impact_of_f.SPEC, params, cache=cache)
        ).read_bytes()
        second = write_artifact(
            tmp_path, run_grid(t2_impact_of_f.SPEC, params, cache=cache)
        ).read_bytes()
        assert first == second


class TestBenchCheck:
    """`repro bench --check`: the kev/s regression gate."""

    def _floors(self, tmp_path, floors):
        path = tmp_path / "floors.json"
        path.write_text(json.dumps({
            "schema": "repro-bench-floors/1",
            "floors_kev_per_s": floors,
        }))
        return str(path)

    def test_passing_gate_exits_zero(self, tmp_path, capsys):
        floors = self._floors(tmp_path, {"chain": 0.001})
        assert main(["bench", "--events", "2000", "--only", "chain",
                     "--out", str(tmp_path), "--quiet",
                     "--check", "--floors", floors]) == 0
        assert "bench check OK" in capsys.readouterr().out

    def test_regression_below_floor_exits_one(self, tmp_path, capsys):
        floors = self._floors(tmp_path, {"chain": 1e12})
        assert main(["bench", "--events", "2000", "--only", "chain",
                     "--out", str(tmp_path), "--quiet",
                     "--check", "--floors", floors]) == 1
        assert "below the committed floor" in capsys.readouterr().err

    def test_committed_floors_cover_every_workload(self):
        from repro.harness.microbench import WORKLOADS, load_floors

        floors = load_floors("benchmarks/bench_floors.json")
        assert set(floors) == set(WORKLOADS)

    def test_floor_for_missing_workload_fails(self, tmp_path, capsys):
        # A floor naming a workload that was not run must fail loudly —
        # renaming a workload cannot silently lose its gate.  (The CLI
        # filters floors to --only selections; this exercises the API.)
        from repro.harness.microbench import check_floors

        payload = {"cells": [{"coords": {"workload": "chain"},
                              "value": {"kev_per_s": 100.0}}]}
        failures = check_floors(payload, {"gone": 1.0})
        assert failures and "was not run" in failures[0]

    def test_bad_floors_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "--events", "2000", "--only", "chain",
                     "--out", str(tmp_path), "--quiet",
                     "--check", "--floors", missing]) == 2
        assert "floors file not found" in capsys.readouterr().err
