"""End-to-end tests of distributed grid execution (``repro.harness.grid``).

The acceptance property throughout: a grid split across workers — static
shards or work stealing, including a worker SIGKILLed mid-cell — writes
an artifact byte-identical to the single-host run.  Workers here are
threads or real subprocesses sharing a tmp ``workers_dir``; nothing about
the protocol distinguishes that from separate hosts on a shared
filesystem.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    ResultCache,
    grid_status,
    run_grid,
    run_grid_worker,
    write_artifact,
)
from repro.harness.cache import cache_key
from repro.harness.cli import main
from repro.harness.registry import all_specs, get_spec
from tests.goldens import smoke_params
from tests.helpers import SMALL_T2, smoke_run

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def zz_experiment():
    """The out-of-tree plugin experiment, un-registered again afterwards.

    Importing :mod:`tests.grid_plugin` registers ``zz`` exactly as a
    worker's ``REPRO_PLUGINS=tests.grid_plugin`` would; popping it in
    teardown keeps the registry at its built-in set for every other test.
    """
    from repro.experiments import api
    from tests import grid_plugin

    api.EXPERIMENTS.specs.setdefault("zz", grid_plugin.SPEC)
    yield grid_plugin.SPEC
    api.EXPERIMENTS.specs.pop("zz", None)


def single_host_artifact(exp_id, params, out_dir):
    """The reference artifact: one sequential in-process run."""
    return write_artifact(out_dir, run_grid(get_spec(exp_id), params))


class TestStaticSharding:
    def test_two_shards_assemble_byte_identical_artifact(self, tmp_path):
        params = smoke_params()["t2"]
        golden = single_host_artifact("t2", params, tmp_path / "golden").read_bytes()
        workers = tmp_path / "workers"
        cache = ResultCache(workers / "cache")
        spec = get_spec("t2")
        first = run_grid_worker(
            spec, params, workers, tmp_path / "out", cache=cache,
            worker="w1", shard=(1, 2),
        )
        # Shard 1/2 finished its half; the grid is not yet complete, so it
        # must not have produced an artifact.
        assert first.artifact is None
        assert not first.counts.all_done
        second = run_grid_worker(
            spec, params, workers, tmp_path / "out", cache=cache,
            worker="w2", shard=(2, 2),
        )
        assert second.counts.all_done
        assert second.artifact is not None
        assert second.artifact.read_bytes() == golden
        total = first.counts.total
        assert first.completed + second.completed == total

    def test_relaunched_shard_resumes_from_the_ledger(self, tmp_path):
        params = smoke_params()["t2"]
        workers = tmp_path / "workers"
        cache = ResultCache(workers / "cache")
        spec = get_spec("t2")
        run_grid_worker(spec, params, workers, tmp_path / "out",
                        cache=cache, worker="w1", shard=(1, 2))
        # Relaunching the same shard finds nothing left to do.
        again = run_grid_worker(spec, params, workers, tmp_path / "out",
                                cache=cache, worker="w1b", shard=(1, 2))
        assert again.completed == 0


class TestWorkStealing:
    def test_concurrent_stealers_split_the_grid(self, tmp_path):
        params = smoke_params()["t2"]
        golden = single_host_artifact("t2", params, tmp_path / "golden").read_bytes()
        workers = tmp_path / "workers"
        spec = get_spec("t2")
        reports = {}

        def stealer(name):
            reports[name] = run_grid_worker(
                spec, params, workers, tmp_path / "out",
                cache=ResultCache(workers / "cache"),
                worker=name, steal=True, poll=0.05,
            )

        threads = [threading.Thread(target=stealer, args=(n,)) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = reports["a"].counts.total
        # High TTL + live workers: every cell completed exactly once.
        assert reports["a"].completed + reports["b"].completed == total
        finishers = [r for r in reports.values() if r.artifact is not None]
        assert finishers  # at least one observed completion and assembled
        for report in finishers:
            assert report.artifact.read_bytes() == golden


class TestEveryExperiment:
    @pytest.mark.parametrize("exp_id", sorted(all_specs()))
    def test_distributed_assembly_matches_single_host(self, exp_id, tmp_path):
        """Byte-identity for every experiment's smoke grid.

        The single-host reference comes from the conformance suite's
        cached smoke run; its outcomes pre-warm the shared cache, so the
        distributed worker only exercises claim/complete/assemble — which
        is exactly what this test pins (``report.ran == 0`` proves no
        cell was re-simulated, i.e. the cache really is the data plane).
        """
        result = smoke_run(exp_id)
        golden = write_artifact(tmp_path / "golden", result).read_bytes()
        params = smoke_params()[exp_id]
        workers = tmp_path / "workers"
        cache = ResultCache(workers / "cache")
        for outcome in result.outcomes:
            key = cache_key(exp_id, params, outcome.coords, outcome.seed)
            cache.put(key, outcome.value)
        report = run_grid_worker(
            get_spec(exp_id), params, workers, tmp_path / "out",
            cache=cache, worker="w", steal=True,
        )
        assert report.ran == 0
        assert report.cached == report.counts.total
        assert report.artifact is not None
        assert report.artifact.read_bytes() == golden


class TestWorkerLossResume:
    def test_sigkilled_worker_is_replaced_byte_identically(
        self, tmp_path, zz_experiment, monkeypatch
    ):
        """SIGKILL a real worker subprocess mid-cell; a second worker
        inherits the expired lease and the artifact is byte-identical to
        an uninterrupted single-host run."""
        from tests import grid_plugin

        # The sleep exists to hold the victim subprocess inside a cell; the
        # value never depends on it, so the two in-process runs (the reference
        # and the rescuer) skip it: 11 cells x 0.4 s this test used to wait for.
        monkeypatch.setattr(grid_plugin, "time", SimpleNamespace(sleep=lambda seconds: None))
        params = grid_plugin.ZzParams(sleep=0.4)
        golden = single_host_artifact("zz", params, tmp_path / "golden").read_bytes()
        workers = tmp_path / "workers"
        env = dict(
            os.environ,
            REPRO_PLUGINS="tests.grid_plugin",
            PYTHONPATH=os.pathsep.join(
                [str(REPO_ROOT / "src"), str(REPO_ROOT),
                 os.environ.get("PYTHONPATH", "")]
            ),
        )
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "zz",
             "--workers-dir", str(workers), "--steal",
             "--lease-ttl", "1.5", "-p", "sleep=0.4",
             "--out", str(tmp_path / "out"), "--quiet"],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until it is demonstrably mid-grid: at least one cell
            # done, at least one lease held — then kill without warning.
            deadline = time.monotonic() + 60
            while True:
                assert time.monotonic() < deadline, "victim never started working"
                assert victim.poll() is None, "victim exited before being killed"
                try:
                    status = grid_status(workers)
                except ConfigurationError:  # manifest not written yet
                    time.sleep(0.05)
                    continue
                if status.counts.done >= 1 and status.counts.leased >= 1:
                    break
                time.sleep(0.05)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)
        interrupted = grid_status(workers)
        assert not interrupted.counts.all_done
        # The replacement worker must present the same plugin list as the
        # manifest records, exactly as a real relaunch would.
        monkeypatch.setenv("REPRO_PLUGINS", "tests.grid_plugin")
        report = run_grid_worker(
            zz_experiment, params, workers, tmp_path / "out",
            cache=ResultCache(workers / "cache"),
            worker="rescuer", steal=True, ttl=1.5, poll=0.1,
        )
        assert report.counts.all_done
        assert report.completed >= 1  # it did inherit work
        assert report.artifact is not None
        assert report.artifact.read_bytes() == golden


class TestJoinValidation:
    def test_param_mismatch_refused(self, tmp_path):
        import dataclasses

        params = smoke_params()["t2"]
        workers = tmp_path / "workers"
        cache = ResultCache(workers / "cache")
        spec = get_spec("t2")
        run_grid_worker(spec, params, workers, tmp_path / "out",
                        cache=cache, worker="w1", shard=(1, 1))
        with pytest.raises(ConfigurationError, match="params differs"):
            run_grid_worker(spec, dataclasses.replace(params, seed=7),
                            workers, tmp_path / "out",
                            cache=cache, worker="w2", steal=True)

    def test_exactly_one_mode_required(self, tmp_path):
        params = smoke_params()["t2"]
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ConfigurationError, match="exactly one mode"):
            run_grid_worker(get_spec("t2"), params, tmp_path / "w",
                            cache=cache, shard=(1, 2), steal=True)
        with pytest.raises(ConfigurationError, match="exactly one mode"):
            run_grid_worker(get_spec("t2"), params, tmp_path / "w", cache=cache)

    def test_cache_required(self, tmp_path):
        with pytest.raises(ConfigurationError, match="shared ResultCache"):
            run_grid_worker(get_spec("t2"), smoke_params()["t2"], tmp_path / "w",
                            cache=None, steal=True)


class TestCliDistributed:
    def test_steal_run_status_and_reap(self, tmp_path, capsys):
        out = tmp_path / "single"
        assert main(["run", "t2", *SMALL_T2, "--out", str(out), "--quiet"]) == 0
        golden = (out / "BENCH_T2.json").read_bytes()
        capsys.readouterr()

        workers = tmp_path / "workers"
        dist = tmp_path / "dist"
        assert main(["run", "t2", *SMALL_T2, "--workers-dir", str(workers), "--steal",
                     "--out", str(dist), "--quiet"]) == 0
        summary = capsys.readouterr().out
        assert "grid 4/4 done" in summary
        assert (dist / "BENCH_T2.json").read_bytes() == golden
        assert not (workers / "ledger.sqlite").exists()

        assert main(["grid", "status", "--workers-dir", str(workers)]) == 0
        status = capsys.readouterr().out
        assert "t2: 4/4 done" in status
        assert "complete" in status

        assert main(["grid", "reap", "--workers-dir", str(workers)]) == 0
        assert "0" in capsys.readouterr().out

    def test_static_shards_via_cli(self, tmp_path, capsys):
        out = tmp_path / "single"
        assert main(["run", "t2", *SMALL_T2, "--out", str(out), "--quiet"]) == 0
        golden = (out / "BENCH_T2.json").read_bytes()
        workers = tmp_path / "workers"
        dist = tmp_path / "dist"
        base = ["run", "t2", *SMALL_T2, "--workers-dir", str(workers),
                "--out", str(dist), "--quiet"]
        assert main(base + ["--worker-id", "1/2"]) == 0
        assert not (dist / "BENCH_T2.json").exists()
        capsys.readouterr()
        assert main(base + ["--worker-id", "2/2"]) == 0
        assert "grid 4/4 done" in capsys.readouterr().out
        assert (dist / "BENCH_T2.json").read_bytes() == golden

    def test_a_directory_holding_a_sqlite_ledger_is_refused(self, tmp_path, capsys):
        workers = tmp_path / "workers"
        workers.mkdir()
        (workers / "ledger.sqlite").touch()
        dist = tmp_path / "dist"
        assert main(["run", "t2", *SMALL_T2, "--workers-dir", str(workers), "--steal",
                     "--out", str(dist), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ledger.sqlite" in err
        # no cell ran: nothing leased, nothing cached, no artifact
        assert not (workers / "leases").exists()
        assert not any((workers / "cache").rglob("*.json"))
        assert not dist.exists()
        assert main(["grid", "status", "--workers-dir", str(workers)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_mode_validation(self, tmp_path, capsys):
        workers = str(tmp_path / "w")
        assert main(["run", "t2", "--workers-dir", workers]) == 2
        assert "exactly one mode" in capsys.readouterr().err
        assert main(["run", "t2", "--workers-dir", workers, "--steal",
                     "--worker-id", "1/2"]) == 2
        assert "exactly one mode" in capsys.readouterr().err
        assert main(["run", "t2", "--steal"]) == 2
        assert "need --workers-dir" in capsys.readouterr().err
        assert main(["run", "t2", "--workers-dir", workers, "--steal",
                     "--no-cache"]) == 2
        assert "shared cache" in capsys.readouterr().err
        assert main(["run", "t1", "t2", "--workers-dir", workers, "--steal"]) == 2
        assert "exactly one experiment" in capsys.readouterr().err
