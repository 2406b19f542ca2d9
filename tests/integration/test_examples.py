"""Smoke tests: the shipped examples actually run.

Only the fast examples are executed end-to-end (the full MANET study takes
tens of seconds and is exercised via its underlying experiment module
elsewhere); the rest are checked for importability.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, timeout=120):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamplesRun:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "strong completeness reached" in result.stdout

    def test_consensus_cluster(self):
        result = run_example("consensus_cluster.py")
        assert result.returncode == 0, result.stderr
        assert "recovery speedup" in result.stdout

    def test_udp_cluster(self):
        result = run_example("udp_cluster.py")
        assert result.returncode == 0, result.stderr
        assert "crash detected over UDP" in result.stdout

    def test_qos_scatter(self, tmp_path):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "qos_scatter.py"), str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "scatter table artifact" in result.stdout
        assert "fastest detection:" in result.stdout
        assert (tmp_path / "BENCH_Q1.json").exists()

    def test_detector_bakeoff(self):
        result = run_example("detector_bakeoff.py")
        assert result.returncode == 0, result.stderr
        rows = [line.split("  ")[0] for line in result.stdout.splitlines()]
        for label in ("time-free (async)", "heartbeat Θ=2s", "gossip FT Θ=2s", "phi-accrual"):
            assert label in rows


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "name",
        ["manet_density_study.py"],
    )
    def test_compiles(self, name):
        source = (EXAMPLES / name).read_text()
        compile(source, name, "exec")
