"""Smoke tests: every shipped example runs end to end."""

import pathlib
import subprocess
import sys

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

    def test_manet_density_study(self):
        result = run_example("manet_density_study.py")
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("detected by all 38 correct nodes") == 2
        assert "all false suspicions corrected after reconnection" in result.stdout
