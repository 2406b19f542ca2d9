"""Unit tests for the microbench harness (workload registry, --mem protocol).

The floors themselves are exercised by the bench-gate in CI; here we pin
the payload *shape* of the ``--mem`` cells and the columnar trace store's
memory claim (against the object-store reference in
``tests/reference_trace.py``), with a deliberately tiny event count so the
suite stays fast.
"""

import pytest

from repro.errors import ConfigurationError
from repro.harness import microbench
from repro.harness.microbench import (
    WORKLOADS,
    bench_trace,
    microbench_table,
    run_microbench,
)
from tests.reference_trace import ReferenceTraceRecorder

EVENTS = 2_000  # bench_trace clamps per-observer records, so this is quick


class TestRegistry:
    def test_trace_workloads_registered(self):
        assert "trace" in WORKLOADS
        assert "trace-query" in WORKLOADS

    def test_consensus_workload_registered_with_a_floor(self):
        import json
        from pathlib import Path

        assert "consensus" in WORKLOADS
        floors = json.loads(
            Path("benchmarks/bench_floors.json").read_text(encoding="utf-8")
        )["floors_kev_per_s"]
        assert floors["consensus"] > 0

    def test_timed_workload_delivers_every_beat_and_has_a_floor(self):
        import json
        from pathlib import Path

        payload = run_microbench(events=EVENTS, only=("timed",))
        (cell,) = payload["cells"]
        # 39 peers' beats per period, whole periods only
        assert cell["value"]["events"] == EVENTS // 39 * 39
        floors = json.loads(
            Path("benchmarks/bench_floors.json").read_text(encoding="utf-8")
        )["floors_kev_per_s"]
        assert floors["timed"] > 0

    def test_unknown_workload_is_a_clear_error(self):
        with pytest.raises(ConfigurationError, match="no_such_workload"):
            run_microbench(events=EVENTS, only=("no_such_workload",))


class TestMemProtocol:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_microbench(events=EVENTS, only=("trace",), mem=True)

    def test_cell_shape(self, payload):
        (cell,) = payload["cells"]
        assert cell["coords"] == {"workload": "trace"}
        value = cell["value"]
        assert {"events", "seconds", "kev_per_s"} <= value.keys()
        assert value["peak_kb"] > 0
        assert value.keys() == {"events", "seconds", "kev_per_s", "peak_kb"}

    def test_params_record_the_mem_flag(self, payload):
        assert payload["params"]["mem"] is True
        assert payload["params"]["workloads"] == ["trace"]

    def test_table_grows_a_peak_column(self, payload):
        table = microbench_table(payload)
        assert table.headers[-1] == "peak KiB"
        assert len(table.notes) == 1  # the machine-dependence caveat only

    def test_without_mem_no_memory_keys(self):
        payload = run_microbench(events=EVENTS, only=("trace",))
        (cell,) = payload["cells"]
        assert "peak_kb" not in cell["value"]
        assert payload["params"]["mem"] is False
        assert microbench_table(payload).headers[-1] == "kev/s"


class TestTraceMemoryClaim:
    def test_columnar_peak_is_a_third_of_the_object_store(self, monkeypatch):
        """The same recording + tabulation script, under tracemalloc, on
        the production recorder and on the reference: a ratio, so it holds
        on any machine (5.8x when the columnar store landed)."""
        columnar = microbench._peak_kb(bench_trace, EVENTS)
        monkeypatch.setattr(microbench, "TraceRecorder", ReferenceTraceRecorder)
        reference = microbench._peak_kb(bench_trace, EVENTS)
        assert columnar * 3 <= reference, (columnar, reference)
