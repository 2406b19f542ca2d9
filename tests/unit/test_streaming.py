"""Unit tests for the bounded-memory streaming grid runner."""

from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.experiments.report import Table
from repro.harness.artifacts import write_artifact
from repro.harness.cache import ResultCache
from repro.harness.runner import run_grid
from repro.harness.spec import ScenarioSpec
from repro.harness.streaming import (
    StreamStats,
    run_grid_streaming,
    stream_outcomes,
)


@dataclass(frozen=True)
class SynthParams:
    cells_count: int = 12
    seed: int = 1

    @classmethod
    def full(cls) -> "SynthParams":
        return cls(cells_count=24)


def synth_cells(params):
    return [{"i": i} for i in range(params.cells_count)]


def synth_run_cell(params, coords, seed):
    # Deterministic, pure, trivially cheap; tuple exercises normalisation.
    return {"square": coords["i"] ** 2, "pair": (coords["i"], seed % 7)}


def synth_tabulate(params, values):
    table = Table(title="synthetic", headers=["cells", "sum"])
    table.add_row(len(values), sum(v["square"] for v in values))
    return table


SYNTH = ScenarioSpec(
    exp_id="synth",
    title="synthetic grid for streaming tests",
    params_cls=SynthParams,
    cells=synth_cells,
    run_cell=synth_run_cell,
    tabulate=synth_tabulate,
)


def indexed_tabulate(params, values):
    # Random access + slicing, the other access pattern tabulates use
    # (f2 slices values in half; f1 sorts a percentile sub-list).
    table = Table(title="synthetic", headers=["first", "last", "head"])
    head = values[:3]
    total = sum(v["square"] for v in head)  # slices must be iterable views
    table.add_row(values[0]["square"], values[-1]["square"], len(head))
    table.add_note(f"head sum {total}")
    return table


class TestStreamOutcomes:
    def test_outcomes_match_classic_runner(self):
        params = SynthParams()
        classic = run_grid(SYNTH, params)
        streamed = list(stream_outcomes(SYNTH, params, window=5))
        assert [o.coords for o in streamed] == [o.coords for o in classic.outcomes]
        assert [o.seed for o in streamed] == [o.seed for o in classic.outcomes]
        assert [o.value for o in streamed] == [o.value for o in classic.outcomes]

    def test_window_caps_resident_outcomes(self):
        stats = StreamStats()
        outcomes = list(
            stream_outcomes(
                SYNTH, SynthParams(cells_count=3000), window=64, stats=stats
            )
        )
        assert len(outcomes) == 3000
        assert stats.cells == 3000
        assert 0 < stats.peak_resident <= 64

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            list(stream_outcomes(SYNTH, SynthParams(), window=0))

    def test_cli_rejects_zero_max_resident(self, tmp_path, capsys):
        # Regression: a falsy 0 must not be silently coerced to the default.
        from repro.harness.cli import main

        argv = ["run", "t2", "--stream", "--max-resident", "0",
                "--out", str(tmp_path), "--quiet", "--no-cache"]
        assert main(argv) == 2
        assert "window must be >= 1" in capsys.readouterr().err


class TestRunGridStreaming:
    def test_artifact_is_byte_identical_to_classic_writer(self, tmp_path):
        params = SynthParams()
        classic_path = write_artifact(tmp_path / "classic", run_grid(SYNTH, params))
        streamed = run_grid_streaming(SYNTH, params, tmp_path / "streamed", window=4)
        assert streamed.path.read_bytes() == classic_path.read_bytes()

    def test_empty_grid_artifact_is_byte_identical(self, tmp_path):
        params = SynthParams(cells_count=0)
        classic_path = write_artifact(tmp_path / "classic", run_grid(SYNTH, params))
        streamed = run_grid_streaming(SYNTH, params, tmp_path / "streamed")
        assert streamed.path.read_bytes() == classic_path.read_bytes()

    def test_spill_file_is_removed(self, tmp_path):
        run_grid_streaming(SYNTH, SynthParams(), tmp_path)
        assert list(tmp_path.glob("*.spill")) == []

    def test_large_grid_streams_with_bounded_residency(self, tmp_path):
        params = SynthParams(cells_count=5000)
        streamed = run_grid_streaming(SYNTH, params, tmp_path, window=128)
        assert streamed.stats.cells == 5000
        assert streamed.stats.peak_resident <= 128
        assert streamed.tables[0].rows[0][0] == 5000
        import json

        payload = json.loads(streamed.path.read_text())
        assert len(payload["cells"]) == 5000
        assert payload["tables"][0]["rows"][0] == [5000, sum(i * i for i in range(5000))]

    def test_tabulate_random_access_and_slices_work(self, tmp_path):
        spec = ScenarioSpec(
            exp_id="synth",
            title="synthetic grid for streaming tests",
            params_cls=SynthParams,
            cells=synth_cells,
            run_cell=synth_run_cell,
            tabulate=indexed_tabulate,
        )
        streamed = run_grid_streaming(spec, SynthParams(cells_count=9), tmp_path)
        assert streamed.tables[0].rows[0] == (0, 64, 3)
        assert streamed.tables[0].notes[-1] == "head sum 5"  # 0 + 1 + 4

    def test_slices_are_lazy_views_not_lists(self, tmp_path):
        # f2-style `values[:split]` on a huge grid must not materialise
        # half the grid; slices are disk-backed views themselves.
        from repro.harness.streaming import SpilledValues

        observed = {}

        def slicing_tabulate(params, values):
            half = values[: len(values) // 2]
            observed["type"] = type(half)
            observed["len"] = len(half)
            observed["sum"] = sum(v["square"] for v in half)
            table = Table(title="synthetic", headers=["n"])
            table.add_row(len(values))
            return table

        spec = ScenarioSpec(
            exp_id="synth",
            title="synthetic grid for streaming tests",
            params_cls=SynthParams,
            cells=synth_cells,
            run_cell=synth_run_cell,
            tabulate=slicing_tabulate,
        )
        run_grid_streaming(spec, SynthParams(cells_count=100), tmp_path, window=8)
        assert observed["type"] is SpilledValues
        assert observed["len"] == 50
        assert observed["sum"] == sum(i * i for i in range(50))

    def test_cache_is_shared_with_classic_runner(self, tmp_path):
        params = SynthParams()
        cache = ResultCache(tmp_path / ".cache")
        first = run_grid_streaming(SYNTH, params, tmp_path / "a", cache=cache)
        assert first.stats.cache_hits == 0
        # A classic run of the same grid must be served from the same cache.
        classic = run_grid(SYNTH, params, cache=cache)
        assert classic.cache_hits == len(classic.outcomes)
        second = run_grid_streaming(SYNTH, params, tmp_path / "b", cache=cache)
        assert second.stats.cache_hits == second.stats.cells

    def test_worker_pool_reuse_across_windows(self, tmp_path):
        params = SynthParams(cells_count=10)
        streamed = run_grid_streaming(
            SYNTH, params, tmp_path, workers=2, window=3
        )
        classic_path = write_artifact(tmp_path / "classic", run_grid(SYNTH, params))
        assert streamed.path.read_bytes() == classic_path.read_bytes()
