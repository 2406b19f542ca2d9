"""Unit tests for the experiment harness (spec, seeding, cache, runner).

The toy grid below lives at module level so its functions are picklable —
the process-pool path is exercised for real with 2 workers.
"""

import dataclasses
import json
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    ResultCache,
    cache_key,
    cell_seed,
    run_cells,
    run_grid,
    write_artifact,
)
from repro.harness.spec import ScenarioSpec, canonical_json
from repro.experiments.report import Table


@dataclass(frozen=True)
class ToyParams:
    xs: tuple[int, ...] = (1, 2, 3)
    scale: int = 10
    seed: int = 1

    @classmethod
    def full(cls) -> "ToyParams":
        return cls(xs=(1, 2, 3, 4, 5))

    @classmethod
    def big(cls) -> "ToyParams":
        return cls(xs=(7, 8), scale=100)

    @classmethod
    def _hidden(cls) -> "ToyParams":
        return cls()

    @classmethod
    def broken(cls) -> int:
        return 42


def toy_cells(params):
    return [{"x": x} for x in params.xs]


def toy_run_cell(params, coords, seed):
    return {"y": coords["x"] * params.scale, "seed": seed, "pair": (1, 2)}


def toy_tabulate(params, values):
    table = Table(title="toy", headers=["x", "y"])
    for x, value in zip(params.xs, values):
        table.add_row(x, value["y"])
    return table


TOY = ScenarioSpec(
    exp_id="toy",
    title="toy grid",
    params_cls=ToyParams,
    cells=toy_cells,
    run_cell=toy_run_cell,
    tabulate=toy_tabulate,
)


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed("t1", {"n": 10}, 1) == cell_seed("t1", {"n": 10}, 1)

    def test_sensitive_to_every_component(self):
        base = cell_seed("t1", {"n": 10}, 1)
        assert cell_seed("t2", {"n": 10}, 1) != base
        assert cell_seed("t1", {"n": 11}, 1) != base
        assert cell_seed("t1", {"n": 10}, 2) != base

    def test_key_order_does_not_matter(self):
        assert cell_seed("t1", {"a": 1, "b": 2}, 1) == cell_seed("t1", {"b": 2, "a": 1}, 1)


class TestCanonicalJson:
    def test_tuples_and_sets_are_normalised(self):
        assert canonical_json((1, 2)) == "[1,2]"
        assert canonical_json(frozenset({2, 1})) == "[1,2]"

    def test_key_order_is_stable(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestRunGrid:
    def test_sequential_evaluation(self):
        result = run_grid(TOY, ToyParams())
        assert [outcome.value["y"] for outcome in result.outcomes] == [10, 20, 30]
        assert result.cache_hits == 0
        assert result.tables()[0].column("y") == [10, 20, 30]

    def test_values_are_json_normalised_even_without_cache(self):
        # Tuples become lists on the computed path too, so cold and cached
        # runs are indistinguishable to tabulate/artifacts.
        result = run_grid(TOY, ToyParams())
        assert result.outcomes[0].value["pair"] == [1, 2]

    def test_parallel_matches_sequential(self):
        sequential = run_grid(TOY, ToyParams())
        parallel = run_grid(TOY, ToyParams(), workers=2)
        assert sequential.values == parallel.values

    def test_per_cell_seeds_differ(self):
        result = run_grid(TOY, ToyParams())
        seeds = [outcome.value["seed"] for outcome in result.outcomes]
        assert len(set(seeds)) == len(seeds)

    def test_run_cells_subset(self):
        values = run_cells(TOY, ToyParams(), [{"x": 3}, {"x": 1}])
        assert [value["y"] for value in values] == [30, 10]

    def test_make_params(self):
        assert TOY.make_params().xs == (1, 2, 3)
        assert TOY.make_params(full=True).xs == (1, 2, 3, 4, 5)
        assert TOY.make_params(seed=9).seed == 9


class TestPresets:
    def test_named_preset_resolves(self):
        assert TOY.make_params(preset="big").xs == (7, 8)
        assert TOY.make_params(preset="full").xs == (1, 2, 3, 4, 5)

    def test_overrides_apply_on_top_of_preset(self):
        params = TOY.make_params(preset="big", seed=9)
        assert params.xs == (7, 8)
        assert params.seed == 9

    def test_full_and_preset_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            TOY.make_params(full=True, preset="big")

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigurationError, match="big"):
            TOY.make_params(preset="huge")

    def test_private_names_are_not_presets(self):
        with pytest.raises(ConfigurationError, match="no preset"):
            TOY.make_params(preset="_hidden")

    def test_preset_returning_wrong_type_is_rejected(self):
        with pytest.raises(ConfigurationError, match="not ToyParams"):
            TOY.make_params(preset="broken")

    def test_presets_listing(self):
        listed = TOY.presets()
        assert "full" in listed and "big" in listed
        assert "_hidden" not in listed

    def test_large_n_presets_registered(self):
        from repro.harness.registry import get_spec

        e1 = get_spec("e1")
        assert "large_n" in e1.presets()
        assert e1.make_params(preset="large_n").n == 2000
        t3 = get_spec("t3")
        assert "large_n" in t3.presets()
        assert max(t3.make_params(preset="large_n").sizes) == 2000


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("toy", ToyParams(), {"x": 1}, 123)
        assert cache.get(key) is None
        cache.put(key, {"y": 10})
        assert cache.get(key) == {"y": 10}
        assert cache.hits == 1 and cache.misses == 1

    def test_key_changes_with_params(self):
        a = cache_key("toy", ToyParams(), {"x": 1}, 123)
        b = cache_key("toy", ToyParams(scale=11), {"x": 1}, 123)
        assert a != b

    def test_grid_run_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_grid(TOY, ToyParams(), cache=cache)
        warm = run_grid(TOY, ToyParams(), cache=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(warm.outcomes)
        assert cold.values == warm.values

    @pytest.mark.parametrize(
        "garbage",
        ["{not json", '"a bare string"', "[1, 2]", '{"key": "wrong"}', "{}"],
    )
    def test_corrupt_entry_reads_as_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        key = cache_key("toy", ToyParams(), {"x": 1}, 123)
        cache.put(key, {"y": 10})
        path = cache._path(key)
        path.write_text(garbage, encoding="utf-8")
        assert cache.get(key) is None

    def test_entry_with_matching_key_but_no_value_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("toy", ToyParams(), {"x": 1}, 123)
        cache.put(key, {"y": 10})
        cache._path(key).write_text(f'{{"key": "{key}"}}', encoding="utf-8")
        assert cache.get(key) is None


def one_shot_bytes(result):
    """The artifact as one ``json.dumps`` of the whole payload: the oracle."""
    payload = {
        "schema": "repro-bench/1",
        "experiment": result.spec.exp_id,
        "title": result.spec.title,
        "params": dataclasses.asdict(result.params),
        "cells": [
            {"coords": o.coords, "seed": o.seed, "value": o.value}
            for o in result.outcomes
        ],
        "tables": [
            {
                "title": t.title,
                "headers": list(t.headers),
                "rows": [list(row) for row in t.rows],
                "notes": list(t.notes),
            }
            for t in result.tables()
        ],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def mixed_run_cell(params, coords, seed):
    x = coords["x"]
    return {
        "nested": [[x, [x / 3, -0.0]], [], [[1e-7, 2.5e300]]],
        "float": x * 0.1,
        "text": f"Zürich – ✓ {x}\n\"quoted\"",
        "empty": {},
    }


def mixed_tabulate(params, values):
    table = Table(title="mixed ✓", headers=["x", "float"])
    for x, value in zip(params.xs, values):
        table.add_row(x, value["float"])
    table.add_note("ünïcode note")
    return table


MIXED = dataclasses.replace(
    TOY, title="mixed values – ✓", run_cell=mixed_run_cell, tabulate=mixed_tabulate
)


class TestArtifacts:
    @pytest.mark.parametrize(
        "spec, params",
        [(TOY, ToyParams()), (TOY, ToyParams(xs=())), (MIXED, ToyParams())],
        ids=["toy", "empty-grid", "nested-floats-non-ascii"],
    )
    def test_payload_shape(self, tmp_path, spec, params):
        result = run_grid(spec, params)
        path = write_artifact(tmp_path, result)
        assert path.read_bytes() == one_shot_bytes(result)

    def test_byte_identical_rewrites(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = write_artifact(tmp_path, run_grid(TOY, ToyParams(), cache=cache))
        before = first.read_bytes()
        second = write_artifact(tmp_path, run_grid(TOY, ToyParams(), cache=cache))
        assert second == first
        assert second.read_bytes() == before
        assert first.name == "BENCH_TOY.json"


class TestRegistry:
    def test_all_specs_cover_every_experiment(self):
        from repro.harness import all_specs

        assert sorted(all_specs()) == sorted(
            ["t1", "t2", "t3", "t4", "f1", "f2", "f3", "e1", "e2", "a1", "a2", "q1", "c1"]
        )

    def test_get_spec_rejects_unknown(self):
        from repro.harness import get_spec

        assert get_spec("T1").exp_id == "t1"
        with pytest.raises(ConfigurationError):
            get_spec("zz")
