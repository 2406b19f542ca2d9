"""Unit tests for the distributed-run manifest, sharding, and plugin loader."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.grid import (
    MANIFEST_NAME,
    ensure_manifest,
    grid_manifest,
    load_manifest,
    parse_worker_id,
    shard_indices,
)
from repro.harness.plugins import load_plugins, plugin_modules
from repro.harness.registry import get_spec
from tests.goldens import smoke_params


@pytest.fixture
def t2():
    return get_spec("t2"), smoke_params()["t2"]


class TestWorkerId:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [("1/1", (1, 1)), ("2/4", (2, 4)), ("4/4", (4, 4))],
    )
    def test_valid(self, text, expected):
        assert parse_worker_id(text) == expected

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/2/3", "1.5/2"])
    def test_malformed(self, text):
        with pytest.raises(ConfigurationError, match="expects k/N"):
            parse_worker_id(text)

    @pytest.mark.parametrize("text", ["0/4", "5/4", "-1/4", "1/0"])
    def test_out_of_range(self, text):
        with pytest.raises(ConfigurationError, match="out of range"):
            parse_worker_id(text)

    def test_shards_partition_the_grid(self):
        shards = [shard_indices(10, k, 3) for k in (1, 2, 3)]
        assert shards[0] == [0, 3, 6, 9]
        assert sorted(i for s in shards for i in s) == list(range(10))


class TestManifest:
    def test_manifest_contents(self, t2):
        spec, params = t2
        manifest = grid_manifest(spec, params)
        assert manifest["experiment"] == "t2"
        assert manifest["plugins"] == {"env": [], "entry_points": []}
        cells = manifest["cells"]
        assert len(cells) == len(spec.grid(params))
        assert all({"coords", "seed", "key"} <= record.keys() for record in cells)
        # Deterministic: building it twice gives the same digest.
        assert grid_manifest(spec, params)["grid_digest"] == manifest["grid_digest"]

    def test_ensure_creates_then_validates(self, t2, tmp_path):
        spec, params = t2
        first = ensure_manifest(tmp_path, spec, params)
        assert (tmp_path / MANIFEST_NAME).exists()
        second = ensure_manifest(tmp_path, spec, params)  # same worker view: ok
        assert first == second == load_manifest(tmp_path)

    def test_params_mismatch_refused(self, t2, tmp_path):
        spec, params = t2
        ensure_manifest(tmp_path, spec, params)
        import dataclasses

        other = dataclasses.replace(params, seed=params.seed + 1)
        with pytest.raises(ConfigurationError, match="params differs"):
            ensure_manifest(tmp_path, spec, other)

    def test_experiment_mismatch_refused(self, t2, tmp_path):
        spec, params = t2
        ensure_manifest(tmp_path, spec, params)
        with pytest.raises(ConfigurationError, match="experiment differs"):
            ensure_manifest(tmp_path, get_spec("t1"), smoke_params()["t1"])

    def test_plugin_mismatch_refused(self, t2, tmp_path, monkeypatch):
        spec, params = t2
        ensure_manifest(tmp_path, spec, params)  # manifest records plugins: []
        # A worker that loaded extra plugins must be turned away.  ``json``
        # is already imported, so "loading" it registers nothing — the
        # refusal is purely about the recorded list differing.
        monkeypatch.setenv("REPRO_PLUGINS", "json")
        with pytest.raises(ConfigurationError, match="plugin set"):
            ensure_manifest(tmp_path, spec, params)

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no run manifest"):
            load_manifest(tmp_path)

    def test_corrupt_manifest_is_a_clear_error(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="unreadable run manifest"):
            load_manifest(tmp_path)

    def test_pre_entry_point_plugin_list_is_a_clear_error(self, t2, tmp_path):
        # Manifests once recorded plugins as a flat list.  No current worker
        # can join such a run, so status / reap say so instead of parsing it.
        from repro.harness.grid import grid_reap, grid_status

        spec, params = t2
        manifest = grid_manifest(spec, params)
        manifest["plugins"] = ["json"]
        path = tmp_path / MANIFEST_NAME
        path.write_text(json.dumps(manifest), encoding="utf-8")
        for command in (load_manifest, grid_status, grid_reap):
            with pytest.raises(ConfigurationError, match="older version") as caught:
                command(tmp_path)
            assert str(path) in str(caught.value)

    def test_manifest_file_round_trips(self, t2, tmp_path):
        spec, params = t2
        ensure_manifest(tmp_path, spec, params)
        on_disk = json.loads((tmp_path / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert on_disk == grid_manifest(spec, params)


class TestPluginLoader:
    def test_parse_splits_dedupes_sorts(self):
        assert plugin_modules("b, a:b,,a") == ("a", "b")
        assert plugin_modules("") == ()

    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLUGINS", "json:math")
        assert plugin_modules() == ("json", "math")
        monkeypatch.delenv("REPRO_PLUGINS")
        assert plugin_modules() == ()

    def test_load_imports_and_reports(self):
        assert load_plugins("json,math") == ("json", "math")

    def test_unimportable_module_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="no_such_plugin_xyz"):
            load_plugins("no_such_plugin_xyz")


class TestEntryPoints:
    @pytest.fixture
    def fake_scan(self, monkeypatch):
        """Inject entry points without installing a distribution."""
        from repro.harness import plugins

        # monkeypatch restores the pre-test cache on teardown, so the fake
        # scan results cannot leak into other tests.
        monkeypatch.setattr(plugins, "_entry_point_cache", None)

        def install(*pairs):
            monkeypatch.setattr(plugins, "_scan_entry_points", lambda: pairs)
            # Anything touching the registry (e.g. the t2 fixture) may have
            # re-primed the cache with the real scan by now.
            monkeypatch.setattr(plugins, "_entry_point_cache", None)

        return install

    def test_discovers_sorts_and_caches(self, fake_scan, monkeypatch):
        from repro.harness import plugins

        calls = []

        def scan():
            calls.append(1)
            return (("b", "math"), ("a", "json"))

        monkeypatch.setattr(plugins, "_scan_entry_points", scan)
        assert plugins.entry_point_modules() == ("json", "math")
        assert plugins.entry_point_modules() == ("json", "math")
        assert len(calls) == 1, "scan result must be cached"
        assert plugins.entry_point_modules(refresh=True) == ("json", "math")
        assert len(calls) == 2

    def test_load_plugins_imports_entry_points(self, fake_scan):
        fake_scan(("ep", "json"))
        assert load_plugins("math") == ("json", "math")

    def test_unimportable_entry_point_names_its_source(self, fake_scan):
        fake_scan(("ep", "no_such_entry_point_mod"))
        with pytest.raises(ConfigurationError, match="entry-point group"):
            load_plugins()

    def test_sources_shape_matches_manifest(self, fake_scan, monkeypatch):
        from repro.harness.plugins import plugin_sources

        fake_scan(("ep", "json"))
        monkeypatch.setenv("REPRO_PLUGINS", "math")
        assert plugin_sources() == {"env": ["math"], "entry_points": ["json"]}

    def test_manifest_records_entry_points(self, fake_scan, t2):
        spec, params = t2
        fake_scan(("ep", "json"))
        manifest = grid_manifest(spec, params)
        assert manifest["plugins"] == {"env": [], "entry_points": ["json"]}
