"""Corrupt-entry handling in the result cache.

On a shared (NFS) cache a corrupt entry means torn writes or bit rot —
very different from a cold cache — so corrupt reads must be counted
separately from plain misses, recomputed transparently, and surfaced by
both the run summary and ``repro cache info --verify``.
"""

import json

import pytest

from repro.harness import ResultCache, cache_key, evaluate_cell
from repro.harness.cli import main
from repro.harness.registry import get_spec
from repro.harness.spec import cell_seed
from tests.goldens import smoke_params
from tests.helpers import SMALL_T2


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def corrupt_entry(cache, key, text):
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class TestGet:
    def test_absent_entry_is_a_plain_miss(self, cache):
        assert cache.get("0" * 64) is None
        assert (cache.misses, cache.corrupt) == (1, 0)

    @pytest.mark.parametrize(
        "text",
        [
            "",  # zero-length file (torn write)
            "{truncated",  # unparseable JSON
            "[1, 2, 3]",  # parseable, wrong shape
            json.dumps({"key": "f" * 64, "value": 1}),  # recorded key differs
            json.dumps({"key": "0" * 64}),  # no value field
        ],
    )
    def test_corrupt_entry_is_a_counted_miss(self, cache, text):
        key = "0" * 64
        corrupt_entry(cache, key, text)
        assert cache.get(key) is None
        assert (cache.misses, cache.corrupt) == (1, 1)

    def test_good_entry_is_a_hit(self, cache):
        key = "0" * 64
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 0, 0)

    def test_overwrite_heals_a_corrupt_entry(self, cache):
        key = "0" * 64
        corrupt_entry(cache, key, "{broken")
        assert cache.get(key) is None
        cache.put(key, 42)
        assert cache.get(key) == 42
        assert cache.corrupt == 1  # the one corrupt read, not ongoing


class TestEvaluateCellHealing:
    def test_corrupt_entry_is_recomputed_and_rewritten(self, cache):
        spec, params = get_spec("t2"), smoke_params()["t2"]
        coords = spec.grid(params)[0]
        seed = cell_seed(spec.exp_id, coords, params.seed)
        value, hit = evaluate_cell(spec, params, coords, seed, cache=cache)
        assert not hit
        key = cache_key(spec.exp_id, params, coords, seed)
        corrupt_entry(cache, key, "{torn write")
        healed, hit = evaluate_cell(spec, params, coords, seed, cache=cache)
        assert not hit  # recomputed, not served
        assert healed == value
        assert cache.corrupt == 1
        # The rewrite healed the entry: next read is a hit again.
        _, hit = evaluate_cell(spec, params, coords, seed, cache=cache)
        assert hit


class TestStatsVerify:
    def test_cheap_stats_do_not_verify(self, cache):
        corrupt_entry(cache, "0" * 64, "{broken")
        assert cache.stats().corrupt == 0
        assert cache.stats().entries == 1

    def test_verify_counts_corrupt_entries(self, cache):
        cache.put("a" * 64, 1)
        corrupt_entry(cache, "b" * 64, "{broken")
        corrupt_entry(cache, "c" * 64, json.dumps({"key": "wrong", "value": 1}))
        stats = cache.stats(verify=True)
        assert (stats.entries, stats.corrupt) == (3, 2)


class TestCli:
    def test_cache_info_verify_flags_corruption(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, 1)
        assert main(["cache", "info", "--dir", str(tmp_path), "--verify"]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        corrupt_entry(cache, "b" * 64, "{broken")
        assert main(["cache", "info", "--dir", str(tmp_path), "--verify"]) == 1
        assert "1 corrupt" in capsys.readouterr().out

    def test_run_summary_reports_recomputed_corrupt_entries(self, tmp_path, capsys):
        out = tmp_path / "results"
        argv = ["run", "t2", *SMALL_T2, "--out", str(out), "--quiet"]
        assert main(argv) == 0
        capsys.readouterr()
        # Corrupt every cached entry, then rerun: the summary must say so.
        cache = ResultCache(out / ".cache")
        entries = [path for path, _stat in cache._entries()]
        assert entries
        for path in entries:
            path.write_text("{torn", encoding="utf-8")
        assert main(argv) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert f"{len(entries)} corrupt cache entries recomputed" in summary
        assert "(0 cached)" in summary
