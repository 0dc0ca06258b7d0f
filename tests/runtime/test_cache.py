"""Unit tests for the persistent result cache.

Everything runs against ``tmp_path``-scoped cache directories — the
suite never touches the user's real ``~/.cache/repro``.
"""

import json
import os
import pickle
import sys
import threading

import pytest

from repro.mapping.flow import FlowOptions
from repro.runtime import cache as cache_module
from repro.runtime.cache import (
    ENV_CACHE_DIR,
    ENV_CACHE_MAX_BYTES,
    ResultCache,
    default_cache_dir,
    default_max_bytes,
    parse_bytes,
    point_key,
)
from repro.obs import metrics
from repro.runtime.sweep import ExperimentPoint, PointSpec, point_to_json

SPEC = PointSpec("dc_filter", "HOM64", "basic")


def make_point(cycles=123):
    return ExperimentPoint("dc_filter", "HOM64", "basic", cycles=cycles)


class _Booby:
    """Unpickling this creates the ``sentinel`` directory: proof that
    something executed code from a cache file."""

    def __init__(self, sentinel):
        self.sentinel = str(sentinel)

    def __reduce__(self):
        return (os.mkdir, (self.sentinel,))


class TestPointKey:
    def test_same_spec_same_key(self):
        assert point_key(SPEC) == point_key(
            PointSpec("dc_filter", "HOM64", "basic"))

    def test_none_options_resolve_to_variant_preset(self):
        explicit = PointSpec("dc_filter", "HOM64", "basic",
                             options=FlowOptions.basic())
        assert point_key(SPEC) == point_key(explicit)

    def test_every_determining_field_perturbs_the_key(self):
        baseline = point_key(SPEC)
        perturbed = [
            PointSpec("fir", "HOM64", "basic"),
            PointSpec("dc_filter", "HET1", "basic"),
            PointSpec("dc_filter", "HOM64", "full"),
            PointSpec("dc_filter", "HOM64", "basic", seed=8),
            PointSpec("dc_filter", "HOM64", "basic",
                      options=FlowOptions.basic(seed=3)),
            PointSpec("dc_filter", "HOM64", "basic",
                      options=FlowOptions.basic(prune_cap=13)),
            PointSpec("dc_filter", "HOM64", "basic",
                      cm_depths=(64,) * 16),
        ]
        keys = [point_key(spec) for spec in perturbed]
        assert baseline not in keys
        assert len(set(keys)) == len(keys)

    def test_empty_cm_depths_is_rejected_early(self):
        # () must not collide with None (the Table I lookup) — since
        # PointSpec validates the array shape, it cannot even resolve.
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="CM depths"):
            point_key(PointSpec("dc_filter", "HOM64", "basic",
                                cm_depths=()))

    def test_rows_cols_perturb_the_key(self):
        # The same 16 depths on a 4x4 and a 2x8 array are different
        # machines; the explicit default shape hashes like None.
        depths = (64,) * 16
        base = PointSpec("dc_filter", "HOM64", "basic",
                         cm_depths=depths)
        explicit = PointSpec("dc_filter", "HOM64", "basic",
                             cm_depths=depths, rows=4, cols=4)
        reshaped = PointSpec("dc_filter", "HOM64", "basic",
                             cm_depths=depths, rows=2, cols=8)
        assert point_key(base) == point_key(explicit)
        assert point_key(reshaped) != point_key(base)

    def test_rows_cols_without_cm_depths_is_rejected(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="rows/cols"):
            point_key(PointSpec("dc_filter", "HOM64", "basic", rows=4))

    def test_config_name_case_is_normalised(self):
        # get_config() is case-insensitive, so the keys must agree.
        assert point_key(PointSpec("dc_filter", "hom64", "basic")) \
            == point_key(SPEC)

    def test_package_version_perturbs_the_key(self):
        assert point_key(SPEC, version="1.0.0") \
            != point_key(SPEC, version="1.0.1")


class TestHitMissInvalidate:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_point(SPEC) is None
        assert cache.misses == 1
        cache.store_point(SPEC, make_point())
        assert cache.stores == 1
        got = cache.get_point(SPEC)
        assert got is not None
        assert got.cycles == 123
        assert cache.hits == 1

    def test_roundtrip_preserves_fields(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = ExperimentPoint("dc_filter", "HET2", "full",
                                compile_seconds=1.5, cycles=308,
                                error=None, mapped=True, movs=12,
                                pnops=3, tile_words=[5, 0, 7, 2])
        cache.store_point(SPEC, point)
        got = cache.get_point(SPEC)
        assert (got.kernel_name, got.config_name, got.variant) \
            == ("dc_filter", "HET2", "full")
        assert got.cycles == 308
        assert got.compile_seconds == 1.5
        assert (got.movs, got.pnops, got.tile_words) \
            == (12, 3, [5, 0, 7, 2])
        assert got.mapping is None and got.activity is None

    def test_entry_is_the_point_json_document(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = make_point()
        path = cache.store_point(SPEC, point)
        assert path.name == f"f5-{point_key(SPEC)}.json"
        assert json.loads(path.read_text()) == point_to_json(point)

    def test_invalidate(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_point(SPEC, make_point())
        assert cache.invalidate_point(SPEC) is True
        assert cache.get_point(SPEC) is None
        assert cache.invalidate_point(SPEC) is False

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_point(SPEC, make_point())
        cache.store_point(PointSpec("fir", "HET1", "full"), make_point())
        assert len(cache.entries()) == 2
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_distinct_options_hit_distinct_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        custom = PointSpec("dc_filter", "HOM64", "basic",
                           options=FlowOptions.basic(seed=3))
        cache.store_point(SPEC, make_point(cycles=100))
        cache.store_point(custom, make_point(cycles=200))
        assert cache.get_point(SPEC).cycles == 100
        assert cache.get_point(custom).cycles == 200


class TestAtomicWrites:
    def test_partial_temp_file_is_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(SPEC)
        # Simulate a writer that died mid-write: a temp file exists,
        # the final name does not.
        partial = tmp_path / f"{key}.json.tmp1234"
        partial.write_text(json.dumps(point_to_json(make_point()))[:10])
        assert cache.get(key) is None
        assert cache.entries() == []

    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(SPEC)
        cache.put(key, make_point())
        payload = cache.path_for(key).read_bytes()
        cache.path_for(key).write_bytes(payload[: len(payload) // 2])
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key(SPEC)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_bytes(b"not a pickle at all")
        assert cache.get(key) is None

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_point(SPEC, make_point())
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_clear_sweeps_stray_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "deadbeef.pkl.tmp99").write_bytes(b"partial")
        cache.store_point(SPEC, make_point())
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []


def spec_for(seed):
    return PointSpec("dc_filter", "HOM64", "basic", seed=seed)


def fill(cache, count):
    """Store ``count`` distinct entries with strictly older mtimes
    for lower seeds, so LRU order is unambiguous."""
    for seed in range(count):
        path = cache.store_point(spec_for(seed), make_point(seed))
        os.utime(path, (1000 + seed, 1000 + seed))
    return [cache.path_for(point_key(spec_for(seed)))
            for seed in range(count)]


class TestParseBytes:
    @pytest.mark.parametrize("text,expected", [
        ("4096", 4096), ("0", 0), (" 512K ", 512 * 1024),
        ("64M", 64 * 1024 ** 2), ("2G", 2 * 1024 ** 3),
        ("2g", 2 * 1024 ** 3),
    ])
    def test_accepted(self, text, expected):
        assert parse_bytes(text) == expected

    @pytest.mark.parametrize("text", ["", "K", "12X", "1.5M", "-4"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_bytes(text)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_MAX_BYTES, "64K")
        assert default_max_bytes() == 64 * 1024
        monkeypatch.delenv(ENV_CACHE_MAX_BYTES)
        assert default_max_bytes() is None

    def test_env_zero_means_unlimited(self, monkeypatch):
        # The common env convention — a standing cap of 0 would evict
        # every entry the moment it is written.
        monkeypatch.setenv(ENV_CACHE_MAX_BYTES, "0")
        assert default_max_bytes() is None

    def test_cache_picks_up_env_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_MAX_BYTES, "4096")
        assert ResultCache(tmp_path).max_bytes == 4096


class TestEviction:
    def test_stores_respect_the_byte_cap(self, tmp_path):
        probe = ResultCache(tmp_path)
        probe.store_point(spec_for(0), make_point())
        entry_size = probe.size_bytes()
        probe.clear()

        cache = ResultCache(tmp_path, max_bytes=3 * entry_size)
        fill(cache, 6)
        assert cache.size_bytes() <= 3 * entry_size
        assert len(cache.entries()) == 3
        assert cache.evictions == 3

    def test_oldest_entries_evicted_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        paths = fill(cache, 4)
        entry_size = cache.size_bytes() // 4
        evicted = cache.prune(2 * entry_size)
        assert evicted == 2
        # The two oldest (lowest mtime) are gone, the newest remain.
        assert [path.exists() for path in paths] \
            == [False, False, True, True]

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path)
        paths = fill(cache, 3)
        entry_size = cache.size_bytes() // 3
        # Touch the oldest entry via a hit; now the middle one is LRU.
        assert cache.get_point(spec_for(0)) is not None
        cache.prune(2 * entry_size)
        assert paths[0].exists()
        assert not paths[1].exists()

    def test_prune_without_any_cap_is_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune()

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 3)
        assert cache.prune(0) == 3
        assert cache.entries() == []

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 5)
        assert cache.evictions == 0
        assert len(cache.entries()) == 5


class TestStats:
    def test_stats_accounting(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10 ** 9)
        fill(cache, 2)
        cache.get_point(spec_for(0))
        cache.get_point(spec_for(99))  # miss
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] == cache.size_bytes()
        assert stats["total_bytes"] > 0
        assert stats["max_bytes"] == 10 ** 9
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 2
        assert stats["evictions"] == 0
        assert stats["directory"] == str(tmp_path)

    def test_stats_on_missing_directory(self, tmp_path):
        stats = ResultCache(tmp_path / "nowhere").stats()
        assert stats["entries"] == 0
        assert stats["total_bytes"] == 0
        assert stats["orphaned_entries"] == 0
        assert stats["orphaned_bytes"] == 0


class TestFormatOrphans:
    """Format bumps must leave an old cache usable: entries of other
    formats — bare ``<hash>.pkl`` (formats 2/3) and ``f4-<hash>.pkl``
    (format 4) — are ignored, never loaded, never crashed on, and
    visibly reported as orphaned bytes so the user knows prune/clear
    reclaims them.
    """

    def old_format_dir(self, tmp_path, entries=3):
        """A cache directory as formats 2-4 left it: ``entries``
        bare-hash pickles plus one ``f4-`` pickle named with SPEC's
        current key, whose unpickling would create ``executed``."""
        tmp_path.mkdir(exist_ok=True)
        for i in range(entries):
            stale = tmp_path / f"{'%040x' % (i + 1)}{'0' * 24}.pkl"
            stale.write_bytes(pickle.dumps(make_point(cycles=i)))
        (tmp_path / f"f4-{point_key(SPEC)}.pkl").write_bytes(
            pickle.dumps(_Booby(tmp_path / "executed")))
        return tmp_path

    def test_old_entries_are_ignored_not_crashed_on(self, tmp_path):
        cache = ResultCache(self.old_format_dir(tmp_path))
        # Old-format entries never satisfy a lookup (even though they
        # hold valid pickles, one under this very key's hash): only
        # current-format filenames are ever read.
        assert cache.get_point(SPEC) is None
        assert cache.misses == 1
        assert not (tmp_path / "executed").exists()
        path = cache.store_point(SPEC, make_point(cycles=777))
        assert path.name.startswith("f5-")
        assert cache.get_point(SPEC).cycles == 777
        assert not (tmp_path / "executed").exists()

    def test_stats_report_orphaned_bytes(self, tmp_path):
        cache = ResultCache(self.old_format_dir(tmp_path, entries=2))
        cache.store_point(SPEC, make_point())
        stats = cache.stats()
        assert stats["entries"] == 4
        assert stats["orphaned_entries"] == 3
        assert 0 < stats["orphaned_bytes"] < stats["total_bytes"]

    def test_fresh_cache_has_no_orphans(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_point(SPEC, make_point())
        stats = cache.stats()
        assert stats["orphaned_entries"] == 0
        assert stats["orphaned_bytes"] == 0

    def test_clear_reclaims_orphans(self, tmp_path):
        cache = ResultCache(self.old_format_dir(tmp_path, entries=2))
        cache.store_point(SPEC, make_point())
        assert cache.clear() == 4
        assert cache.stats()["orphaned_entries"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_prune_to_zero_reclaims_orphans(self, tmp_path):
        cache = ResultCache(self.old_format_dir(tmp_path, entries=2))
        assert cache.prune(0) == 3
        assert cache.stats()["entries"] == 0

    def test_non_entry_files_are_not_entries(self, tmp_path):
        # JSONL stores and unrelated JSON share the directory; they
        # are neither counted, evicted nor cleared.
        cache = ResultCache(tmp_path)
        cache.store_point(SPEC, make_point())
        for name in ("ledger.jsonl", "jobs.jsonl", "expected.json"):
            (tmp_path / name).write_text("{}\n")
        assert cache.stats()["entries"] == 1
        assert cache.clear() == 1
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["expected.json", "jobs.jsonl", "ledger.jsonl"]


class TestCacheDir:
    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        cache = ResultCache()
        assert cache.directory == tmp_path / "elsewhere"

    def test_default_is_under_home(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        path = default_cache_dir()
        assert path.name == "repro"
        assert path.parent.name == ".cache"

    def test_get_on_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "never_created")
        assert cache.get_point(SPEC) is None
        assert cache.entries() == []
        assert cache.clear() == 0


class TestCorruptEntry:
    """A garbled on-disk entry is a loud miss, never a crash."""

    def corrupted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_point(SPEC, make_point())
        path = cache.path_for(point_key(SPEC))
        path.write_bytes(b"\x80repro-garbage-not-a-pickle")
        return cache, path

    def test_corrupt_entry_is_a_miss_and_is_discarded(self, tmp_path):
        cache, path = self.corrupted(tmp_path)
        assert cache.get_point(SPEC) is None
        assert cache.misses == 1
        assert not path.exists(), \
            "a corrupt entry must not survive to fail the next run"

    def test_corrupt_entry_bumps_its_own_counter(self, tmp_path):
        before = metrics.CACHE_CORRUPT.total()
        cache, _ = self.corrupted(tmp_path)
        assert cache.get_point(SPEC) is None
        assert metrics.CACHE_CORRUPT.total() == before + 1

    def test_recompute_heals_the_slot(self, tmp_path):
        cache, _ = self.corrupted(tmp_path)
        assert cache.get_point(SPEC) is None
        cache.store_point(SPEC, make_point(cycles=77))
        healed = cache.get_point(SPEC)
        assert healed is not None and healed.cycles == 77

    def test_planted_pickle_is_never_executed(self, tmp_path):
        # A shared cache directory is untrusted input: a pickle under
        # an entry's own name must be a corrupt miss, not code.
        cache = ResultCache(tmp_path / "cache")
        path = cache.path_for(point_key(SPEC))
        path.parent.mkdir()
        path.write_bytes(pickle.dumps(_Booby(tmp_path / "executed")))
        before = metrics.CACHE_CORRUPT.total()
        assert cache.get_point(SPEC) is None
        assert not (tmp_path / "executed").exists()
        assert metrics.CACHE_CORRUPT.total() == before + 1
        assert not path.exists()

    @pytest.mark.parametrize("document", [
        [1, 2, 3],
        {"config": "HOM64", "variant": "basic", "cycles": 5},
    ], ids=["list", "no-kernel"])
    def test_wrong_shape_document_is_a_corrupt_miss(self, tmp_path,
                                                    document):
        cache = ResultCache(tmp_path)
        cache.store_point(SPEC, make_point())
        path = cache.path_for(point_key(SPEC))
        path.write_text(json.dumps(document))
        before = metrics.CACHE_CORRUPT.total()
        assert cache.get_point(SPEC) is None
        assert metrics.CACHE_CORRUPT.total() == before + 1
        assert not path.exists()


class TestMemoryTable:
    """A point read once is served from memory by the same instance;
    every other process (and instance) still reads the file."""

    def read_once(self, tmp_path, cycles=123):
        cache = ResultCache(tmp_path)
        cache.store_point(SPEC, make_point(cycles))
        first = cache.get_point(SPEC)
        assert first is not None
        return cache, cache.path_for(point_key(SPEC)), first

    @pytest.mark.parametrize("damage", ["garble", "delete"])
    def test_repeat_read_touches_no_file(self, tmp_path, damage):
        cache, path, first = self.read_once(tmp_path)
        if damage == "garble":
            path.write_bytes(b"\x80repro-garbage")
        else:
            path.unlink()
        before = metrics.CACHE_HITS.total()
        assert cache.get_point(SPEC) is first
        assert (cache.hits, cache.misses) == (2, 0)
        assert metrics.CACHE_HITS.total() == before + 1

    def test_a_new_instance_still_finds_the_entry_corrupt(self,
                                                          tmp_path):
        _, path, _ = self.read_once(tmp_path)
        path.write_bytes(b"\x80repro-garbage")
        before = metrics.CACHE_CORRUPT.total()
        assert ResultCache(tmp_path).get_point(SPEC) is None
        assert metrics.CACHE_CORRUPT.total() == before + 1
        assert not path.exists()

    def test_put_replaces_the_remembered_point(self, tmp_path):
        cache, _, _ = self.read_once(tmp_path, cycles=1)
        cache.store_point(SPEC, make_point(cycles=2))
        assert cache.get_point(SPEC).cycles == 2

    @pytest.mark.parametrize("drop", [
        lambda cache: cache.invalidate_point(SPEC),
        lambda cache: cache.clear(),
        lambda cache: cache.prune(0),
    ], ids=["invalidate", "clear", "prune"])
    def test_dropping_the_entry_drops_the_point(self, tmp_path, drop):
        cache, _, _ = self.read_once(tmp_path)
        drop(cache)
        assert cache.get_point(SPEC) is None
        assert cache.misses == 1

    def test_least_recently_used_point_leaves_first(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_POINTS", 2)
        cache = ResultCache(tmp_path)
        paths = fill(cache, 3)
        for seed in (0, 1, 0, 2):  # 1 is now the least recently used
            assert cache.get_point(spec_for(seed)) is not None
        for path in paths:
            path.write_bytes(b"\x80repro-garbage")
        assert cache.get_point(spec_for(0)) is not None
        assert cache.get_point(spec_for(2)) is not None
        assert cache.get_point(spec_for(1)) is None
        assert cache.misses == 1

    def test_concurrent_readers_all_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [point_key(spec_for(seed)) for seed in range(50)]
        for seed, key in enumerate(keys):
            cache.put(key, make_point(seed))
        errors = []

        def read():
            try:
                for key in keys:
                    assert cache.get(key) is not None
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # A lost update to the shared counter would show here.
        assert (cache.hits, cache.misses) == (8 * 50, 0)
