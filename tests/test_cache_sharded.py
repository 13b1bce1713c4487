"""Unit tests for the sharded, size-bounded artifact cache layout."""

import json
import os

import numpy as np
import pytest

from repro.core.cache import (
    SHARD_DIR_PREFIX,
    ArtifactCache,
    configure_cache,
    digest_of,
    get_cache,
    set_cache,
)


@pytest.fixture()
def restore_global_cache():
    saved = get_cache()
    yield
    set_cache(saved)


def _keys_for_shard(cache, index, count, salt="k"):
    """Deterministic digests that land in one shard of ``cache``."""
    keys = []
    i = 0
    while len(keys) < count:
        key = digest_of(salt, i)
        if cache.shard_index(key) == index:
            keys.append(key)
        i += 1
    return keys


class TestShardLayout:
    def test_entries_land_in_shard_subdirectories(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=4)
        for i in range(16):
            key = digest_of("layout", i)
            path = cache.store("t", key, {"x": np.arange(3)}, {"i": i})
            shard = os.path.basename(os.path.dirname(path))
            assert shard == f"{SHARD_DIR_PREFIX}{cache.shard_index(key):02d}"
        dirs = sorted(d for d in os.listdir(tmp_path)
                      if d.startswith(SHARD_DIR_PREFIX))
        assert len(dirs) >= 2  # 16 uniform keys spread over >1 shard

    def test_round_trip_through_shards(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=8)
        key = digest_of("roundtrip")
        cache.store("t", key, {"x": np.arange(5.0)}, {"tag": "v"})
        arrays, meta = cache.load("t", key)
        np.testing.assert_array_equal(arrays["x"], np.arange(5.0))
        assert meta == {"tag": "v"}

    def test_shard_index_is_stable_and_in_range(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=4)
        for i in range(64):
            key = digest_of("stable", i)
            idx = cache.shard_index(key)
            assert 0 <= idx < 4
            assert idx == cache.shard_index(key)
        # non-hex keys hash rather than raise
        assert 0 <= cache.shard_index("not-hex!") < 4

    def test_flat_mode_unchanged(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path))
        key = digest_of("flat")
        path = cache.store("t", key, {"x": np.arange(2)}, {})
        assert os.path.dirname(path) == str(tmp_path)
        assert cache.shards == 0

    @pytest.mark.parametrize("shards", [None, 4])
    def test_envelope_less_entry_is_quarantined_not_loaded(self, tmp_path,
                                                           shards):
        """A readable npz with no checksum envelope (what the pre-v4
        reader used to hand back unverified) is damage: a miss on
        ``load``, corrupt in ``verify``."""
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=shards)
        key = digest_of("no-envelope")
        path = cache.store("t", key, {"x": np.arange(4.0)}, {"ok": True})
        np.savez(path, x=np.arange(4.0) + 1.0,
                 __meta__=np.array(json.dumps({"ok": True})))
        report = cache.verify()
        assert (report["checked"], report["ok"]) == (1, 0)
        assert report["corrupt"] == [(path, "no integrity envelope")]
        assert cache.load("t", key) is None
        assert cache.quarantined == 1 and not os.path.exists(path)
        assert os.listdir(cache.quarantine_dir())

    def test_sharded_cache_does_not_read_the_flat_root(self, tmp_path):
        """One place per entry: a key's shard, nowhere else."""
        flat = ArtifactCache(cache_dir=str(tmp_path))
        key = digest_of("one-place")
        flat.store("t", key, {"x": np.arange(4.0)}, {})
        sharded = ArtifactCache(cache_dir=str(tmp_path), shards=4)
        assert sharded.load("t", key) is None
        assert sharded.verify()["checked"] == 0


def _entry_size(tmp_path):
    """On-disk bytes of one standard test entry (npz overhead varies)."""
    probe = ArtifactCache(cache_dir=str(tmp_path / "probe"))
    path = probe.store("t", digest_of("probe"), {"x": np.zeros(512)}, {})
    return os.path.getsize(path)


class TestEviction:
    def test_lru_eviction_respects_budget(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=2,
                              max_bytes=2 * int(3.5 * size))
        keys = _keys_for_shard(cache, 0, 8)
        for i, key in enumerate(keys):
            cache.store("t", key, {"x": np.zeros(512)}, {"i": i})
        shard_dir = cache._shard_dir(0)
        sizes = sum(os.path.getsize(os.path.join(shard_dir, n))
                    for n in os.listdir(shard_dir)
                    if n.endswith(".npz"))
        assert sizes <= cache._shard_budget()
        assert cache.evictions > 0
        # newest entry always survives (it is protected during its
        # own store's eviction pass)
        assert cache.load("t", keys[-1]) is not None

    def test_oldest_entry_evicted_first(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=2,
                              max_bytes=2 * int(3.5 * size))
        keys = _keys_for_shard(cache, 0, 4)
        for i, key in enumerate(keys[:3]):
            path = cache.store("t", key, {"x": np.zeros(512)}, {})
            os.utime(path, (1000 + i, 1000 + i))  # distinct ages
        cache.store("t", keys[3], {"x": np.zeros(512)}, {})
        assert cache.load("t", keys[0]) is None  # oldest gone
        assert cache.load("t", keys[3]) is not None

    def test_protected_entry_never_evicted(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=2,
                              max_bytes=16)  # absurdly small budget
        key = _keys_for_shard(cache, 0, 1)[0]
        path = cache.store("t", key, {"x": np.zeros(1024)}, {})
        # the just-written entry exceeds the whole budget yet survives
        assert os.path.exists(path)

    def test_read_bumps_recency(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=2,
                              max_bytes=2 * int(3.5 * size))
        keys = _keys_for_shard(cache, 0, 4)
        paths = [cache.store("t", k, {"x": np.zeros(512)}, {}) for k in
                 keys[:3]]
        for i, path in enumerate(paths):
            os.utime(path, (1000 + i, 1000 + i))
        cache.load("t", keys[0])  # LRU hit: oldest becomes youngest
        cache.store("t", keys[3], {"x": np.zeros(512)}, {})
        assert cache.load("t", keys[0]) is not None
        assert cache.load("t", keys[1]) is None  # now-oldest evicted

    def test_unsharded_budget_also_evicts(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = ArtifactCache(cache_dir=str(tmp_path),
                              max_bytes=int(3.5 * size))
        for i in range(8):
            cache.store("t", digest_of("flatlru", i),
                        {"x": np.zeros(512)}, {})
        assert cache.evictions > 0


class TestShardStats:
    def test_per_shard_counters(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=4)
        key = digest_of("counted")
        cache.store("t", key, {"x": np.arange(2)}, {})
        cache.load("t", key)
        cache.load("t", digest_of("absent"))
        rows = cache.shard_stats()
        assert len(rows) == 4
        assert sum(r["hits"] for r in rows) == 1
        assert sum(r["misses"] for r in rows) == 1
        assert sum(r["entries"] for r in rows) == 1

    def test_evictions_persist_across_processes(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=2,
                              max_bytes=2 * int(2.5 * size))
        keys = _keys_for_shard(cache, 1, 6)
        for key in keys:
            cache.store("t", key, {"x": np.zeros(512)}, {})
        assert cache.evictions > 0
        fresh = ArtifactCache(cache_dir=str(tmp_path), shards=2)
        rows = fresh.shard_stats()
        assert rows[1]["evictions"] == cache.evictions

    def test_stats_reports_sharding(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=4,
                              max_bytes=1 << 20)
        stats = cache.stats()
        assert stats["shards"] == 4
        assert stats["max_bytes"] == 1 << 20
        assert len(stats["per_shard"]) == 4

    def test_flat_stats_have_no_per_shard(self, tmp_path):
        stats = ArtifactCache(cache_dir=str(tmp_path)).stats()
        assert stats["shards"] == 0
        assert "per_shard" not in stats


class TestQuarantinePerShard:
    def test_damaged_sharded_entry_quarantined_and_healed(self, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path), shards=4,
                              memory=False)
        key = digest_of("damaged")
        path = cache.store("t", key, {"x": np.arange(8.0)}, {"v": 1})
        with open(path, "r+b") as handle:  # corrupt in place
            handle.seek(30)
            handle.write(b"\xde\xad\xbe\xef")
        assert cache.load("t", key) is None
        assert cache.quarantined == 1
        assert not os.path.exists(path)
        # the rebuild-and-store path heals the slot and counts it
        cache.store("t", key, {"x": np.arange(8.0)}, {"v": 1})
        assert cache.rebuilds == 1
        assert cache.load("t", key) is not None


class TestConfiguration:
    def test_env_overrides(self, tmp_path, monkeypatch,
                           restore_global_cache):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "8")
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1048576")
        set_cache(None)
        cache = get_cache()
        assert cache.shards == 8
        assert cache.max_bytes == 1048576

    def test_configure_cache_forwards(self, tmp_path,
                                      restore_global_cache):
        cache = configure_cache(cache_dir=str(tmp_path), shards=4,
                                max_bytes=2048)
        assert get_cache() is cache
        assert cache.shards == 4
        assert cache.max_bytes == 2048
