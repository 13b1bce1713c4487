"""Auto-tuner + cache-stats regressions.

Covers the ``repro tune`` contract (benchmark -> rank -> persist ->
auto-apply with ``--no-tuned`` opt-out), the quarantine -> repair ->
stats accounting the tuned choices depend on, and the
solver-recovery-state and warn-once satellite fixes.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.cache import ArtifactCache
from repro.grid import get_config
from repro.grid import test_config as make_test_config
from repro.parallel import decompose
from repro.tuning import (
    candidate_list,
    load_tuned_choice,
    render_table,
    tune,
    tuned_choice_key,
)


@pytest.fixture(scope="module")
def cfg():
    return make_test_config(24, 32, seed=9)


@pytest.fixture(scope="module")
def quick_report(cfg, tmp_path_factory):
    """One shared quick tune run (real solves are not free)."""
    cache_dir = str(tmp_path_factory.mktemp("tune-cache"))
    cache = ArtifactCache(cache_dir=cache_dir)
    report = tune(cfg, blocks=(2, 2), quick=True, tol=1e-10,
                  cache=cache)
    return {"report": report, "cache_dir": cache_dir, "cfg": cfg}


class TestCandidateMatrix:
    def test_full_matrix_spans_all_axes(self):
        cands = candidate_list()
        assert len(cands) == 2 * 2 * 2
        assert len(candidate_list(quick=True)) == 2 * 1 * 2
        assert all(set(c) == {"solver", "precond", "engine"}
                   for c in cands)
        solvers = {c["solver"] for c in cands}
        preconds = {c["precond"] for c in cands}
        assert solvers == {"chrongear", "pcsi"}
        assert preconds == {"evp", "diagonal"}

    def test_quick_matrix_is_smaller(self):
        quick = candidate_list(quick=True)
        full = candidate_list()
        assert 0 < len(quick) < len(full)

    def test_key_depends_on_grid_and_blocks(self, cfg):
        d22 = decompose(cfg.ny, cfg.nx, 2, 2, mask=cfg.mask)
        d24 = decompose(cfg.ny, cfg.nx, 2, 4, mask=cfg.mask)
        other = make_test_config(32, 48, seed=7)
        d_other = decompose(other.ny, other.nx, 2, 2, mask=other.mask)
        keys = {tuned_choice_key(cfg, d22), tuned_choice_key(cfg, d24),
                tuned_choice_key(other, d_other)}
        assert len(keys) == 3


class TestTunePersistRoundTrip:
    def test_every_candidate_ran(self, quick_report):
        report = quick_report["report"]
        assert len(report["entries"]) == len(
            candidate_list(quick=True))
        assert report["ranked"], "no quick candidate converged"

    def test_ranked_by_wall_time(self, quick_report):
        walls = [e["wall_time"]
                 for e in quick_report["report"]["ranked"]]
        assert walls == sorted(walls)

    def test_choice_is_the_winner(self, quick_report):
        report = quick_report["report"]
        best = report["ranked"][0]
        for field in ("solver", "precond", "engine"):
            assert report["choice"][field] == best[field]

    def test_reload_from_fresh_cache(self, quick_report):
        """The persisted choice survives a process restart (disk tier)
        and is promoted into the fresh cache's memory tier."""
        cfg = quick_report["cfg"]
        fresh = ArtifactCache(cache_dir=quick_report["cache_dir"])
        decomp = decompose(cfg.ny, cfg.nx, 2, 2, mask=cfg.mask)
        choice = load_tuned_choice(cfg, decomp, cache=fresh)
        assert choice is not None
        assert choice["solver"] == \
            quick_report["report"]["choice"]["solver"]
        assert fresh.disk_hits == 1
        # Second lookup: memory tier.
        assert load_tuned_choice(cfg, decomp, cache=fresh) == choice
        assert fresh.memory_hits == 1

    def test_no_choice_for_other_decomposition(self, quick_report):
        cfg = quick_report["cfg"]
        fresh = ArtifactCache(cache_dir=quick_report["cache_dir"])
        other = decompose(cfg.ny, cfg.nx, 4, 4, mask=cfg.mask)
        assert load_tuned_choice(cfg, other, cache=fresh) is None

    def test_render_table_lists_every_entry(self, quick_report):
        report = quick_report["report"]
        lines = render_table(report)
        assert len(lines) == 1 + len(report["entries"])
        assert "solver" in lines[0] and "wall" in lines[0]


class TestCliTunedResolution:
    """``repro solve`` applies the persisted choice; flags beat it."""

    def _tune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        rc = main(["tune", "--config", "test", "--quick",
                   "--blocks", "2,2", "--tol", "1e-8",
                   "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "persisted tuned choice" in out
        return cache_dir, out

    def test_tune_then_solve_applies_choice(self, tmp_path, capsys):
        cache_dir, _ = self._tune(tmp_path, capsys)
        rc = main(["solve", "--config", "test", "--blocks", "2,2",
                   "--cache-dir", cache_dir, "--tol", "1e-8",
                   "--cores", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "applying tuned choice:" in out
        assert "converged" in out

    def test_no_tuned_opts_out(self, tmp_path, capsys):
        cache_dir, _ = self._tune(tmp_path, capsys)
        rc = main(["solve", "--config", "test", "--blocks", "2,2",
                   "--cache-dir", cache_dir, "--no-tuned",
                   "--tol", "1e-8", "--cores", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "applying tuned choice:" not in out
        # Historical defaults hold without a tuned choice.
        assert "pcsi+evp" in out

    def test_explicit_flags_beat_the_choice(self, tmp_path, capsys):
        cache_dir, _ = self._tune(tmp_path, capsys)
        rc = main(["solve", "--config", "test", "--blocks", "2,2",
                   "--cache-dir", cache_dir, "--solver", "chrongear",
                   "--precond", "diagonal", "--engine", "serial",
                   "--tol", "1e-8", "--cores", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        # All three axes explicit -> nothing inherited, no banner.
        assert "applying tuned choice:" not in out
        assert "chrongear+diagonal" in out

    def test_stale_kernels_key_is_ignored(self, tmp_path, capsys):
        """A record persisted when the tuner still had a kernels axis
        (any value, including a backend that no longer exists) is
        applied; the key is not read."""
        cache_dir, _ = self._tune(tmp_path, capsys)
        cache = ArtifactCache(cache_dir=cache_dir)
        cfg = get_config("test")
        key = tuned_choice_key(
            cfg, decompose(cfg.ny, cfg.nx, 2, 2, mask=cfg.mask))
        choice = dict(cache.load("tuned", key)[1], kernels="retired-jit")
        cache.store("tuned", key, meta=choice)
        rc = main(["solve", "--config", "test", "--blocks", "2,2",
                   "--cache-dir", cache_dir, "--tol", "1e-8",
                   "--cores", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"applying tuned choice: solver={choice['solver']}" in out
        assert "kernels" not in out and "converged" in out

    def test_solve_without_choice_uses_defaults(self, tmp_path, capsys):
        rc = main(["solve", "--config", "test",
                   "--cache-dir", str(tmp_path / "empty"),
                   "--tol", "1e-8", "--cores", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "applying tuned choice:" not in out
        assert "pcsi+evp" in out

    def test_retired_precond_choice_is_a_miss(self, tmp_path, capsys):
        """A record naming a preconditioner kind or a solver this
        version does not build (the polynomial ``cheby:4``, the s-step
        ``capcg`` and the pipelined ``pipecg`` of older versions) is
        read as no choice: the solve runs the defaults instead of
        failing."""
        cache_dir, _ = self._tune(tmp_path, capsys)
        cache = ArtifactCache(cache_dir=cache_dir)
        cfg = get_config("test")
        decomp = decompose(cfg.ny, cfg.nx, 2, 2, mask=cfg.mask)
        key = tuned_choice_key(cfg, decomp)
        tuned = cache.load("tuned", key)[1]
        for retired in ({"precond": "cheby:4"}, {"solver": "capcg"},
                        {"solver": "pipecg"}):
            cache.store("tuned", key, meta=dict(tuned, **retired))
            fresh = ArtifactCache(cache_dir=cache_dir)
            assert load_tuned_choice(cfg, decomp, cache=fresh) is None
        rc = main(["solve", "--config", "test", "--blocks", "2,2",
                   "--cache-dir", cache_dir, "--tol", "1e-8",
                   "--cores", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "applying tuned choice:" not in out
        assert "pcsi+evp" in out and "converged" in out


class TestCacheStatsRegression:
    """quarantine -> repair -> stats keeps every counter consistent."""

    def _store_entries(self, cache, n=3):
        for i in range(n):
            cache.store("demo", f"key{i}",
                        arrays={"x": np.arange(4.0) + i},
                        meta={"i": i})

    def test_rebuild_counter_after_repair(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cache = ArtifactCache(cache_dir=cache_dir)
        self._store_entries(cache)
        # Corrupt one entry on disk.
        victim = cache._path("demo", "key1")
        with open(victim, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xde\xad\xbe\xef")

        report = cache.verify(repair=True)
        assert len(report["corrupt"]) == 1
        assert report["quarantined"] == 1
        stats = cache.stats()
        assert stats["quarantine_entries"] == 1
        assert stats["rebuilds"] == 0

        # The next lookup misses, the rebuild store heals the slot --
        # and is counted as a rebuild, not a plain write.
        assert cache.load("demo", "key1") is None
        cache.store("demo", "key1", arrays={"x": np.arange(4.0) + 1},
                    meta={"i": 1})
        stats = cache.stats()
        assert stats["rebuilds"] == 1
        assert stats["quarantine_entries"] == 1  # evidence is kept
        loaded = cache.load("demo", "key1")
        assert loaded is not None and loaded[1] == {"i": 1}

    def test_hit_ratio_counts_quarantined_reads_as_misses(self,
                                                          tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path / "cache"),
                              memory=False)
        assert cache.hit_ratio == 0.0
        self._store_entries(cache, n=2)
        assert cache.load("demo", "key0") is not None
        assert cache.load("demo", "nope") is None
        assert cache.hit_ratio == 0.5
        victim = cache._path("demo", "key1")
        with open(victim, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xde\xad\xbe\xef")
        assert cache.load("demo", "key1") is None  # quarantined: a miss
        assert cache.hit_ratio == pytest.approx(1.0 / 3.0)
        counters = cache.counters()
        assert counters["hit_ratio"] == cache.hit_ratio
        assert counters["rebuilds"] == 0

    def test_cli_verify_reports_envelope_less_entry(self, tmp_path,
                                                    capsys):
        """A readable npz without the checksum envelope is corrupt to
        ``repro cache verify``, and ``--repair`` quarantines it."""
        cache_dir = str(tmp_path / "cache")
        cache = ArtifactCache(cache_dir=cache_dir)
        self._store_entries(cache)
        victim = cache._path("demo", "key0")
        np.savez(victim, x=np.arange(4.0), __meta__=np.array('{"i": 0}'))
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
        out = capsys.readouterr().out
        assert "2 verified, 1 corrupt" in out
        assert "no integrity envelope" in out
        assert main(["cache", "verify", "--repair",
                     "--cache-dir", cache_dir]) == 1
        assert "quarantined 1 corrupt" in capsys.readouterr().out
        assert cache.load("demo", "key0") is None
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0

    def test_cli_stats_reports_quarantine_and_ratio(self, tmp_path,
                                                    capsys):
        cache_dir = str(tmp_path / "cache")
        cache = ArtifactCache(cache_dir=cache_dir)
        self._store_entries(cache)
        victim = cache._path("demo", "key2")
        with open(victim, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xde\xad\xbe\xef")
        assert main(["cache", "verify", "--repair",
                     "--cache-dir", cache_dir]) == 1
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        # Both lines print unconditionally, healthy or healed.
        assert "quarantined entries: 1" in out
        assert "hit ratio" in out and "rebuilds" in out
