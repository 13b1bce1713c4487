"""Tests for calibration, sweeps, and the verification-experiment setup."""

import numpy as np
import pytest

from repro.experiments.calibration import (
    ANCHOR_CORES,
    ANCHOR_FRACTION,
    barotropic_day_time,
    calibrated_pop_model,
)
from repro.experiments.common import (
    FULL_SHAPES,
    get_cached_config,
    measure_solver,
)
from repro.experiments.perf_sweeps import (
    barotropic_sweep,
    noisy_barotropic_sweep,
    whole_model_sweep,
)
from repro.perfmodel import EDISON, YELLOWSTONE

SCALE = 0.125  # fast scaled configs for all sweep tests
CORES = (470, 4220, 16875)


class TestCalibration:
    def test_anchor_reproduced_exactly(self):
        """The calibrated model must put the barotropic share at exactly
        the Figure-1 anchor value."""
        model = calibrated_pop_model(machine=YELLOWSTONE, scale=SCALE)
        config = get_cached_config("pop_0.1deg", scale=SCALE)
        result = measure_solver(config, "chrongear", "diagonal")
        bt = barotropic_day_time(config, result, ANCHOR_CORES,
                                 YELLOWSTONE).total
        n_global = FULL_SHAPES["pop_0.1deg"][0] * FULL_SHAPES["pop_0.1deg"][1]
        bc = model.baroclinic_day_time(n_global, config.steps_per_day,
                                       ANCHOR_CORES, YELLOWSTONE)
        fraction = bt / (bt + bc)
        assert fraction == pytest.approx(ANCHOR_FRACTION, abs=1e-3)

    def test_model_cached(self):
        a = calibrated_pop_model(machine=YELLOWSTONE, scale=SCALE)
        b = calibrated_pop_model(machine=YELLOWSTONE, scale=SCALE)
        assert a is b

    def test_positive_work_constant(self):
        model = calibrated_pop_model(machine=YELLOWSTONE, scale=SCALE)
        assert model.flops_per_point_step > 0


class TestMeasureSolverNames:
    def test_every_registered_solver_name_is_accepted(self):
        """``measure_solver`` reads ``SOLVER_REGISTRY``, aliases
        included, not a table of its own."""
        config = get_cached_config("test")
        a = measure_solver(config, "csi", "diagonal", tol=1e-8)
        b = measure_solver(config, "pcsi", "diagonal", tol=1e-8)
        assert a.converged and a.iterations == b.iterations


class TestSweeps:
    def test_barotropic_sweep_structure(self):
        sweep = barotropic_sweep("pop_0.1deg", CORES, scale=SCALE,
                                 combos=[("chrongear", "diagonal")])
        data = sweep[("chrongear", "diagonal")]
        assert len(data["times"]) == len(CORES)
        assert all(t.total > 0 for t in data["times"])

    def test_whole_model_sweep_totals_consistent(self):
        sweep = whole_model_sweep("pop_0.1deg", CORES, scale=SCALE,
                                  combos=[("chrongear", "diagonal")])
        data = sweep[("chrongear", "diagonal")]
        for bt, bc, total in zip(data["barotropic"], data["baroclinic"],
                                 data["total"]):
            assert total == pytest.approx(bt + bc)
        assert all(s > 0 for s in data["sypd"])
        # rates improve with core count over this range
        assert data["sypd"][-1] > data["sypd"][0]

    def test_noisy_sweep_best_of_protocol(self):
        sweep = noisy_barotropic_sweep(
            "pop_0.1deg", (16875,), EDISON, scale=SCALE,
            combos=[("chrongear", "diagonal")], n_runs=7, best_k=3)
        data = sweep[("chrongear", "diagonal")]
        clean = data["times"][0].total
        # best-3 average is at most the clean mean plus noise; spread > 0
        assert data["spread"][0] > 0.0
        assert data["reported"][0] < clean * 1.5

    def test_noise_reproducible_in_seed(self):
        a = noisy_barotropic_sweep("pop_0.1deg", (16875,), EDISON,
                                   scale=SCALE, seed=5,
                                   combos=[("pcsi", "diagonal")])
        b = noisy_barotropic_sweep("pop_0.1deg", (16875,), EDISON,
                                   scale=SCALE, seed=5,
                                   combos=[("pcsi", "diagonal")])
        assert a[("pcsi", "diagonal")]["reported"] == \
            b[("pcsi", "diagonal")]["reported"]


class TestVerificationCommon:
    def test_make_model_variants(self):
        from repro.experiments.verification_common import make_model

        model = make_model("pcsi", "evp", tol=1e-12)
        assert model.solver.name == "pcsi"
        model = make_model("chrongear", "diagonal")
        assert model.solver.name == "chrongear"

    def test_mask_matches_model_grid(self):
        from repro.experiments.verification_common import (
            make_model,
            verification_mask,
        )

        mask = verification_mask()
        model = make_model()
        assert mask.shape == model.config.shape
        assert np.array_equal(mask, model.config.mask)

    def test_run_case_deterministic(self):
        from repro.experiments.verification_common import run_case

        a = run_case(1, days_per_month=2)
        b = run_case(1, days_per_month=2)
        assert np.array_equal(a[0], b[0])

    def test_perturbed_cases_differ(self):
        from repro.experiments.verification_common import run_case

        a = run_case(1, days_per_month=2, perturb_seed=1)
        b = run_case(1, days_per_month=2, perturb_seed=2)
        assert not np.array_equal(a[0], b[0])


class TestRhsDigestMemo:
    """The RHS content digest is memoized under the freeze protocol."""

    def _setup(self):
        from repro.core.cache import ArtifactCache, set_cache

        set_cache(ArtifactCache(cache_dir=None))
        return get_cached_config("test", scale=0.5)

    def test_digest_memoized_on_owning_array(self):
        from repro.experiments.common import _RHS_DIGEST_MEMO, rhs_digest

        rng = np.random.default_rng(4)
        rhs = rng.standard_normal((8, 8))
        first = rhs_digest(rhs)
        assert not rhs.flags.writeable  # frozen by the memo
        assert _RHS_DIGEST_MEMO[id(rhs)] == first
        assert rhs_digest(rhs) == first

    def test_mutation_invalidates_digest(self):
        from repro.experiments.common import rhs_digest

        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((8, 8))
        before = rhs_digest(rhs)
        # mutating requires thawing, which invalidates the memo ...
        rhs.flags.writeable = True
        rhs[3, 4] += 1.0
        after = rhs_digest(rhs)
        # ... so the digest reflects the new content, not the stale memo
        assert after != before
        fresh = rng.standard_normal((8, 8))
        fresh[:] = rhs
        assert rhs_digest(np.array(rhs)) == after

    def test_views_and_lists_never_memoized(self):
        from repro.experiments.common import rhs_digest

        base = np.arange(64.0).reshape(8, 8)
        view = base[:4]
        rhs_digest(view)
        assert base.flags.writeable  # a view is hashed fresh each call
        assert view.flags.writeable
        as_list = [[1.0, 2.0], [3.0, 4.0]]
        assert rhs_digest(as_list) == rhs_digest(np.array(as_list))

    def test_solve_key_tracks_rhs_content(self):
        from repro.experiments.common import solve_key

        config = self._setup()
        rhs = np.ones(config.shape)
        k1 = solve_key(config, "pcsi", "diagonal", 1e-8, 10, 100, rhs=rhs)
        assert solve_key(config, "pcsi", "diagonal", 1e-8, 10, 100,
                         rhs=np.ones(config.shape)) == k1
        rhs.flags.writeable = True
        rhs[0, 0] = 2.0
        assert solve_key(config, "pcsi", "diagonal", 1e-8, 10, 100,
                         rhs=rhs) != k1

    def test_engine_and_blocks_salt_the_key(self):
        from repro.experiments.common import solve_key

        config = self._setup()
        base = solve_key(config, "pcsi", "diagonal", 1e-8, 10, 100)
        batched = solve_key(config, "pcsi", "diagonal", 1e-8, 10, 100,
                            engine="batched", blocks=(4, 4))
        other = solve_key(config, "pcsi", "diagonal", 1e-8, 10, 100,
                          engine="batched", blocks=(2, 2))
        assert len({base, batched, other}) == 3
