"""Unit and property tests for the preconditioners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SolverError
from repro.grid import test_config as make_test_config
from repro.kernels import FusedKernels
from repro.operators import apply_stencil
from repro.parallel import decompose
from repro.precond import (
    BlockLUPreconditioner,
    DiagonalPreconditioner,
    IdentityPreconditioner,
    make_preconditioner,
)
from repro.precond.evp import EVPBlockPreconditioner, evp_for_config


class TestFactory:
    def test_known_kinds(self, small_config):
        st_ = small_config.stencil
        assert isinstance(make_preconditioner("identity", st_),
                          IdentityPreconditioner)
        assert isinstance(make_preconditioner("diag", st_),
                          DiagonalPreconditioner)
        assert isinstance(make_preconditioner("block_lu", st_),
                          BlockLUPreconditioner)

    def test_unknown_kind_raises(self, small_config):
        with pytest.raises(ValueError):
            make_preconditioner("multigrid", small_config.stencil)


class TestIdentity:
    def test_apply_is_masked_copy(self, small_config):
        pre = IdentityPreconditioner(small_config.stencil)
        rng = np.random.default_rng(0)
        r = rng.standard_normal(small_config.shape)
        z = pre.apply_global(r)
        assert np.array_equal(z, r * small_config.mask)
        assert pre.apply_flops() == 0


class TestDiagonal:
    def test_apply_divides_by_diagonal(self, small_config):
        pre = DiagonalPreconditioner(small_config.stencil)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(small_config.shape)
        z = pre.apply_global(r)
        mask = small_config.mask
        assert np.allclose(z[mask], r[mask] / small_config.stencil.c[mask])
        assert np.all(z[~mask] == 0.0)

    def test_flops_one_per_point(self, small_config, small_decomp):
        pre = DiagonalPreconditioner(small_config.stencil,
                                     decomp=small_decomp)
        assert pre.apply_flops() == small_decomp.max_block_points()
        assert pre.apply_flops(rank=0) == \
            small_decomp.active_blocks[0].npoints

    def test_apply_block_matches_global(self, small_config, small_decomp):
        pre = DiagonalPreconditioner(small_config.stencil,
                                     decomp=small_decomp)
        rng = np.random.default_rng(2)
        r = rng.standard_normal(small_config.shape)
        z = pre.apply_global(r)
        for rank, block in enumerate(small_decomp.active_blocks):
            zb = pre.apply_block(rank, r[block.slices])
            assert np.allclose(zb, z[block.slices])


class TestEVPExactness:
    @given(n=st.integers(4, 12), seed=st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_single_tile_solves_exactly(self, n, seed):
        """One EVP tile covering an all-ocean grid is a direct solver."""
        cfg = make_test_config(n, n, seed=seed, aquaplanet=True)
        pre = EVPBlockPreconditioner(cfg.stencil, tile_size=n,
                                     simplified=False)
        rng = np.random.default_rng(seed)
        x_true = rng.standard_normal((n, n))
        y = apply_stencil(cfg.stencil, x_true)
        x = pre.apply_global(y)
        tol = 1e-9 * 7.0 ** max(n - 4, 0)  # marching round-off growth
        assert np.abs(x - x_true).max() <= tol * np.abs(x_true).max()

    def test_matches_block_lu_on_identical_tiles(self, aqua_config):
        evp = EVPBlockPreconditioner(aqua_config.stencil, tile_size=12,
                                     simplified=False)
        lu = BlockLUPreconditioner(aqua_config.stencil, tile_size=12)
        rng = np.random.default_rng(3)
        r = rng.standard_normal(aqua_config.shape)
        z_evp = evp.apply_global(r)
        z_lu = lu.apply_global(r)
        # marching round-off at 12x12 bounds the disagreement
        assert np.abs(z_evp - z_lu).max() <= 1e-3 * np.abs(z_lu).max()

    def test_rectangular_tiles(self):
        cfg = make_test_config(10, 14, seed=2, aquaplanet=True)
        pre = EVPBlockPreconditioner(cfg.stencil, tile_size=14,
                                     simplified=False)
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(cfg.shape)
        y = apply_stencil(cfg.stencil, x_true)
        x = pre.apply_global(y)
        assert np.abs(x - x_true).max() < 1e-2

    def test_degenerate_single_row_tiles(self):
        """my == 1 tiles fall back to dense ring solves."""
        cfg = make_test_config(16, 16, seed=1, aquaplanet=True)
        pre = EVPBlockPreconditioner(cfg.stencil, tile_size=1,
                                     simplified=False)
        rng = np.random.default_rng(0)
        r = rng.standard_normal(cfg.shape)
        z = pre.apply_global(r)
        assert np.all(np.isfinite(z))
        # tile_size=1 block-diagonal == pure diagonal solve
        diag = DiagonalPreconditioner(cfg.stencil)
        assert np.allclose(z, diag.apply_global(r))


class TestEVPStructure:
    def test_land_requires_embedding_info(self, small_config):
        with pytest.raises(SolverError):
            EVPBlockPreconditioner(small_config.stencil)

    def test_config_helper_builds(self, small_config):
        pre = evp_for_config(small_config)
        assert pre.n_tiles >= 1
        rng = np.random.default_rng(4)
        z = pre.apply_global(rng.standard_normal(small_config.shape))
        assert np.all(np.isfinite(z))
        assert np.all(z[~small_config.mask] == 0.0)

    def test_apply_flops_matches_paper_simplified(self, small_config):
        """Simplified EVP ~ 14 n^2 flop units (paper section 4.3)."""
        pre = evp_for_config(small_config, simplified=True)
        points = small_config.ny * small_config.nx
        ratio = pre.apply_flops() / points
        assert 12.0 <= ratio <= 17.0

    def test_apply_flops_matches_paper_full(self, aniso_config):
        """Full EVP ~ 22 n^2 flop units (paper section 4.2).

        Needs an anisotropic grid: on isotropic cells the edge
        coefficients vanish identically, so the "full" engine prunes
        them and costs the same as the simplified one.
        """
        pre = evp_for_config(aniso_config, simplified=False)
        points = aniso_config.ny * aniso_config.nx
        ratio = pre.apply_flops() / points
        assert 19.0 <= ratio <= 27.0

    def test_setup_flops_positive_and_larger_than_apply(self, small_config):
        pre = evp_for_config(small_config)
        assert pre.setup_flops() > pre.apply_flops()

    def test_simplified_engine_skips_edge_terms(self, aniso_config):
        simp = evp_for_config(aniso_config, simplified=True)
        full = evp_for_config(aniso_config, simplified=False)
        n_simp = max(e.stencil_terms for e in simp._engines.values())
        n_full = max(e.stencil_terms for e in full._engines.values())
        assert n_simp == 5 and n_full == 9

    def test_isotropic_grid_prunes_edge_terms_automatically(self,
                                                            small_config):
        """On dx == dy grids the edge coefficients are exactly zero and
        even the "full" engine marches with 5 terms."""
        full = evp_for_config(small_config, simplified=False)
        assert max(e.stencil_terms for e in full._engines.values()) == 5

    def test_apply_block_matches_global(self, small_config, small_decomp):
        pre = evp_for_config(small_config, decomp=small_decomp)
        rng = np.random.default_rng(5)
        r = rng.standard_normal(small_config.shape) * small_config.mask
        z = pre.apply_global(r)
        for rank, block in enumerate(small_decomp.active_blocks):
            zb = pre.apply_block(rank, r[block.slices])
            assert np.allclose(zb, z[block.slices], rtol=1e-12, atol=1e-12)

    def test_spd_on_ocean_subspace(self, small_config):
        """x^T M^-1 x > 0 for masked x (required by CG theory)."""
        pre = evp_for_config(small_config)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.standard_normal(small_config.shape) * small_config.mask
            z = pre.apply_global(x)
            assert float(np.sum(x * z)) > 0.0

    def test_symmetric_on_ocean_subspace(self, small_config):
        """y^T M^-1 x == x^T M^-1 y for masked x, y."""
        pre = evp_for_config(small_config)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(small_config.shape) * small_config.mask
        y = rng.standard_normal(small_config.shape) * small_config.mask
        zx = pre.apply_global(x)
        zy = pre.apply_global(y)
        assert float(np.sum(y * zx)) == pytest.approx(
            float(np.sum(x * zy)), rel=1e-6)

    def test_roundoff_estimate_small_tiles(self, small_config):
        pre = evp_for_config(small_config, tile_size=6)
        assert pre.roundoff_estimate() < 1e-6

    def test_tile_size_validation(self, small_config):
        with pytest.raises(SolverError):
            evp_for_config(small_config, tile_size=0)


class TestBlockLU:
    def test_whole_grid_block_is_direct_solver(self, small_config,
                                               rhs_maker):
        pre = BlockLUPreconditioner(small_config.stencil)
        b, x_true = rhs_maker(small_config)
        x = pre.apply_global(b)
        mask = small_config.mask
        assert np.allclose(x[mask], x_true[mask], rtol=1e-9, atol=1e-9)

    def test_flops_quadratic_in_block_points(self, small_config):
        small = BlockLUPreconditioner(small_config.stencil, tile_size=4)
        big = BlockLUPreconditioner(small_config.stencil, tile_size=8)
        assert big.apply_flops() > small.apply_flops()

    def test_apply_block_matches_global(self, small_config, small_decomp):
        pre = BlockLUPreconditioner(small_config.stencil,
                                    decomp=small_decomp)
        rng = np.random.default_rng(8)
        r = rng.standard_normal(small_config.shape) * small_config.mask
        z = pre.apply_global(r)
        for rank, block in enumerate(small_decomp.active_blocks):
            zb = pre.apply_block(rank, r[block.slices])
            assert np.allclose(zb, z[block.slices])


class TestBatchPlanes:
    """Grid-shaped planes (mask, reciprocal diagonal) multiply a batch
    in the folded row layout, repeated once per width -- except EVP's
    mask where its native scatter masks, reading the plane itself."""

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "block_lu",
                                      "evp"])
    def test_columns_match_and_one_width_is_kept(self, small_config,
                                                 small_decomp, kind):
        if kind == "evp":
            pre = evp_for_config(small_config, decomp=small_decomp)
        else:
            pre = make_preconditioner(kind, small_config.stencil,
                                      decomp=small_decomp)
        rng = np.random.default_rng(5)
        wide = rng.standard_normal(small_config.shape + (4,))
        stack = np.stack([small_decomp.stack_interiors(wide[..., j])
                          for j in range(4)], axis=-1)
        blocks = small_decomp.active_blocks
        row_points = {None: small_config.nx,
                      "stack": small_decomp.max_block_shape()[1],
                      **{rank: b.nx for rank, b in enumerate(blocks)}}
        for nrhs in (3, 2):
            # A slice of the trailing axis cannot fold in place: an
            # operand that is only read is copied, not refused.
            r = wide[..., :nrhs]
            z = pre.apply_global(r)
            zs = pre.apply_stack(stack[..., :nrhs])
            for j in range(nrhs):
                column = np.ascontiguousarray(r[..., j])
                assert np.array_equal(z[..., j], pre.apply_global(column))
                assert np.array_equal(
                    zs[..., j], pre.apply_stack(
                        np.ascontiguousarray(stack[..., j])))
            scatters = kind == "evp" and isinstance(pre.kernels, FusedKernels) \
                and pre.kernels._native().evp_scatter is not None
            assert bool(pre._folded) != scatters and all(
                rows.shape[-1] == row_points[key] * nrhs
                for key, rows in pre._folded.items())
