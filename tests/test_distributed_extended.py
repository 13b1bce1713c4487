"""Extended distributed-substrate tests: uneven decompositions, wider
halos, land-heavy masks."""

import numpy as np
import pytest

from repro.grid import test_config as make_test_config
from repro.operators import BlockedOperator, apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.precond import make_preconditioner
from repro.solvers import (
    ChronGearSolver,
    DistributedContext,
    SerialContext,
)


def _rhs(config, seed=1):
    rng = np.random.default_rng(seed)
    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


class TestUnevenDecompositions:
    @pytest.mark.parametrize("lattice", [(3, 5), (5, 3), (1, 6), (7, 1)])
    def test_blocked_matvec_matches_global(self, lattice):
        cfg = make_test_config(34, 46, seed=9)
        mby, mbx = lattice
        decomp = decompose(cfg.ny, cfg.nx, mby, mbx, mask=cfg.mask)
        vm = VirtualMachine(decomp, mask=cfg.mask)
        op = BlockedOperator(cfg.stencil, decomp)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(cfg.shape) * cfg.mask
        xf = vm.scatter(x)
        vm.exchange(xf)
        out = vm.zeros()
        op.apply(xf, out)
        ref = apply_stencil(cfg.stencil, x)
        gathered = vm.gather(out)
        for block in decomp.active_blocks:
            assert np.array_equal(gathered[block.slices],
                                  ref[block.slices])

    def test_solver_equivalence_on_uneven_lattice(self):
        cfg = make_test_config(34, 46, seed=9)
        decomp = decompose(cfg.ny, cfg.nx, 3, 5, mask=cfg.mask)
        pre_s = make_preconditioner("diagonal", cfg.stencil, decomp=decomp)
        pre_d = make_preconditioner("diagonal", cfg.stencil, decomp=decomp)
        b = _rhs(cfg)
        serial = ChronGearSolver(
            SerialContext(cfg.stencil, pre_s, decomp=decomp),
            tol=1e-11).solve(b)
        vm = VirtualMachine(decomp, mask=cfg.mask)
        dist = ChronGearSolver(
            DistributedContext(cfg.stencil, pre_d, vm),
            tol=1e-11).solve(b)
        assert serial.iterations == dist.iterations
        assert np.allclose(serial.x, dist.x, atol=1e-10)


class TestWiderHalos:
    @pytest.mark.parametrize("width", [1, 3])
    def test_exchange_correct_for_width(self, width):
        cfg = make_test_config(24, 30, seed=4)
        decomp = decompose(cfg.ny, cfg.nx, 3, 3, halo_width=width)
        vm = VirtualMachine(decomp)
        rng = np.random.default_rng(0)
        g = rng.standard_normal(cfg.shape)
        field = vm.scatter(g)
        vm.exchange(field)
        padded = np.zeros((cfg.ny + 2 * width, cfg.nx + 2 * width))
        padded[width:-width, width:-width] = g
        for rank, block in enumerate(decomp.active_blocks):
            window = padded[block.j0:block.j1 + 2 * width,
                            block.i0:block.i1 + 2 * width]
            assert np.array_equal(field.local(rank), window)

    def test_halo_words_scale_with_width(self):
        cfg = make_test_config(24, 30, seed=4)
        narrow = decompose(cfg.ny, cfg.nx, 3, 3, halo_width=1)
        wide = decompose(cfg.ny, cfg.nx, 3, 3, halo_width=3)
        assert wide.halo_words_per_exchange() > \
            2 * narrow.halo_words_per_exchange()


class TestLandHeavyMasks:
    def test_mostly_land_grid_still_solves_distributed(self):
        cfg = make_test_config(30, 40, seed=12, land_fraction=0.6)
        decomp = decompose(cfg.ny, cfg.nx, 3, 4, mask=cfg.mask)
        assert decomp.num_active <= decomp.num_blocks
        vm = VirtualMachine(decomp, mask=cfg.mask)
        pre = make_preconditioner("diagonal", cfg.stencil, decomp=decomp)
        res = ChronGearSolver(DistributedContext(cfg.stencil, pre, vm),
                              tol=1e-10, max_iterations=20000).solve(
            _rhs(cfg))
        assert res.converged

    def test_eliminated_blocks_reduce_ranks(self):
        cfg = make_test_config(30, 40, seed=12, land_fraction=0.6)
        with_elim = decompose(cfg.ny, cfg.nx, 5, 5, mask=cfg.mask)
        without = decompose(cfg.ny, cfg.nx, 5, 5, mask=cfg.mask,
                            eliminate_land=False)
        assert with_elim.num_active < without.num_active

