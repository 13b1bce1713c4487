"""Polynomial preconditioners: bit-exactness, ledger pins, checkpoints.

The contract under test is the tentpole one: a Chebyshev or
Newton-Chebyshev apply is *pure block-local computation* -- the loop
reduction budget of every solver is identical to its diagonal-
preconditioned pin, and the solution is bit-identical across execution
engines, kernel backends and multi-RHS widths because all layouts run
one shared elementwise recurrence over backend-independent
(numpy-pinned Lanczos) coefficients.
"""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointPolicy
from repro.core.errors import SolverError
from repro.grid import test_config as make_test_config
from repro.operators import apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.precond import (
    ChebyshevPreconditioner,
    NewtonChebyshevPreconditioner,
    make_preconditioner,
    polynomial_point_flops,
)
from repro.solvers import DistributedContext, SerialContext, make_solver

ENGINES = ("serial", "batched", "perrank")
BACKENDS = ("numpy", "fused")

#: A fixed spectral interval so interval-sensitive tests never depend
#: on Lanczos state (the masked diagonally scaled operator's spectrum
#: sits inside (0, 2)).
PINNED_BOUNDS = (0.05, 1.95)


@pytest.fixture(scope="module")
def cfg():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def decomp(cfg):
    d = decompose(cfg.ny, cfg.nx, 4, 4, mask=cfg.mask)
    assert d.is_uniform and d.num_active == d.num_blocks
    return d


@pytest.fixture(scope="module")
def rhs(cfg):
    rng = np.random.default_rng(11)
    return apply_stencil(cfg.stencil,
                         rng.standard_normal(cfg.shape) * cfg.mask)


def _precond(kind, cfg, decomp, kernels="numpy", **kwargs):
    kwargs.setdefault("eig_bounds", PINNED_BOUNDS)
    return make_preconditioner(kind, cfg.stencil, decomp=decomp,
                               kernels=kernels, **kwargs)


def _context(cfg, decomp, engine, kernels, precond_kind, **pkw):
    pre = _precond(precond_kind, cfg, decomp, kernels=kernels, **pkw)
    if engine == "serial":
        # Same decomposition on the serial context: it must apply the
        # identical block-local M the distributed engines apply.
        return SerialContext(cfg.stencil, pre, decomp=decomp,
                             kernels=kernels)
    vm = VirtualMachine(decomp, mask=cfg.mask, engine=engine)
    return DistributedContext(cfg.stencil, pre, vm, kernels=kernels)


def _solve(cfg, decomp, rhs, solver, engine, kernels, precond_kind,
           solver_kwargs=None, **pkw):
    ctx = _context(cfg, decomp, engine, kernels, precond_kind, **pkw)
    result = make_solver(solver, ctx, tol=1e-12, max_iterations=500,
                         **(solver_kwargs or {})).solve(rhs)
    assert result.converged
    return result


class TestApplyLayouts:
    """One polynomial, three layouts, one bit pattern."""

    @pytest.mark.parametrize("kind", ["cheby:3", "ncheby:2:1"])
    def test_global_equals_blockwise(self, cfg, decomp, kind):
        pre = _precond(kind, cfg, decomp)
        rng = np.random.default_rng(0)
        r = rng.standard_normal(cfg.shape) * cfg.mask
        full = pre.apply_global(r)
        for rank, block in enumerate(decomp.active_blocks):
            piece = pre.apply_block(rank, r[block.slices])
            assert np.array_equal(full[block.slices], piece)

    @pytest.mark.parametrize("kind", ["cheby:3", "ncheby:2:1"])
    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_stacked_equals_blockwise(self, cfg, decomp, kind, nrhs):
        pre = _precond(kind, cfg, decomp)
        rng = np.random.default_rng(1)
        shape = cfg.shape if nrhs == 1 else cfg.shape + (nrhs,)
        mask = cfg.mask if nrhs == 1 else cfg.mask[..., None]
        r = rng.standard_normal(shape) * mask
        stack = np.stack([r[block.slices]
                          for block in decomp.active_blocks])
        out = pre.apply_stack(stack)
        for rank, block in enumerate(decomp.active_blocks):
            piece = pre.apply_block(rank, r[block.slices])
            assert np.array_equal(out[rank], piece)

    def test_masked_points_stay_zero(self, cfg, decomp):
        pre = _precond("cheby:4", cfg, decomp)
        rng = np.random.default_rng(2)
        r = rng.standard_normal(cfg.shape)  # deliberately unmasked
        z = pre.apply_global(r * cfg.mask)
        assert np.all(z[~cfg.mask] == 0.0)

    def test_spd_on_the_interval(self, cfg, decomp):
        """z^T r > 0 for r != 0: the apply is an SPD operator."""
        for kind in ("cheby:2", "cheby:5", "ncheby:2:1", "ncheby:1:2"):
            pre = _precond(kind, cfg, decomp)
            rng = np.random.default_rng(3)
            for trial in range(5):
                r = rng.standard_normal(cfg.shape) * cfg.mask
                z = pre.apply_global(r)
                assert float(np.vdot(r, z)) > 0.0, (kind, trial)


class TestCrossEngineBitExactness:
    """Same solve, every engine x backend x width: identical bits."""

    @pytest.mark.parametrize("solver,kind,engines", [
        # P-CSI has no loop dot products, so even the serial context
        # (same decomp, same block-local M) reproduces the distributed
        # bits exactly.
        ("pcsi", "cheby:3", ("serial", "batched", "perrank")),
        ("pcsi", "ncheby:2:1", ("serial", "batched", "perrank")),
        # ChronGear's serial reductions sum in a different order than
        # the VM's block-wise reductions, so (as everywhere else in the
        # suite) the bit-identity contract is across the VM engines.
        ("chrongear", "ncheby:2:1", ("perrank", "batched")),
    ])
    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_engines_and_backends_agree(self, cfg, decomp, rhs, solver,
                                        kind, engines, nrhs):
        if nrhs == 1:
            b = rhs
        else:
            rng = np.random.default_rng(17)
            b = np.stack([apply_stencil(
                cfg.stencil, rng.standard_normal(cfg.shape) * cfg.mask)
                for _ in range(nrhs)], axis=-1)
        skw = {}
        if solver == "pcsi":
            # P-CSI's own Lanczos runs dots whose summation order is
            # engine-dependent; pin the solver interval (estimated once,
            # serially) so the comparison isolates the preconditioner.
            from repro.core.cache import ArtifactCache

            probe_ctx = _context(cfg, decomp, "serial", "numpy", kind)
            probe = make_solver(solver, probe_ctx, tol=1e-12,
                                max_iterations=500,
                                bounds_cache=ArtifactCache(cache_dir=None))
            probe.solve(b if b.ndim == 2 else b[..., 0])
            skw["eig_bounds"] = probe.eig_bounds
        reference = _solve(cfg, decomp, b, solver, engines[0], "numpy",
                           kind, solver_kwargs=skw)
        for engine in engines:
            for kernels in BACKENDS:
                if (engine, kernels) == (engines[0], "numpy"):
                    continue
                other = _solve(cfg, decomp, b, solver, engine, kernels,
                               kind, solver_kwargs=skw)
                assert other.iterations == reference.iterations, \
                    (engine, kernels)
                assert np.array_equal(other.x, reference.x), \
                    (engine, kernels)

    def test_lanczos_bounds_match_backends(self, cfg, decomp):
        """Lazily estimated bounds are backend-independent (numpy-pinned
        estimation context), so coefficients match without pinning."""
        from repro.core.cache import ArtifactCache

        bounds = []
        for kernels in BACKENDS:
            pre = make_preconditioner(
                "cheby:2", cfg.stencil, decomp=decomp, kernels=kernels,
                bounds_cache=ArtifactCache(cache_dir=None))
            bounds.append(pre.ensure_bounds())
        assert bounds[0] == bounds[1]


class TestReductionBudgets:
    """The apply adds zero loop reductions -- pinned per solver."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pcsi_ncheby_checks_only(self, cfg, decomp, rhs, engine):
        ctx = _context(cfg, decomp, engine, "numpy", "ncheby:2:1")
        solver = make_solver("pcsi", ctx, tol=1e-12, max_iterations=500)
        result = solver.solve(rhs)
        assert result.converged
        k, f = result.iterations, solver.check_freq
        assert result.events["reduction"].allreduces == k // f
        assert "reduction_overlap" not in result.events \
            or result.events["reduction_overlap"].allreduces == 0
        # And zero halo exchanges from the preconditioner: only the
        # matvec's one exchange per iteration (+ residual replacements).
        halos = sum(c.halo_exchanges for c in result.events.values())
        assert halos <= k + k // f

    @pytest.mark.parametrize("engine", ENGINES)
    def test_chrongear_cheby_one_fused_per_iteration(self, cfg, decomp,
                                                     rhs, engine):
        ctx = _context(cfg, decomp, engine, "numpy", "cheby:3")
        solver = make_solver("chrongear", ctx, tol=1e-12,
                             max_iterations=500)
        result = solver.solve(rhs)
        assert result.converged
        k, f = result.iterations, solver.check_freq
        assert result.events["reduction"].allreduces == k + k // f

    def test_precond_phase_carries_only_flops(self, cfg, decomp, rhs):
        """The ledger's preconditioning phase: flops, nothing else."""
        ctx = _context(cfg, decomp, "batched", "numpy", "ncheby:2:1")
        result = make_solver("pcsi", ctx, tol=1e-12,
                             max_iterations=500).solve(rhs)
        entry = result.events["preconditioning"]
        assert entry.allreduces == 0
        assert entry.halo_exchanges == 0
        assert entry.flops > 0


class TestCheckpointResume:
    """Resolved bounds travel with the snapshot (precond_state)."""

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_resume_bit_identical(self, tmp_path, cfg, decomp, rhs,
                                  engine):
        full = _solve(cfg, decomp, rhs, "pcsi", engine, "numpy",
                      "ncheby:2:1")

        policy = CheckpointPolicy(str(tmp_path / engine), every=20)
        ctx = _context(cfg, decomp, engine, "numpy", "ncheby:2:1")
        make_solver("pcsi", ctx, tol=1e-12,
                    max_iterations=500).solve(rhs, checkpoint=policy)
        assert policy.written

        ctx2 = _context(cfg, decomp, engine, "numpy", "ncheby:2:1")
        resumed = make_solver("pcsi", ctx2, tol=1e-12,
                              max_iterations=500).solve(
            rhs, resume_from=policy.written[0])
        assert resumed.iterations == full.iterations
        assert np.array_equal(resumed.x, full.x)

    def test_snapshot_restores_lazy_bounds(self, cfg, decomp, tmp_path,
                                           rhs):
        """A restored preconditioner inherits the estimated interval
        instead of re-running Lanczos (no eig_bounds pin here)."""
        from repro.core.cache import ArtifactCache

        pre = make_preconditioner(
            "cheby:2", cfg.stencil, decomp=decomp,
            bounds_cache=ArtifactCache(cache_dir=None))
        pre.ensure_bounds()
        meta = pre.snapshot_meta()
        assert meta["name"] == "cheby" and meta["degree"] == 2
        assert meta["bounds"] is not None

        fresh = make_preconditioner(
            "cheby:2", cfg.stencil, decomp=decomp,
            bounds_cache=ArtifactCache(cache_dir=None))
        assert fresh.eig_bounds is None
        fresh.restore_meta(meta)
        assert fresh.eig_bounds == pre.eig_bounds

    def test_newton_snapshot_carries_steps(self, cfg, decomp):
        pre = _precond("ncheby:3:2", cfg, decomp)
        meta = pre.snapshot_meta()
        assert meta["steps"] == 2 and meta["degree"] == 3


class TestFactoryAndValidation:

    def test_suffix_parsing(self, cfg):
        pre = make_preconditioner("cheby:3", cfg.stencil,
                                  eig_bounds=PINNED_BOUNDS)
        assert isinstance(pre, ChebyshevPreconditioner)
        assert pre.degree == 3
        pre = make_preconditioner("ncheby:3:2", cfg.stencil,
                                  eig_bounds=PINNED_BOUNDS)
        assert isinstance(pre, NewtonChebyshevPreconditioner)
        assert pre.degree == 3 and pre.steps == 2
        # Defaults without a suffix.
        assert make_preconditioner("cheby", cfg.stencil).degree == 4
        ncheby = make_preconditioner("newton-cheby", cfg.stencil)
        assert ncheby.degree == 2 and ncheby.steps == 1

    def test_explicit_kwargs_beat_suffix(self, cfg):
        pre = make_preconditioner("cheby:3", cfg.stencil, degree=5,
                                  eig_bounds=PINNED_BOUNDS)
        assert pre.degree == 5

    def test_bad_suffixes_raise(self, cfg):
        with pytest.raises(ValueError, match="suffix"):
            make_preconditioner("cheby:x", cfg.stencil)
        with pytest.raises(ValueError):
            make_preconditioner("ncheby:1:2:3", cfg.stencil)

    def test_validation(self, cfg):
        with pytest.raises(SolverError, match="degree"):
            ChebyshevPreconditioner(cfg.stencil, degree=0)
        with pytest.raises(SolverError, match="Newton steps"):
            NewtonChebyshevPreconditioner(cfg.stencil, steps=0)
        with pytest.raises(SolverError, match="nu < mu"):
            ChebyshevPreconditioner(cfg.stencil, eig_bounds=(2.0, 1.0))
        with pytest.raises(SolverError, match="inner"):
            ChebyshevPreconditioner(cfg.stencil, inner="ssor")

    def test_point_flops(self):
        assert polynomial_point_flops(1) == 17
        assert polynomial_point_flops(4) == 62
        # One Newton sweep doubles the polynomial work + combine cost.
        assert polynomial_point_flops(2, steps=1) == \
            2 * (1 + 15 * 2) + 12 + 1

    def test_apply_flops_scale_with_degree(self, cfg, decomp):
        lo = _precond("cheby:1", cfg, decomp)
        hi = _precond("cheby:6", cfg, decomp)
        assert hi.apply_flops(0) > lo.apply_flops(0)
        assert lo.setup_flops() == 0

    def test_cache_tokens_distinguish_families(self, cfg):
        a = ChebyshevPreconditioner(cfg.stencil, degree=2,
                                    eig_bounds=PINNED_BOUNDS)
        b = NewtonChebyshevPreconditioner(cfg.stencil, degree=2, steps=1,
                                          eig_bounds=PINNED_BOUNDS)
        c = ChebyshevPreconditioner(cfg.stencil, degree=3,
                                    eig_bounds=PINNED_BOUNDS)
        assert len({a.cache_token(), b.cache_token(),
                    c.cache_token()}) == 3
