"""CA-PCG: s-step communication-avoiding PCG.

The contract under test: the s-step solver is *mathematically PCG* --
same search directions, same iteration schedule, a solution matching
the PCG reference to the solve tolerance -- while its loop ledger shows
roughly ``1/s`` of the global reductions (one Gram all-reduce per
``s``-iteration epoch plus the periodic convergence checks).  On top of
that it inherits the full SpectralBoundedSolver surface: Lanczos
eigenbound estimation with caching, breakdown recovery by interval
widening, the ChronGear fallback, and checkpoint/resume.
"""

import math
import os

import numpy as np
import pytest

from repro.core.cache import ArtifactCache
from repro.core.checkpoint import CheckpointError, CheckpointPolicy
from repro.core.errors import SolverError
from repro.grid import test_config as make_test_config
from repro.operators import apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    CAPCGSolver,
    DistributedContext,
    PCGSolver,
    SerialContext,
)

BAD_BOUNDS = (1e-12, 2e-12)  # 12 orders below the true spectrum


@pytest.fixture(scope="module")
def cfg():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def rhs(cfg):
    rng = np.random.default_rng(3)
    return apply_stencil(cfg.stencil,
                         rng.standard_normal(cfg.shape) * cfg.mask)


def _context(cfg, engine="serial", precond="diagonal"):
    if engine == "serial":
        if precond == "evp":
            pre = evp_for_config(cfg, tile_size=8)
        else:
            pre = make_preconditioner(precond, cfg.stencil)
        return SerialContext(cfg.stencil, pre)
    decomp = decompose(cfg.ny, cfg.nx, 4, 4, mask=cfg.mask)
    if precond == "evp":
        pre = evp_for_config(cfg, decomp=decomp, tile_size=8)
    else:
        pre = make_preconditioner(precond, cfg.stencil, decomp=decomp)
    vm = VirtualMachine(decomp, mask=cfg.mask, engine=engine)
    return DistributedContext(cfg.stencil, pre, vm)


def _solve(cfg, rhs, engine="serial", precond="diagonal", cls=CAPCGSolver,
           checkpoint=None, **kwargs):
    solver = cls(_context(cfg, engine, precond), tol=1e-12,
                 max_iterations=500, raise_on_failure=False, **kwargs)
    return solver.solve(rhs, checkpoint=checkpoint), solver


class TestConvergenceParity:
    """CA-PCG tracks PCG's schedule and solution at every s."""

    @pytest.mark.parametrize("sstep", [1, 2, 4, 8])
    @pytest.mark.parametrize("precond", ["diagonal", "evp"])
    def test_matches_pcg(self, cfg, rhs, sstep, precond):
        pcg, _ = _solve(cfg, rhs, precond=precond, cls=PCGSolver)
        res, _ = _solve(cfg, rhs, precond=precond, sstep=sstep)
        assert pcg.converged and res.converged
        # The issue's acceptance bar is 10%; the Chebyshev basis keeps
        # the Gram systems well conditioned, so parity is exact here.
        assert abs(res.iterations - pcg.iterations) <= \
            0.1 * pcg.iterations
        scale = np.linalg.norm(pcg.x)
        assert np.linalg.norm(res.x - pcg.x) <= 1e-10 * scale

    def test_residual_is_genuine(self, cfg, rhs):
        res, _ = _solve(cfg, rhs, sstep=4)
        r = rhs - apply_stencil(cfg.stencil, res.x)
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(rhs)


class TestReductionBudget:
    """The measured ledger shows the 1/s amortization on every engine."""

    @pytest.mark.parametrize("engine", ["serial", "batched", "perrank"])
    @pytest.mark.parametrize("sstep", [2, 4])
    def test_loop_reductions_within_budget(self, cfg, rhs, engine, sstep):
        res, solver = _solve(cfg, rhs, engine=engine, sstep=sstep)
        assert res.converged
        loop = sum(c.allreduces for c in res.events.values())
        budget = (math.ceil(res.iterations / sstep)
                  + math.ceil(res.iterations / solver.check_freq) + 1)
        assert loop <= budget
        # ... and strictly below one-reduction-per-iteration solvers.
        pcg, _ = _solve(cfg, rhs, engine=engine, cls=PCGSolver)
        assert loop < sum(c.allreduces for c in pcg.events.values())

    def test_gram_words_scale_with_s(self, cfg, rhs):
        words = {}
        for sstep in (2, 8):
            res, _ = _solve(cfg, rhs, sstep=sstep)
            words[sstep] = sum(c.allreduce_words
                               for c in res.events.values())
        # Fewer, fatter messages: the s=8 Gram carries more words even
        # though it issues far fewer reductions.
        assert words[8] > words[2]


class TestEngineAgreement:
    """Serial model and the real engines tell the same story."""

    def test_solution_and_ledger_match(self, cfg, rhs):
        serial, _ = _solve(cfg, rhs, engine="serial", sstep=4)
        for engine in ("batched", "perrank"):
            dist, _ = _solve(cfg, rhs, engine=engine, sstep=4)
            assert dist.iterations == serial.iterations
            scale = np.linalg.norm(serial.x)
            assert np.linalg.norm(dist.x - serial.x) <= 1e-13 * scale
            for phase in set(serial.events) | set(dist.events):
                se = serial.events[phase]
                de = dist.events[phase]
                assert se.allreduces == de.allreduces, phase
                assert se.allreduce_words == de.allreduce_words, phase
                assert se.halo_exchanges == de.halo_exchanges, phase


class TestRecovery:
    """Bad bounds break the basis; the recovery policy repairs them."""

    def test_breakdown_without_recovery(self, cfg, rhs):
        with np.errstate(over="ignore", invalid="ignore"):
            res, _ = _solve(cfg, rhs, sstep=16, eig_bounds=BAD_BOUNDS,
                            max_recoveries=0)
        assert not res.converged
        assert res.diagnosis is not None
        assert res.diagnosis.kind == "breakdown"

    def test_recovery_widens_interval_and_converges(self, cfg, rhs):
        with np.errstate(over="ignore", invalid="ignore"):
            res, solver = _solve(cfg, rhs, sstep=16,
                                 eig_bounds=BAD_BOUNDS,
                                 max_recoveries=4, mu_backoff=1e4)
        assert res.converged
        assert res.extra["recoveries"] >= 1
        assert solver.eig_bounds[1] > BAD_BOUNDS[1]

    def test_chrongear_fallback(self, cfg, rhs):
        with np.errstate(over="ignore", invalid="ignore"):
            res, _ = _solve(cfg, rhs, sstep=16, eig_bounds=BAD_BOUNDS,
                            max_recoveries=0, fallback="chrongear")
        assert res.converged
        assert res.solver == "chrongear"
        assert res.extra["fallback_from"] == "capcg"


class TestCheckpointResume:
    """The shared 'solver' snapshot carries the epoch mid-flight."""

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_resume_is_bit_identical(self, cfg, rhs, tmp_path, engine):
        where = tmp_path / engine
        policy = CheckpointPolicy(directory=str(where), every=20, keep=10)
        full, solver = _solve(cfg, rhs, engine=engine, sstep=4)
        chk_solver = CAPCGSolver(_context(cfg, engine), tol=1e-12,
                                 max_iterations=500, sstep=4,
                                 eig_bounds=solver.eig_bounds,
                                 raise_on_failure=False)
        chk = chk_solver.solve(rhs, checkpoint=policy)
        assert (full.x == chk.x).all()
        snapshots = sorted(os.listdir(where))
        assert snapshots
        for snap in snapshots:
            resumed = CAPCGSolver(_context(cfg, engine), tol=1e-12,
                                  max_iterations=500, sstep=4,
                                  eig_bounds=solver.eig_bounds,
                                  raise_on_failure=False).solve(
                rhs, resume_from=str(where / snap))
            assert (full.x == resumed.x).all()
            assert full.iterations == resumed.iterations
            assert full.residual_norm == resumed.residual_norm

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_multi_rhs_resume_is_bit_identical(self, cfg, rhs, tmp_path,
                                               engine):
        """A 2-column batch with ragged convergence: every snapshot --
        mid-epoch (10 is not a multiple of s = 4) and after compaction
        dropped the early column -- resumes bit-identically."""
        batch = np.stack([rhs, 2.0 * rhs], axis=-1)
        # A loosely converged guess makes column 1 finish first.
        x0 = np.zeros_like(batch)
        x0[..., 1] = CAPCGSolver(_context(cfg), tol=1e-6,
                                 sstep=4).solve(batch[..., 1]).x

        def build(eig_bounds=None):
            return CAPCGSolver(_context(cfg, engine), tol=1e-12,
                               max_iterations=500, sstep=4,
                               eig_bounds=eig_bounds)

        first = build()
        full = first.solve(batch, x0=x0)
        iters = full.extra["per_rhs_iterations"]
        assert full.converged and iters[1] < iters[0]

        policy = CheckpointPolicy(directory=str(tmp_path), every=10,
                                  keep=0)
        build(first.eig_bounds).solve(batch, x0=x0, checkpoint=policy)
        at = [int(os.path.basename(p).split("-")[1].split(".")[0])
              for p in policy.written]
        assert any(k % 4 for k in at)            # mid-epoch
        assert any(k > iters[1] for k in at)     # post-compaction
        for snap in policy.written:
            resumed = build(first.eig_bounds).solve(batch, x0=x0,
                                                    resume_from=snap)
            assert np.array_equal(full.x, resumed.x)
            assert resumed.extra["per_rhs_iterations"] == iters
            assert resumed.residual_history == full.residual_history
            assert resumed.events == full.events

    def test_wrong_sstep_refuses_resume(self, cfg, rhs, tmp_path):
        policy = CheckpointPolicy(directory=str(tmp_path), every=20)
        _solve(cfg, rhs, sstep=4, checkpoint=policy)
        snap = sorted(os.listdir(tmp_path))[0]
        solver = CAPCGSolver(_context(cfg), tol=1e-12,
                             max_iterations=500, sstep=8)
        with pytest.raises(CheckpointError, match="sstep"):
            solver.solve(rhs, resume_from=str(tmp_path / snap))


class TestBoundsCacheAndValidation:
    """Eigenbound reuse through the artifact cache; argument guards."""

    def test_bounds_cache_is_shared(self, cfg, rhs):
        cache = ArtifactCache(cache_dir=None)
        first = CAPCGSolver(_context(cfg), tol=1e-12, max_iterations=500,
                            sstep=4, bounds_cache=cache)
        second = CAPCGSolver(_context(cfg), tol=1e-12, max_iterations=500,
                             sstep=4, bounds_cache=cache)
        a = first.solve(rhs)
        b = second.solve(rhs)
        assert first.eig_bounds == second.eig_bounds
        assert (a.x == b.x).all()

    def test_sstep_validation(self, cfg):
        with pytest.raises(SolverError, match="sstep"):
            CAPCGSolver(_context(cfg), sstep=0)
        with pytest.raises(SolverError, match="replace_freq"):
            CAPCGSolver(_context(cfg), replace_freq=-1)
