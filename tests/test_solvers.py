"""Unit tests for the iterative solvers (correctness and semantics)."""

import numpy as np
import pytest

from repro.core.errors import ConvergenceError, SolverError
from repro.grid import test_config as make_test_config
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    ChronGearSolver,
    PCGSolver,
    PCSISolver,
    SerialContext,
    make_solver,
)


def _ctx(config, precond="diagonal"):
    if precond == "evp":
        pre = evp_for_config(config)
    else:
        pre = make_preconditioner(precond, config.stencil)
    return SerialContext(config.stencil, pre)


class TestFactory:
    def test_registry(self, small_config):
        ctx = _ctx(small_config)
        assert isinstance(make_solver("chrongear", ctx), ChronGearSolver)
        assert isinstance(make_solver("pcsi", ctx), PCSISolver)
        assert isinstance(make_solver("csi", ctx), PCSISolver)
        assert isinstance(make_solver("pcg", ctx), PCGSolver)
        with pytest.raises(ValueError):
            make_solver("gmres", ctx)


@pytest.mark.parametrize("solver_cls", [PCGSolver, ChronGearSolver,
                                        PCSISolver])
@pytest.mark.parametrize("precond", ["identity", "diagonal", "evp",
                                     "block_lu"])
class TestConvergence:
    def test_recovers_known_solution(self, small_config, rhs_maker,
                                     solver_cls, precond):
        b, x_true = rhs_maker(small_config)
        solver = solver_cls(_ctx(small_config, precond), tol=1e-12,
                            max_iterations=20000)
        result = solver.solve(b)
        assert result.converged
        err = np.abs((result.x - x_true) * small_config.mask).max()
        scale = np.abs(x_true).max()
        assert err < 1e-8 * scale
        assert result.relative_residual <= 1e-12

    def test_solution_masked(self, small_config, rhs_maker, solver_cls,
                             precond):
        b, _ = rhs_maker(small_config)
        result = solver_cls(_ctx(small_config, precond), tol=1e-10,
                            max_iterations=20000).solve(b)
        assert np.all(result.x[~small_config.mask] == 0.0)


class TestEquivalences:
    def test_chrongear_equals_pcg_iterates(self, small_config, rhs_maker):
        """ChronGear is algebraically PCG: same iterates, same counts."""
        b, _ = rhs_maker(small_config)
        r1 = PCGSolver(_ctx(small_config), tol=1e-12).solve(b)
        r2 = ChronGearSolver(_ctx(small_config), tol=1e-12).solve(b)
        assert r1.iterations == r2.iterations
        assert np.allclose(r1.x, r2.x, rtol=1e-10, atol=1e-12)

    def test_chrongear_fuses_reductions(self, small_config, rhs_maker):
        """...but ChronGear issues roughly half the all-reduces."""
        b, _ = rhs_maker(small_config)
        r1 = PCGSolver(_ctx(small_config), tol=1e-12).solve(b)
        r2 = ChronGearSolver(_ctx(small_config), tol=1e-12).solve(b)
        ar_pcg = r1.events["reduction"].allreduces
        ar_cg = r2.events["reduction"].allreduces
        assert ar_cg < 0.65 * ar_pcg

    def test_pcsi_has_no_loop_reductions_beyond_checks(self, small_config,
                                                       rhs_maker):
        b, _ = rhs_maker(small_config)
        res = PCSISolver(_ctx(small_config), tol=1e-12,
                         check_freq=10).solve(b)
        checks = len(res.residual_history)
        assert res.events["reduction"].allreduces == checks


class TestWarmStart:
    def test_exact_initial_guess_converges_immediately(self, small_config,
                                                       rhs_maker):
        b, x_true = rhs_maker(small_config)
        solver = ChronGearSolver(_ctx(small_config), tol=1e-10,
                                 check_freq=1)
        result = solver.solve(b, x0=x_true)
        assert result.converged
        assert result.iterations <= 2

    def test_warm_start_reduces_iterations(self, small_config, rhs_maker):
        b, x_true = rhs_maker(small_config)
        cold = ChronGearSolver(_ctx(small_config), tol=1e-12).solve(b)
        rng = np.random.default_rng(9)
        near = x_true + 1e-6 * rng.standard_normal(x_true.shape) \
            * small_config.mask
        warm = ChronGearSolver(_ctx(small_config), tol=1e-12).solve(
            b, x0=near)
        assert warm.iterations < cold.iterations


class TestToleranceAndBudget:
    def test_tighter_tolerance_costs_more(self, small_config, rhs_maker):
        b, _ = rhs_maker(small_config)
        loose = ChronGearSolver(_ctx(small_config), tol=1e-6).solve(b)
        tight = ChronGearSolver(_ctx(small_config), tol=1e-12).solve(b)
        assert tight.iterations > loose.iterations

    def test_budget_exhaustion_raises(self, small_config, rhs_maker):
        b, _ = rhs_maker(small_config)
        with pytest.raises(ConvergenceError) as err:
            ChronGearSolver(_ctx(small_config), tol=1e-13,
                            max_iterations=5).solve(b)
        assert err.value.iterations == 5
        assert err.value.residual_norm > 0

    def test_budget_exhaustion_returns_when_asked(self, small_config,
                                                  rhs_maker):
        b, _ = rhs_maker(small_config)
        res = ChronGearSolver(_ctx(small_config), tol=1e-13,
                              max_iterations=5,
                              raise_on_failure=False).solve(b)
        assert not res.converged
        assert res.iterations == 5

    def test_check_freq_rounds_iterations(self, small_config, rhs_maker):
        b, _ = rhs_maker(small_config)
        res = ChronGearSolver(_ctx(small_config), tol=1e-10,
                              check_freq=7).solve(b)
        assert res.iterations % 7 == 0

    def test_stagnation_detected_below_floor(self, small_config, rhs_maker):
        """An unreachable tolerance stops at the round-off floor instead
        of burning the whole budget."""
        b, _ = rhs_maker(small_config)
        res = PCSISolver(_ctx(small_config), tol=1e-17,
                         max_iterations=50000,
                         raise_on_failure=False).solve(b)
        assert not res.converged
        assert res.iterations < 50000

    def test_invalid_parameters(self, small_config):
        ctx = _ctx(small_config)
        with pytest.raises(SolverError):
            ChronGearSolver(ctx, tol=0.0)
        with pytest.raises(SolverError):
            ChronGearSolver(ctx, max_iterations=0)
        with pytest.raises(SolverError):
            ChronGearSolver(ctx, check_freq=0)


class TestPCSIBounds:
    def test_explicit_bounds_used(self, small_config, rhs_maker):
        b, _ = rhs_maker(small_config)
        solver = PCSISolver(_ctx(small_config), eig_bounds=(0.05, 2.5),
                            tol=1e-10)
        res = solver.solve(b)
        assert res.extra["nu"] == 0.05 and res.extra["mu"] == 2.5
        assert "lanczos_steps" not in res.extra

    def test_estimated_bounds_cached_across_solves(self, small_config,
                                                   rhs_maker):
        b, _ = rhs_maker(small_config)
        solver = PCSISolver(_ctx(small_config), tol=1e-10)
        solver.solve(b)
        first = solver.eig_bounds
        solver.solve(b * 2.0)
        assert solver.eig_bounds == first

    def test_invalid_bounds_rejected(self, small_config):
        with pytest.raises(SolverError):
            PCSISolver(_ctx(small_config), eig_bounds=(2.0, 1.0))
        with pytest.raises(SolverError):
            PCSISolver(_ctx(small_config), eig_bounds=(-1.0, 1.0))

    def test_forced_lanczos_steps_recorded(self, small_config, rhs_maker):
        b, _ = rhs_maker(small_config)
        solver = PCSISolver(_ctx(small_config), lanczos_steps=6, tol=1e-10,
                            max_iterations=30000)
        res = solver.solve(b)
        assert res.extra["lanczos_steps"] == 6


class TestResultRecord:
    def test_fields_populated(self, small_config, rhs_maker):
        b, _ = rhs_maker(small_config)
        res = ChronGearSolver(_ctx(small_config), tol=1e-10).solve(b)
        assert res.solver == "chrongear"
        assert res.preconditioner == "diagonal"
        assert res.b_norm > 0
        assert res.residual_history[-1][0] == res.iterations
        assert "converged" in res.describe()

    def test_setup_events_separate_from_loop(self, small_config, rhs_maker):
        b, _ = rhs_maker(small_config)
        res = PCSISolver(_ctx(small_config), tol=1e-10).solve(b)
        # Lanczos matvecs land in setup, not the loop's computation.
        assert res.setup_events["setup"].flops > 0
        assert res.events["computation"].flops > 0

    def test_zero_rhs_converges_immediately(self, small_config):
        res = ChronGearSolver(_ctx(small_config), tol=1e-10,
                              check_freq=1).solve(
            np.zeros(small_config.shape))
        assert res.converged
        assert res.residual_norm == 0.0
