"""Unit tests for the performance model.

The key test class is :class:`TestPaperEquationAgreement`: the event
streams recorded by the *running* solvers must reproduce the per-
iteration coefficients of the paper's closed-form cost models
(Eqs. 2, 3, 5, 6).
"""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.grid import test_config as make_test_config
from repro.parallel import decompose
from repro.parallel.events import EventCounts
from repro.perfmodel import (
    EDISON,
    YELLOWSTONE,
    MachineSpec,
    chrongear_evp_step_time,
    chrongear_step_time,
    get_machine,
    pcsi_evp_step_time,
    pcsi_step_time,
    phase_times,
    solve_time,
    solver_day_time,
)
from repro.perfmodel.pop import (
    average_best,
    barotropic_fraction,
    baroclinic_day_time,
    noisy_run_times,
    simulation_rate_sypd,
)
from repro.perfmodel.timing import PhaseTimes, allreduce_seconds, halo_seconds
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import ChronGearSolver, PCSISolver, SerialContext


class TestMachineSpec:
    def test_allreduce_zero_at_one_rank(self):
        assert YELLOWSTONE.allreduce_time(1) == 0.0

    def test_allreduce_monotone_in_p(self):
        times = [YELLOWSTONE.allreduce_time(p) for p in (2, 16, 256, 4096)]
        assert times == sorted(times)
        with pytest.raises(ConfigurationError):
            YELLOWSTONE.allreduce_time(0)

    def test_halo_time_components(self):
        m = MachineSpec("m", theta=1e-9, alpha=1e-6, beta=1e-10,
                        ar_alpha=1e-6, ar_linear=1e-8)
        assert m.halo_time(100) == pytest.approx(4e-6 + 100 * 8 * 1e-10)

    def test_get_machine(self):
        assert get_machine("Yellowstone") is YELLOWSTONE
        assert get_machine("edison") is EDISON
        with pytest.raises(ConfigurationError):
            get_machine("frontier")

    def test_describe(self):
        assert "yellowstone" in YELLOWSTONE.describe()


class TestPhaseTimes:
    def test_pricing_components(self):
        m = MachineSpec("m", theta=1e-9, alpha=1e-6, beta=1e-10,
                        ar_alpha=2e-6, ar_linear=0.0)
        events = {
            "computation": EventCounts(flops=1000),
            "boundary": EventCounts(halo_exchanges=2, halo_words=50),
            "reduction": EventCounts(flops=10, allreduces=3,
                                     allreduce_words=6),
        }
        t = phase_times(events, m, p=16)
        assert t.computation == pytest.approx(1000 * 1e-9)
        assert t.boundary == pytest.approx(2 * 4 * 1e-6 + 50 * 8 * 1e-10)
        assert t.reduction == pytest.approx(10 * 1e-9 + 3 * (2e-6 * 4))

    def test_single_rank_communication_is_free(self):
        events = {
            "boundary": EventCounts(halo_exchanges=5, halo_words=100),
            "reduction": EventCounts(allreduces=5, allreduce_words=5),
        }
        t = phase_times(events, YELLOWSTONE, p=1)
        assert t.total == 0.0

    def test_other_phases_are_charged_to_setup(self):
        """A phase outside the four loop phases (``recovery``, ...) is
        one-time cost: priced into ``setup``, not into ``total``."""
        events = {"reduction": EventCounts(allreduces=2),
                  "recovery": EventCounts(allreduces=5)}
        t = phase_times(events, YELLOWSTONE, p=64)
        ar = YELLOWSTONE.allreduce_time(64)
        assert t.reduction == pytest.approx(2 * ar)
        assert t.setup == pytest.approx(5 * ar)
        assert t.total == pytest.approx(2 * ar)

    def test_scaled_preserves_setup(self):
        t = PhaseTimes(computation=1.0, boundary=2.0, setup=5.0)
        s = t.scaled(3.0)
        assert s.computation == 3.0 and s.boundary == 6.0
        assert s.setup == 5.0
        assert s.total == pytest.approx(9.0)
        assert s.total_with_setup == pytest.approx(14.0)

    def test_component_helpers(self):
        events = {
            "reduction": EventCounts(flops=100, allreduces=2),
            "boundary": EventCounts(halo_exchanges=1, halo_words=10),
        }
        ar = allreduce_seconds(events, YELLOWSTONE, 64)
        assert ar == pytest.approx(2 * YELLOWSTONE.allreduce_time(64))
        h = halo_seconds(events, YELLOWSTONE, 64)
        assert h > 0
        assert allreduce_seconds(events, YELLOWSTONE, 1) == 0.0


class TestPaperEquationAgreement:
    """Instrumented per-iteration events == the paper's coefficients."""

    @pytest.fixture(scope="class")
    def config(self):
        return make_test_config(32, 48, seed=7)

    @pytest.fixture(scope="class")
    def decomp(self, config):
        return decompose(config.ny, config.nx, 4, 4, mask=config.mask)

    def _per_iter_flops(self, result, phases):
        total = sum(result.events[ph].flops for ph in phases
                    if ph in result.events)
        return total / result.iterations

    def test_chrongear_diag_18n2(self, config, decomp):
        """Eq. (2): 18 N^2/p theta per iteration (15 comp + 1 precond +
        2 masking), modulo the periodic convergence check."""
        pre = make_preconditioner("diagonal", config.stencil, decomp=decomp)
        ctx = SerialContext(config.stencil, pre, decomp=decomp)
        res = ChronGearSolver(ctx, tol=1e-12).solve(
            _rhs(config))
        n2 = decomp.max_block_points()
        per_iter = self._per_iter_flops(
            res, ("computation", "preconditioning", "reduction")) / n2
        # checks add ~2/check_freq extra units
        assert per_iter == pytest.approx(18.0, abs=0.5)

    def test_pcsi_diag_13n2(self, config, decomp):
        """Eq. (3): 13 N^2/p theta per iteration (12 comp + 1 precond)."""
        pre = make_preconditioner("diagonal", config.stencil, decomp=decomp)
        ctx = SerialContext(config.stencil, pre, decomp=decomp)
        res = PCSISolver(ctx, tol=1e-12, eig_bounds=(0.02, 2.5)).solve(
            _rhs(config))
        n2 = decomp.max_block_points()
        per_iter = self._per_iter_flops(
            res, ("computation", "preconditioning", "reduction")) / n2
        assert per_iter == pytest.approx(13.0, abs=0.7)

    def test_chrongear_evp_31n2(self, config, decomp):
        """Eq. (5): 31 N^2/p theta per iteration with simplified EVP."""
        pre = evp_for_config(config, decomp=decomp)
        ctx = SerialContext(config.stencil, pre, decomp=decomp)
        res = ChronGearSolver(ctx, tol=1e-12).solve(_rhs(config))
        n2 = decomp.max_block_points()
        per_iter = self._per_iter_flops(
            res, ("computation", "preconditioning", "reduction")) / n2
        assert per_iter == pytest.approx(31.0, abs=2.0)

    def test_pcsi_evp_26n2(self, config, decomp):
        """Eq. (6): 26 N^2/p theta per iteration with simplified EVP."""
        pre = evp_for_config(config, decomp=decomp)
        ctx = SerialContext(config.stencil, pre, decomp=decomp)
        res = PCSISolver(ctx, tol=1e-12, eig_bounds=(0.05, 2.5)).solve(
            _rhs(config))
        n2 = decomp.max_block_points()
        per_iter = self._per_iter_flops(
            res, ("computation", "preconditioning", "reduction")) / n2
        assert per_iter == pytest.approx(26.0, abs=2.0)

    def test_one_halo_exchange_per_iteration(self, config, decomp):
        pre = make_preconditioner("diagonal", config.stencil, decomp=decomp)
        ctx = SerialContext(config.stencil, pre, decomp=decomp)
        res = ChronGearSolver(ctx, tol=1e-12).solve(_rhs(config))
        assert res.events["boundary"].halo_exchanges == res.iterations

    def test_one_allreduce_per_chrongear_iteration(self, config, decomp):
        pre = make_preconditioner("diagonal", config.stencil, decomp=decomp)
        ctx = SerialContext(config.stencil, pre, decomp=decomp)
        res = ChronGearSolver(ctx, tol=1e-12, check_freq=10).solve(
            _rhs(config))
        checks = len(res.residual_history)
        assert res.events["reduction"].allreduces == res.iterations + checks

    def test_closed_forms_match_priced_events_for_chrongear(self, config,
                                                            decomp):
        """Pricing the instrumented events with the simple (paper)
        all-reduce model reproduces Eq. (2) within the check overhead."""
        machine = MachineSpec("paper", theta=1e-9, alpha=1e-6, beta=1e-10,
                              ar_alpha=1e-6, ar_linear=0.0)
        pre = make_preconditioner("diagonal", config.stencil, decomp=decomp)
        ctx = SerialContext(config.stencil, pre, decomp=decomp)
        res = ChronGearSolver(ctx, tol=1e-12, check_freq=10).solve(
            _rhs(config))
        priced = phase_times(res.events, machine, decomp.num_active).total
        n_global = decomp.max_block_points() * decomp.num_active
        closed = chrongear_step_time(n_global, decomp.num_active, machine,
                                     iterations=res.iterations)
        assert priced == pytest.approx(closed, rel=0.30)

    def test_equation_orderings(self):
        """Closed forms: EVP costs more per iteration; P-CSI skips the
        log(p) latency entirely."""
        n2, p = 3600 * 2400, 16875
        m = YELLOWSTONE
        assert chrongear_evp_step_time(n2, p, m) > \
            chrongear_step_time(n2, p, m)
        assert pcsi_evp_step_time(n2, p, m) > pcsi_step_time(n2, p, m)
        assert pcsi_step_time(n2, p, m) < chrongear_step_time(n2, p, m)


def _rhs(config):
    from repro.operators import apply_stencil

    rng = np.random.default_rng(3)
    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


class TestSolveTimeHelpers:
    def test_solver_day_time_scales_loop_not_setup(self, small_config,
                                                   rhs_maker):
        pre = make_preconditioner("diagonal", small_config.stencil)
        decomp = decompose(small_config.ny, small_config.nx, 4, 4,
                           mask=small_config.mask)
        ctx = SerialContext(small_config.stencil, pre, decomp=decomp)
        b, _ = rhs_maker(small_config)
        res = PCSISolver(ctx, tol=1e-10).solve(b)
        one = solve_time(res, YELLOWSTONE, decomp.num_active)
        day = solver_day_time(res, YELLOWSTONE, decomp.num_active,
                              solves_per_day=10)
        assert day.total == pytest.approx(10 * one.total)
        assert day.setup == pytest.approx(one.setup)


class TestPopModel:
    def test_baroclinic_scales_inversely_with_p(self):
        a = baroclinic_day_time(1e6, 100, 100, YELLOWSTONE)
        b = baroclinic_day_time(1e6, 100, 1000, YELLOWSTONE)
        assert b < a

    def test_simulation_rate(self):
        # 236.7 s/day -> 1 SYPD
        assert simulation_rate_sypd(86400.0 / 365.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            simulation_rate_sypd(0.0)

    def test_barotropic_fraction(self):
        assert barotropic_fraction(1.0, 3.0) == pytest.approx(0.25)
        assert barotropic_fraction(0.0, 0.0) == 0.0

    def test_noisy_runs_statistics(self):
        times = PhaseTimes(computation=1.0, boundary=1.0, reduction=2.0)
        runs = noisy_run_times(times, EDISON, seed=1, n_runs=200)
        assert len(runs) == 200
        arr = np.array(runs)
        assert arr.min() >= 1.0  # fixed part
        # unit-mean noise on the 3.0s of comm
        assert arr.mean() == pytest.approx(4.0, rel=0.1)

    def test_noise_free_machine_constant(self):
        times = PhaseTimes(computation=1.0, reduction=1.0)
        m = MachineSpec("q", 1e-9, 1e-6, 1e-10, 1e-6, 0.0, noise_cv=0.0)
        runs = noisy_run_times(times, m, n_runs=5)
        assert len(set(runs)) == 1

    def test_average_best(self):
        assert average_best([5.0, 1.0, 3.0, 2.0], k=2) == 1.5
        assert average_best([4.0], k=3) == 4.0
        with pytest.raises(ValueError):
            average_best([], k=3)
