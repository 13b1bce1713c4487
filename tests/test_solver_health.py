"""Guarded convergence loop: diagnosis plumbing across all solvers.

Complements ``tests/test_faults.py`` (which drives failures through
injected communication faults): here the failure modes are provoked
directly -- exhausted budgets, NaN inputs, skewed explicit bounds,
unreachable tolerances -- and the contract under test is the *plumbing*:
the partial :class:`~repro.solvers.result.SolveResult`, the iteration
count, the residual history and the structured
:class:`~repro.solvers.health.SolverDiagnosis` must survive the raise
(and the return, with ``raise_on_failure=False``), for every solver,
under the serial context and both virtual-machine engines; and the
whole package must survive pickling (the report runner ships
:class:`~repro.core.errors.ConvergenceError` across process
boundaries).
"""

import pickle

import numpy as np
import pytest

from repro.core.errors import BreakdownError, ConvergenceError, SolverError
from repro.grid import test_config as make_test_config
from repro.kernels.native import load as load_native
from repro.operators import apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.precond import make_preconditioner
from repro.solvers import (
    BUDGET_EXHAUSTED,
    DIVERGED,
    NONFINITE_INPUT,
    RECOVERABLE_KINDS,
    ChronGearSolver,
    DistributedContext,
    PCGSolver,
    PCSISolver,
    PipeCGSolver,
    SerialContext,
    SolverDiagnosis,
)
from tests.test_checkpoint import CallsSerialContext

ALL_SOLVERS = [ChronGearSolver, PCSISolver, PCGSolver, PipeCGSolver]
CONTEXTS = ("serial", "perrank", "batched")


@pytest.fixture(scope="module")
def config():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def decomp(config):
    d = decompose(config.ny, config.nx, 4, 4, mask=config.mask)
    assert d.is_uniform and d.num_active == d.num_blocks
    return d


def _rhs(config, seed=1):
    rng = np.random.default_rng(seed)
    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


def _context(kind, config, decomp):
    pre = make_preconditioner("diagonal", config.stencil,
                              decomp=None if kind == "serial" else decomp)
    if kind == "serial":
        return SerialContext(config.stencil, pre)
    vm = VirtualMachine(decomp, mask=config.mask, engine=kind)
    return DistributedContext(config.stencil, pre, vm)


def _solver(solver_cls, ctx, **kwargs):
    if solver_cls is PCSISolver:
        kwargs.setdefault("eig_bounds", (0.05, 2.5))
        kwargs.setdefault("max_recoveries", 0)
    return solver_cls(ctx, **kwargs)


@pytest.mark.parametrize("ctx_kind", CONTEXTS)
@pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
class TestConvergenceErrorPaths:
    def test_budget_exhaustion_carries_everything(self, config, decomp,
                                                  ctx_kind, solver_cls):
        solver = _solver(solver_cls, _context(ctx_kind, config, decomp),
                         tol=1e-13, max_iterations=7, check_freq=3)
        with pytest.raises(ConvergenceError) as err:
            solver.solve(_rhs(config))
        exc = err.value
        assert exc.iterations == 7
        assert exc.diagnosis is not None
        assert exc.diagnosis.kind == BUDGET_EXHAUSTED
        assert exc.diagnosis.solver == solver.name
        assert not exc.diagnosis.recoverable
        result = exc.result
        assert result is not None
        assert result.iterations == 7
        assert not result.converged
        assert result.solver == solver.name
        assert result.residual_history  # checks at 3 and 6 + final at 7
        assert result.residual_history[-1][0] == 7
        assert np.isfinite(result.residual_norm)
        assert result.x.shape == config.shape
        assert result.diagnosis is exc.diagnosis
        assert result.extra["diagnosis"]["kind"] == BUDGET_EXHAUSTED
        # Partial events were still collected.
        assert sum(c.flops for c in result.events.values()) > 0

    def test_returns_diagnosed_result_when_asked(self, config, decomp,
                                                 ctx_kind, solver_cls):
        solver = _solver(solver_cls, _context(ctx_kind, config, decomp),
                         tol=1e-13, max_iterations=7,
                         raise_on_failure=False)
        result = solver.solve(_rhs(config))
        assert not result.converged
        assert result.iterations == 7
        assert result.diagnosis is not None
        assert result.diagnosis.kind == BUDGET_EXHAUSTED

    def test_nonfinite_input_refused_at_entry(self, config, decomp,
                                              ctx_kind, solver_cls):
        solver = _solver(solver_cls, _context(ctx_kind, config, decomp))
        b = _rhs(config).copy()
        ocean = np.argwhere(config.mask)
        b[tuple(ocean[7])] = np.inf
        with pytest.raises(ConvergenceError) as err:
            solver.solve(b)
        assert err.value.diagnosis.kind == NONFINITE_INPUT
        assert err.value.iterations == 0
        assert err.value.result.iterations == 0

    def test_nonfinite_x0_refused_at_entry(self, config, decomp,
                                           ctx_kind, solver_cls):
        solver = _solver(solver_cls, _context(ctx_kind, config, decomp))
        x0 = np.zeros(config.shape)
        ocean = np.argwhere(config.mask)
        x0[tuple(ocean[0])] = np.nan
        with pytest.raises(ConvergenceError) as err:
            solver.solve(_rhs(config), x0=x0)
        assert err.value.diagnosis.kind == NONFINITE_INPUT
        assert err.value.diagnosis.data["operand"] == "x0"

    def test_zero_rhs_regression(self, config, decomp, ctx_kind,
                                 solver_cls):
        """Zero RHS: exact answer x = 0, zero iterations, no loop events,
        and a note in extra -- never a failure, never a full budget."""
        solver = _solver(solver_cls, _context(ctx_kind, config, decomp),
                         tol=1e-13)
        result = solver.solve(np.zeros(config.shape))
        assert result.converged
        assert result.iterations == 0
        assert result.residual_norm == 0.0
        assert result.b_norm == 0.0
        assert result.extra["zero_rhs"] is True
        assert np.all(result.x == 0.0)
        assert result.events == {}
        assert result.diagnosis is None


class TestEntryShapes:
    """A mis-shaped ``b`` or ``x0`` is a SolverError naming the grid the
    context expects -- never a bare IndexError/ValueError from numpy."""

    @pytest.mark.parametrize("shape", [
        (5, 7),                 # wrong grid
        (48, 32),               # transposed grid
        (5, 7, 2),              # batch on the wrong grid
        (32, 48, 0),            # empty batch
        (32, 48, 2, 2),         # too many axes
        (32,),                  # too few
    ])
    def test_bad_b_shape(self, config, shape):
        solver = ChronGearSolver(_context("serial", config, None))
        with pytest.raises(SolverError, match=r"\(32, 48\)"):
            solver.solve(np.ones(shape))

    @pytest.mark.parametrize("b_shape,x0_shape", [
        ((32, 48), (5, 7)),
        ((32, 48), (32, 48, 1)),
        ((32, 48, 2), (32, 48, 3)),
        ((32, 48, 2), (5, 7)),
    ])
    def test_bad_x0_shape(self, config, b_shape, x0_shape):
        solver = ChronGearSolver(_context("serial", config, None))
        with pytest.raises(SolverError, match=r"\(32, 48\)"):
            solver.solve(np.ones(b_shape), x0=np.zeros(x0_shape))

    def test_shared_x0_broadcasts_over_a_batch(self, config):
        b = np.stack([_rhs(config, 1), _rhs(config, 2)], axis=-1)
        x0 = _rhs(config, 3)
        shared = ChronGearSolver(
            _context("serial", config, None), tol=1e-10).solve(b, x0=x0)
        explicit = ChronGearSolver(
            _context("serial", config, None), tol=1e-10).solve(
                b, x0=np.stack([x0, x0], axis=-1))
        assert np.array_equal(shared.x, explicit.x)


class TestStagnationContract:
    """Stagnated stops RETURN the result -- stagnation is the round-off
    floor of the explicit residual, not a failure."""

    def test_returns_even_with_raise_on_failure(self, config):
        # P-CSI checks the *explicit* residual b - A x, which has a
        # round-off floor (the CG family's recursive residual shrinks
        # to underflow instead and never stagnates).
        ctx = _context("serial", config, None)
        solver = _solver(PCSISolver, ctx, tol=1e-17,
                         max_iterations=50000, raise_on_failure=True)
        result = solver.solve(_rhs(config))  # must NOT raise
        assert result.extra["stagnated"] is True
        assert not result.converged
        assert result.iterations < 50000
        assert result.diagnosis is None  # a floor, not a pathology

    def test_zero_disables_detector(self, config):
        ctx = _context("serial", config, None)
        solver = _solver(PCSISolver, ctx, tol=1e-17, max_iterations=2000,
                         stagnation_checks=0, raise_on_failure=False)
        result = solver.solve(_rhs(config))
        assert "stagnated" not in result.extra
        assert result.iterations == 2000


class TestDivergenceDetector:
    def test_explicit_bad_bounds_diverge(self, config):
        """mu far below the spectrum's top: the classic P-CSI failure,
        detected as divergence instead of a NaN crash or silent loop."""
        ctx = _context("serial", config, None)
        solver = PCSISolver(ctx, eig_bounds=(0.05, 0.3),
                            max_recoveries=0, tol=1e-13,
                            max_iterations=5000)
        with pytest.raises(ConvergenceError) as err:
            solver.solve(_rhs(config))
        assert err.value.diagnosis.kind in RECOVERABLE_KINDS
        assert err.value.result.residual_history

    def test_recovery_widens_explicit_bounds(self, config):
        ctx = _context("serial", config, None)
        solver = PCSISolver(ctx, eig_bounds=(0.05, 0.9),
                            max_recoveries=4, mu_backoff=2.0, tol=1e-10,
                            max_iterations=5000)
        result = solver.solve(_rhs(config))
        assert result.converged
        assert result.extra["recoveries"] >= 1
        assert solver.eig_bounds[1] > 0.9  # widened in place

    def test_recovery_restores_configured_safety_factors(self, config):
        """A recovered solve must not leak widened safety factors into
        the next solve: the backoff multipliers are per-solve state,
        only the widened *bounds* persist (POP reuses them)."""
        ctx = _context("serial", config, None)
        solver = PCSISolver(ctx, eig_bounds=(0.05, 0.9),
                            max_recoveries=4, mu_backoff=2.0, tol=1e-10,
                            max_iterations=5000)
        first = solver.solve(_rhs(config))
        assert first.converged
        assert first.extra["recoveries"] >= 1
        # The knobs are back at their configured values ...
        assert solver.nu_safety == 0.5
        assert solver.mu_safety == 1.05
        assert solver.lanczos_steps is None
        assert solver._lanczos_max_steps == 60
        # ... while the widened interval is deliberately kept.
        widened = solver.eig_bounds
        assert widened[1] > 0.9

        # Second solve: no recovery needed, and bit-identical to a
        # fresh solver configured with the already-widened interval.
        second = solver.solve(_rhs(config))
        assert second.converged
        assert second.extra.get("recoveries", 0) == 0
        fresh = PCSISolver(ctx, eig_bounds=widened, max_recoveries=4,
                           mu_backoff=2.0, tol=1e-10,
                           max_iterations=5000)
        reference = fresh.solve(_rhs(config))
        assert second.iterations == reference.iterations
        assert np.array_equal(second.x, reference.x)

    def test_recovery_reset_also_runs_on_failure(self, config):
        """Even an exhausted-recoveries failure restores the knobs."""
        ctx = _context("serial", config, None)
        solver = PCSISolver(ctx, eig_bounds=(0.05, 0.1),
                            max_recoveries=1, mu_backoff=1.01,
                            tol=1e-13, max_iterations=200)
        with pytest.raises(ConvergenceError):
            solver.solve(_rhs(config))
        assert solver.nu_safety == 0.5
        assert solver.mu_safety == 1.05
        assert solver._lanczos_max_steps == 60

    def test_divergence_factor_zero_disables(self, config):
        ctx = _context("serial", config, None)
        solver = PCSISolver(ctx, eig_bounds=(0.05, 0.3),
                            max_recoveries=0, divergence_factor=0.0,
                            tol=1e-13, max_iterations=200,
                            raise_on_failure=False)
        result = solver.solve(_rhs(config))
        # Without the detector the loop runs to some other stop -- but
        # never silently "converges".
        assert not result.converged


class TestBreakdownConversion:
    @staticmethod
    def _explode_at_3(monkeypatch):
        """ChronGear's coefficient step raises at iteration 3 -- inside
        the span of iterations 1 .. 10 where the context runs one."""
        from repro.solvers import chrongear

        calls, step = [], chrongear._coefficients

        def exploding(*column):
            calls.append(column)
            if len(calls) == 3:
                raise BreakdownError("synthetic breakdown")
            return step(*column)

        monkeypatch.setattr(chrongear, "_coefficients", exploding)

    def _diagnosed(self, config, monkeypatch, context):
        self._explode_at_3(monkeypatch)
        pre = make_preconditioner("diagonal", config.stencil)
        ctx = context(config.stencil, pre)
        solver = ChronGearSolver(ctx, tol=1e-13)
        spans, spanned = [], solver._iterate_span
        solver._iterate_span = lambda state, first, n: (
            spans.append(n), spanned(state, first, n))
        with pytest.raises(ConvergenceError) as err:
            solver.solve(_rhs(config))
        assert err.value.diagnosis.kind == "breakdown"
        assert err.value.iterations == 3
        assert "synthetic breakdown" in err.value.diagnosis.message
        return err.value.result, spans

    def test_iterate_breakdown_is_diagnosed(self, config, monkeypatch):
        """A breakdown at iteration 3 of a span stops the count at 3:
        the head of 3 charged, its recurrences not -- the result of
        one iteration a call, bit for bit."""
        result, spans = self._diagnosed(config, monkeypatch, SerialContext)
        monkeypatch.undo()
        ref, ref_spans = self._diagnosed(config, monkeypatch,
                                         CallsSerialContext)
        if load_native().chrongear_span is not None:
            assert spans == [10]
        assert ref_spans == [1, 1, 1]
        assert result.events == ref.events
        assert result.residual_history == ref.residual_history
        assert np.array_equal(result.x, ref.x)
        assert ref.events["reduction"].allreduces == 3

    def test_iterate_breakdown_is_diagnosed_spans_of_one(self, config,
                                                         monkeypatch):
        """The same on one iteration a call, raised before iteration 3
        starts: its head is not charged either."""
        class ExplodingSolver(ChronGearSolver):
            name = "exploding"

            def _span(self, state, k, checkpoint):
                return 1

            def _iterate_span(self, state, first, n):
                if first == 3:
                    raise BreakdownError("synthetic breakdown")
                super()._iterate_span(state, first, n)

        ctx = _context("serial", config, None)
        with pytest.raises(ConvergenceError) as err:
            ExplodingSolver(ctx, tol=1e-13).solve(_rhs(config))
        assert err.value.diagnosis.kind == "breakdown"
        assert err.value.iterations == 3
        assert "synthetic breakdown" in err.value.diagnosis.message
        assert err.value.result.events["reduction"].allreduces == 2


class TestPickling:
    """The report runner ships ConvergenceError across process pools."""

    def test_error_round_trips_with_payload(self, config):
        ctx = _context("serial", config, None)
        solver = ChronGearSolver(ctx, tol=1e-13, max_iterations=5)
        with pytest.raises(ConvergenceError) as err:
            solver.solve(_rhs(config))
        clone = pickle.loads(pickle.dumps(err.value))
        assert clone.iterations == err.value.iterations
        assert clone.residual_norm == err.value.residual_norm
        assert clone.diagnosis.kind == BUDGET_EXHAUSTED
        assert clone.result.iterations == err.value.result.iterations
        assert np.array_equal(clone.result.x, err.value.result.x)
        assert str(clone) == str(err.value)

    def test_diagnosis_to_dict_is_json_safe(self):
        import json

        diag = SolverDiagnosis(
            kind=DIVERGED, solver="pcsi", message="m", iteration=3,
            residual_norm=float("inf"), b_norm=np.float64(2.5),
            data={"limit": float("nan"), "history": [(1, np.float64(3.0))],
                  "flag": True, "note": None})
        encoded = json.dumps(diag.to_dict())
        decoded = json.loads(encoded)
        assert decoded["kind"] == DIVERGED
        assert decoded["residual_norm"] == "inf"
        assert decoded["data"]["flag"] is True


class TestScalePrimitive:
    """The scale bugfix: a real `v *= factor`, identical across contexts
    and engines, and cheaper than the old axpy(factor-1, copy(v), v)."""

    @pytest.mark.parametrize("ctx_kind", CONTEXTS)
    def test_scale_matches_numpy(self, config, decomp, ctx_kind):
        ctx = _context(ctx_kind, config, decomp)
        rng = np.random.default_rng(3)
        g = rng.standard_normal(config.shape) * config.mask
        v = ctx.from_global(g)
        ctx.scale(0.37, v)
        expected = np.where(config.mask, g * 0.37, 0.0)
        assert np.array_equal(ctx.to_global(v), expected)

    def test_engine_parity_bitwise(self, config, decomp):
        rng = np.random.default_rng(5)
        g = rng.standard_normal(config.shape) * config.mask
        outs = {}
        for kind in ("perrank", "batched"):
            ctx = _context(kind, config, decomp)
            v = ctx.from_global(g)
            ctx.scale(1.0 / 3.0, v, phase="setup")
            outs[kind] = ctx.to_global(v)
            assert ctx.ledger.counts("setup").flops > 0
        assert np.array_equal(outs["perrank"], outs["batched"])

    def test_scale_records_one_flop_unit(self, config, decomp):
        ctx = _context("perrank", config, decomp)
        v = ctx.from_global(np.ones(config.shape) * config.mask)
        before = ctx.ledger.counts("computation").flops
        ctx.scale(2.0, v)
        delta = ctx.ledger.counts("computation").flops - before
        assert delta == decomp.max_block_points()
