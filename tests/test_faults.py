"""Fault-injection harness: every injected fault must be diagnosed.

The contract under test (the guardrail subsystem's reason to exist): a
corrupted halo ring, a poisoned reduction partial, skewed eigenvalue
bounds or a NaN right-hand side must never produce a silent wrong
answer or an unhandled exception -- each surfaces as a structured
:class:`~repro.solvers.health.SolverDiagnosis`, under **both** execution
engines, and P-CSI's recovery policy turns the recoverable ones back
into converged solves with the overhead charged to the ``"recovery"``
phase.
"""

import numpy as np
import pytest

from repro.core.errors import ConvergenceError
from repro.grid import test_config as make_test_config
from repro.operators import apply_stencil
from repro.parallel import (
    EigenboundsFault,
    FaultInjectionError,
    HaloFault,
    RHSFault,
    ReductionFault,
    VirtualMachine,
    decompose,
    make_fault,
    parse_fault_spec,
)
from repro.precond import make_preconditioner
from repro.solvers import (
    BREAKDOWN,
    DIVERGED,
    NONFINITE_INPUT,
    NONFINITE_RESIDUAL,
    ChronGearSolver,
    DistributedContext,
    PCGSolver,
    PCSISolver,
    PipeCGSolver,
)

ENGINES = ("perrank", "batched")

#: Kinds a NaN-class corruption may legitimately surface as -- which one
#: fires first depends on whether a reduced scalar (breakdown) or a
#: checked residual norm (nonfinite_residual) meets the NaN first.
NAN_KINDS = (BREAKDOWN, NONFINITE_RESIDUAL)


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


def _make_solver(engine, config, decomp, solver_cls, faults=(), **kwargs):
    vm = VirtualMachine(decomp, mask=config.mask, engine=engine,
                        faults=list(faults))
    pre = make_preconditioner("diagonal", config.stencil, decomp=decomp)
    ctx = DistributedContext(config.stencil, pre, vm)
    kwargs.setdefault("tol", 1e-10)
    kwargs.setdefault("max_iterations", 3000)
    if solver_cls is PCSISolver:
        kwargs.setdefault("max_recoveries", 0)
    return solver_cls(ctx, **kwargs)


def _diagnosed_solve(solver, b):
    """Run a solve that must fail; return its diagnosis."""
    with pytest.raises(ConvergenceError) as err:
        solver.solve(b)
    assert err.value.diagnosis is not None
    assert err.value.result is not None
    assert err.value.result.diagnosis is err.value.diagnosis
    return err.value


@pytest.mark.parametrize("engine", ENGINES)
class TestHaloFault:
    @pytest.mark.parametrize("solver_cls", [ChronGearSolver, PCGSolver,
                                            PipeCGSolver])
    def test_cg_family_diagnosed(self, config, decomp, engine, solver_cls):
        solver = _make_solver(engine, config, decomp, solver_cls,
                              faults=[HaloFault(rank=2, at=6)])
        err = _diagnosed_solve(solver, _rhs(config))
        assert err.diagnosis.kind in NAN_KINDS
        assert err.diagnosis.solver == solver.name

    def test_pcsi_diagnosed(self, config, decomp, engine):
        # P-CSI has no inner products in the loop: the NaN travels
        # silently until a convergence check meets it.
        solver = _make_solver(engine, config, decomp, PCSISolver,
                              faults=[HaloFault(rank=1, at=40)],
                              eig_bounds=(0.05, 2.5))
        err = _diagnosed_solve(solver, _rhs(config))
        assert err.diagnosis.kind == NONFINITE_RESIDUAL
        assert err.iterations > 0

    def test_bad_rank_rejected(self, config, decomp, engine):
        solver = _make_solver(engine, config, decomp, ChronGearSolver,
                              faults=[HaloFault(rank=99, at=1)])
        with pytest.raises(FaultInjectionError):
            solver.solve(_rhs(config))


@pytest.mark.parametrize("engine", ENGINES)
class TestReductionFault:
    @pytest.mark.parametrize("solver_cls", [ChronGearSolver, PCGSolver,
                                            PipeCGSolver])
    def test_nan_partial_diagnosed(self, config, decomp, engine,
                                   solver_cls):
        solver = _make_solver(engine, config, decomp, solver_cls,
                              faults=[ReductionFault(rank=3, at=4)])
        err = _diagnosed_solve(solver, _rhs(config))
        assert err.diagnosis.kind in NAN_KINDS

    def test_factor_perturbation_not_silently_wrong(self, config, decomp,
                                                    engine):
        """A perturbed alpha is still a consistent CG step: the solve may
        converge, but only to a *true* solution (the x <-> r invariant
        holds), or it must be diagnosed -- never silently wrong."""
        solver = _make_solver(engine, config, decomp, ChronGearSolver,
                              faults=[ReductionFault(rank=0, factor=4.0,
                                                     at=2)],
                              raise_on_failure=False)
        b = _rhs(config)
        result = solver.solve(b)
        if result.converged:
            true_res = b - apply_stencil(config.stencil,
                                         result.x * config.mask)
            true_norm = np.linalg.norm(true_res[config.mask])
            assert true_norm <= 10 * solver.tol * result.b_norm
        else:
            assert result.diagnosis is not None


@pytest.mark.parametrize("engine", ENGINES)
class TestEigenboundsFault:
    def test_divergence_diagnosed_without_recovery(self, config, decomp,
                                                   engine):
        solver = _make_solver(engine, config, decomp, PCSISolver,
                              faults=[EigenboundsFault(mu_factor=0.3)],
                              max_recoveries=0)
        err = _diagnosed_solve(solver, _rhs(config))
        assert err.diagnosis.kind in (DIVERGED, NONFINITE_RESIDUAL)
        assert err.diagnosis.recoverable

    def test_recovery_within_budget(self, config, decomp, engine):
        """The acceptance scenario: skewed bounds diverge, the recovery
        policy re-estimates, and the solve completes -- with the wasted
        work visible under the 'recovery' phase."""
        solver = _make_solver(engine, config, decomp, PCSISolver,
                              faults=[EigenboundsFault(mu_factor=0.3)],
                              max_recoveries=2)
        result = solver.solve(_rhs(config))
        assert result.converged
        assert result.extra["recoveries"] >= 1
        kinds = {d["kind"] for d in result.extra["recovery_diagnoses"]}
        assert kinds <= {DIVERGED, NONFINITE_RESIDUAL}
        recovery = result.setup_events["recovery"]
        assert recovery.flops > 0
        assert recovery.halo_exchanges > 0
        # The ledger's recovery phase matches what the result reports.
        ledger_recovery = solver.context.ledger.counts("recovery")
        assert ledger_recovery == recovery

    def test_persistent_skew_exhausts_recoveries(self, config, decomp,
                                                 engine):
        solver = _make_solver(
            engine, config, decomp, PCSISolver,
            faults=[EigenboundsFault(mu_factor=0.1, persistent=True)],
            max_recoveries=1)
        err = _diagnosed_solve(solver, _rhs(config))
        assert err.diagnosis.kind in (DIVERGED, NONFINITE_RESIDUAL)
        assert err.result.extra["recoveries"] >= 1

    def test_fallback_to_chrongear(self, config, decomp, engine):
        solver = _make_solver(
            engine, config, decomp, PCSISolver,
            faults=[EigenboundsFault(mu_factor=0.1, persistent=True)],
            max_recoveries=1, fallback="chrongear")
        result = solver.solve(_rhs(config))
        assert result.converged
        assert result.solver == "chrongear"
        assert result.extra["fallback_from"] == "pcsi"
        assert result.extra["recoveries"] >= 1


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("solver_cls", [ChronGearSolver, PCSISolver])
class TestRHSFault:
    def test_entry_guard_refuses(self, config, decomp, engine, solver_cls):
        fault = RHSFault(seed=11)
        kwargs = ({"eig_bounds": (0.05, 2.5)}
                  if solver_cls is PCSISolver else {})
        solver = _make_solver(engine, config, decomp, solver_cls, **kwargs)
        b = fault.on_rhs(_rhs(config), config.mask)
        err = _diagnosed_solve(solver, b)
        assert err.diagnosis.kind == NONFINITE_INPUT
        assert err.iterations == 0
        assert err.diagnosis.data["operand"] == "b"

    def test_land_nan_still_accepted(self, config, decomp, engine,
                                     solver_cls):
        """NaN on land is normal (masked); the entry guard must only
        scan ocean points."""
        kwargs = ({"eig_bounds": (0.05, 2.5)}
                  if solver_cls is PCSISolver else {})
        solver = _make_solver(engine, config, decomp, solver_cls, **kwargs)
        b = _rhs(config).copy()
        land = np.argwhere(~config.mask)
        b[tuple(land[0])] = np.nan
        result = solver.solve(b)
        assert result.converged


class TestEngineParityUnderFaults:
    """Injected faults corrupt both engines identically: same diagnosis,
    same iteration count, bit-identical partial iterate and events."""

    def _fail(self, engine, config, decomp, fault_maker):
        solver = _make_solver(engine, config, decomp, ChronGearSolver,
                              faults=[fault_maker()])
        with pytest.raises(ConvergenceError) as err:
            solver.solve(_rhs(config))
        return err.value

    @pytest.mark.parametrize("fault_maker", [
        lambda: HaloFault(rank=2, at=6, seed=3),
        lambda: ReductionFault(rank=1, at=5),
    ], ids=["halo", "reduction"])
    def test_bit_identical_failure(self, config, decomp, fault_maker):
        per = self._fail("perrank", config, decomp, fault_maker)
        bat = self._fail("batched", config, decomp, fault_maker)
        assert per.diagnosis.kind == bat.diagnosis.kind
        assert per.diagnosis.iteration == bat.diagnosis.iteration
        assert per.iterations == bat.iterations
        assert np.array_equal(per.result.x, bat.result.x,
                              equal_nan=True)
        for phase in set(per.result.events) | set(bat.result.events):
            assert per.result.events.get(phase) == \
                bat.result.events.get(phase), phase

    def test_recovery_parity(self, config, decomp):
        results = {}
        for engine in ENGINES:
            solver = _make_solver(
                engine, config, decomp, PCSISolver,
                faults=[EigenboundsFault(mu_factor=0.3)],
                max_recoveries=2)
            results[engine] = solver.solve(_rhs(config))
        per, bat = results["perrank"], results["batched"]
        assert per.iterations == bat.iterations
        assert per.extra["recoveries"] == bat.extra["recoveries"]
        assert np.array_equal(per.x, bat.x)
        assert per.setup_events["recovery"] == bat.setup_events["recovery"]


class TestFaultSpecs:
    def test_parse_round_trip(self):
        fault = parse_fault_spec("halo:rank=1,at=2,value=inf,seed=9")
        assert isinstance(fault, HaloFault)
        assert fault.rank == 1 and fault.at == 2 and fault.seed == 9
        assert np.isinf(fault.value)

    def test_parse_persistent_and_factor(self):
        fault = parse_fault_spec("reduction:factor=1e6,persistent=true")
        assert isinstance(fault, ReductionFault)
        assert fault.persistent and fault.factor == 1e6

    def test_parse_bare_kind(self):
        assert isinstance(parse_fault_spec("nan_rhs"), RHSFault)

    def test_parse_errors(self):
        for bad in ("", "warp", "halo:rank", "halo:=3"):
            with pytest.raises(FaultInjectionError):
                parse_fault_spec(bad)
        with pytest.raises(FaultInjectionError):
            make_fault("halo", warp_factor=2)
        with pytest.raises(FaultInjectionError):
            make_fault("halo", at=0)

    def test_describe_mentions_kind(self):
        for spec in ("halo", "reduction", "eigenbounds", "nan_rhs"):
            fault = parse_fault_spec(spec)
            assert fault.kind.split("_")[0] in fault.describe()
