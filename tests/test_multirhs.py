"""Multi-RHS batched solves: bit-exactness, semantics and plumbing.

The contract under test: ``solve(b)`` with a ``(ny, nx, nrhs)`` batch
runs **one** iteration loop whose per-column arithmetic stream is
bit-identical to ``nrhs`` standalone single-RHS solves on the same
engine, kernel backend and preconditioner -- while sharing every halo
exchange, stencil application and global reduction across the batch.
Columns converge (or fail) individually, with exact per-column
iteration ledgers in ``extra["per_rhs_iterations"]``.
"""

import os

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointError, CheckpointPolicy
from repro.core.errors import ConvergenceError
from repro.grid import test_config as make_test_config
from repro.kernels import resolve_kernels
from repro.parallel import VirtualMachine, decompose
from repro.parallel.faults import ReductionFault
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    CAPCGSolver,
    ChronGearSolver,
    DistributedContext,
    PCGSolver,
    PCSISolver,
    PipeCGSolver,
    SerialContext,
    SpectralBoundedSolver,
)
from repro.solvers.health import BREAKDOWN, NONFINITE_RESIDUAL
from tests.test_engine_conformance import _config_with_land_blocks

SOLVERS = {"chrongear": ChronGearSolver, "pcg": PCGSolver,
           "pcsi": PCSISolver, "pipecg": PipeCGSolver,
           "capcg": CAPCGSolver}


@pytest.fixture(scope="module")
def cfg():
    return make_test_config(24, 24, seed=7)


@pytest.fixture(scope="module")
def rhs_batch(cfg):
    rng = np.random.default_rng(42)
    mask = cfg.stencil.mask
    b = rng.standard_normal(mask.shape + (3,))
    return np.where(mask[..., None], b, 0.0)


def _make_context(cfg, engine, precond, kernels=None, decomp=None):
    if engine == "serial":
        if precond == "evp":
            pre = evp_for_config(cfg, kernels=kernels, tile_size=6)
        else:
            pre = make_preconditioner(precond, cfg.stencil,
                                      kernels=kernels)
        return SerialContext(cfg.stencil, pre, kernels=kernels)
    if precond == "evp":
        pre = evp_for_config(cfg, decomp=decomp, kernels=kernels,
                             tile_size=6)
    else:
        pre = make_preconditioner(precond, cfg.stencil, decomp=decomp,
                                  kernels=kernels)
    vm = VirtualMachine(decomp, mask=cfg.stencil.mask, engine=engine)
    return DistributedContext(cfg.stencil, pre, vm, kernels=kernels)


def _solve_batched_and_looped(cfg, rhs_batch, solver_name, engine,
                              precond, kernels=None):
    """One batched solve and the per-column single solves, on fresh
    contexts each (identical streams)."""
    decomp = None
    if engine != "serial":
        decomp = decompose(24, 24, 2, 2, mask=cfg.stencil.mask)
    cls = SOLVERS[solver_name]

    def build(**kw):
        ctx = _make_context(cfg, engine, precond, kernels=kernels,
                            decomp=decomp)
        return cls(ctx, tol=1e-12, max_iterations=600,
                   raise_on_failure=False, **kw)

    batched = build()
    multi = batched.solve(rhs_batch)
    kw = {}
    if issubclass(cls, SpectralBoundedSolver):
        # The batch estimated its interval once; hand the identical
        # bounds to the singles, as a sequence of solves would reuse.
        kw["eig_bounds"] = batched.eig_bounds
    singles = [build(**kw).solve(rhs_batch[..., j])
               for j in range(rhs_batch.shape[2])]
    return multi, singles


class TestBatchedBitExactness:
    """Batched == looped, bit for bit, across the whole stack."""

    @pytest.mark.parametrize("solver_name", sorted(SOLVERS))
    @pytest.mark.parametrize("engine", ["serial", "batched", "perrank"])
    def test_solvers_and_engines(self, cfg, rhs_batch, solver_name,
                                 engine):
        multi, singles = _solve_batched_and_looped(
            cfg, rhs_batch, solver_name, engine, "diagonal")
        for j, single in enumerate(singles):
            assert (multi.x[..., j] == single.x).all()
            assert multi.extra["per_rhs_iterations"][j] == \
                single.iterations
            assert multi.extra["per_rhs_converged"][j] == single.converged
            assert multi.extra["per_rhs_residual_norm"][j] == \
                single.residual_norm

    @pytest.mark.parametrize("precond", ["identity", "diagonal",
                                         "block_lu", "evp"])
    def test_preconditioners(self, cfg, rhs_batch, precond):
        multi, singles = _solve_batched_and_looped(
            cfg, rhs_batch, "chrongear", "batched", precond)
        for j, single in enumerate(singles):
            assert (multi.x[..., j] == single.x).all()

    @pytest.mark.parametrize("kernels", ["numpy", "fused"])
    def test_kernel_backends(self, cfg, rhs_batch, kernels):
        backend = resolve_kernels(kernels)
        multi, singles = _solve_batched_and_looped(
            cfg, rhs_batch, "pcsi", "batched", "evp", kernels=backend)
        for j, single in enumerate(singles):
            assert (multi.x[..., j] == single.x).all()

    def test_list_of_fields_input(self, cfg, rhs_batch):
        ctx = _make_context(cfg, "serial", "diagonal")
        solver = ChronGearSolver(ctx, tol=1e-12, max_iterations=600,
                                 raise_on_failure=False)
        as_list = solver.solve([rhs_batch[..., j]
                                for j in range(rhs_batch.shape[2])])
        as_array = ChronGearSolver(
            _make_context(cfg, "serial", "diagonal"), tol=1e-12,
            max_iterations=600, raise_on_failure=False).solve(rhs_batch)
        assert (as_list.x == as_array.x).all()


class TestRaggedConvergence:
    """Columns converge individually; finished work stops early."""

    def test_per_rhs_iterations_ragged(self, cfg, rhs_batch):
        # Give column 1 an exact initial guess: it must converge at the
        # first check while the others keep iterating.
        pre_solver = ChronGearSolver(
            _make_context(cfg, "serial", "diagonal"), tol=1e-13,
            max_iterations=600, raise_on_failure=False)
        exact = pre_solver.solve(rhs_batch[..., 1]).x
        x0 = np.zeros_like(rhs_batch)
        x0[..., 1] = exact
        solver = ChronGearSolver(
            _make_context(cfg, "serial", "diagonal"), tol=1e-12,
            max_iterations=600, raise_on_failure=False)
        res = solver.solve(rhs_batch, x0=x0)
        iters = res.extra["per_rhs_iterations"]
        assert res.converged
        assert iters[1] == solver.check_freq
        assert iters[0] > iters[1] and iters[2] > iters[1]
        # Still bit-identical to singles started from the same guesses.
        for j in range(rhs_batch.shape[2]):
            single = ChronGearSolver(
                _make_context(cfg, "serial", "diagonal"), tol=1e-12,
                max_iterations=600, raise_on_failure=False).solve(
                    rhs_batch[..., j], x0=x0[..., j])
            assert (res.x[..., j] == single.x).all()
            assert iters[j] == single.iterations

    def test_zero_rhs_column_exits_at_zero(self, cfg, rhs_batch):
        b = rhs_batch.copy()
        b[..., 1] = 0.0
        solver = ChronGearSolver(
            _make_context(cfg, "serial", "diagonal"), tol=1e-12,
            max_iterations=600, raise_on_failure=False)
        res = solver.solve(b)
        assert res.extra["per_rhs_iterations"][1] == 0
        assert res.extra["per_rhs_converged"][1]
        assert (res.x[..., 1] == 0.0).all()
        assert res.extra["zero_rhs_columns"] == [1]

    def test_all_zero_batch(self, cfg):
        b = np.zeros(cfg.stencil.mask.shape + (3,))
        solver = ChronGearSolver(
            _make_context(cfg, "serial", "diagonal"), tol=1e-12,
            max_iterations=600)
        res = solver.solve(b)
        assert res.iterations == 0 and res.converged
        assert res.extra["zero_rhs"] is True
        assert res.extra["per_rhs_iterations"] == [0, 0, 0]


class TestEightColumnEVP:
    """ChronGear + EVP on 8 columns of the batched engine -- with the
    library, each iteration two ``evp_step`` calls over the stacks (the
    stacked gather, the width-8 march and masked scatter, the sweep of
    ``r'`` and both dots per block window) and, once a column retires,
    a width-7 working set and runner -- equals eight solo solves, on a
    ragged lattice with a land block eliminated or kept."""

    @pytest.mark.parametrize("eliminate_land", [False, True])
    def test_columns_equal_their_solo_solves(self, eliminate_land):
        config = _config_with_land_blocks(26, 22, 3, 2, [1], seed=3)
        decomp = decompose(26, 22, 3, 2, mask=config.mask,
                           eliminate_land=eliminate_land)
        assert decomp.num_active == (5 if eliminate_land else 6)
        rng = np.random.default_rng(8)
        b = np.stack([np.where(config.mask,
                               rng.standard_normal(config.shape), 0.0)
                      for _ in range(8)], axis=-1)

        def solver():
            pre = evp_for_config(config, decomp=decomp, tile_size=5)
            vm = VirtualMachine(decomp, mask=config.mask)
            return ChronGearSolver(
                DistributedContext(config.stencil, pre, vm), tol=1e-12,
                max_iterations=600, raise_on_failure=False)

        # Column 3 starts from its solution: it retires at the first
        # check and the other seven run on (compaction 8 -> 7).
        x0 = np.zeros_like(b)
        x0[..., 3] = solver().solve(b[..., 3]).x
        batch = solver().solve(b, x0=x0)
        solo = [solver().solve(b[..., j], x0=x0[..., j]) for j in range(8)]
        iterations = batch.extra["per_rhs_iterations"]
        assert iterations[3] < min(iterations[:3] + iterations[4:])
        for j, single in enumerate(solo):
            assert np.array_equal(batch.x[..., j], single.x)
            assert iterations[j] == single.iterations
            assert batch.extra["per_rhs_residual_norm"][j] == \
                single.residual_norm
        # A batch logs its worst running column per check: the largest
        # of the solo histories that reach that check.
        for k, worst in batch.residual_history:
            assert worst == max(value for single in solo
                                for at, value in single.residual_history
                                if at == k)


class TestPerColumnDiagnosis:
    """A failing column carries its own SolverDiagnosis."""

    def test_diverging_batch_reports_per_column(self, cfg, rhs_batch):
        # A Chebyshev interval far below the true spectrum diverges; the
        # multi solve must report per-column 'diverged' diagnoses that
        # match what each standalone solve produces.
        solver = PCSISolver(
            _make_context(cfg, "serial", "diagonal"),
            eig_bounds=(1e-6, 0.2), tol=1e-12, max_iterations=400,
            raise_on_failure=False, max_recoveries=0)
        res = solver.solve(rhs_batch)
        assert not res.converged
        diags = res.extra["per_rhs_diagnosis"]
        assert set(diags) == {"0", "1", "2"}
        for j in range(rhs_batch.shape[2]):
            assert diags[str(j)]["kind"] == "diverged"
            assert diags[str(j)]["data"]["column"] == j
            single = PCSISolver(
                _make_context(cfg, "serial", "diagonal"),
                eig_bounds=(1e-6, 0.2), tol=1e-12, max_iterations=400,
                raise_on_failure=False, max_recoveries=0).solve(
                    rhs_batch[..., j])
            assert single.diagnosis.kind == "diverged"
            assert (res.x[..., j] == single.x).all()
            assert res.extra["per_rhs_iterations"][j] == \
                single.iterations
        # The batch-level diagnosis is the first failing column's.
        assert res.diagnosis is not None
        assert res.diagnosis.data["column"] == 0

    def test_budget_exhaustion_per_column(self, cfg, rhs_batch):
        solver = ChronGearSolver(
            _make_context(cfg, "serial", "diagonal"), tol=1e-12,
            max_iterations=20, raise_on_failure=False)
        res = solver.solve(rhs_batch)
        assert not res.converged
        diags = res.extra["per_rhs_diagnosis"]
        for j in range(rhs_batch.shape[2]):
            assert diags[str(j)]["kind"] == "budget_exhausted"


class _TamperedSerial(SerialContext):
    """A serial context that overwrites one reduced value: the first
    value of the ``at``-th reduction (counting ``dot`` and ``dot_pair``
    calls, as the virtual machine counts reduction events), in
    ``column`` (the value itself for a 2-D solve)."""

    def __init__(self, *args, at, column, value, **kwargs):
        super().__init__(*args, **kwargs)
        self._tamper = (at, column, value)
        self._count = 0

    def _hit(self, v):
        self._count += 1
        at, column, value = self._tamper
        if self._count != at:
            return v
        if isinstance(v, np.ndarray):
            v = v.copy()
            v[column] = value
            return v
        return value

    def dot(self, a, b, phase="reduction"):
        return self._hit(super().dot(a, b, phase=phase))

    def dot_pair(self, a1, b1, a2, b2, phase="reduction"):
        v1, v2 = super().dot_pair(a1, b1, a2, b2, phase=phase)
        return self._hit(v1), v2


class TestOneAnomalyRule:
    """One anomaly rule at every width: a non-finite reduction poisons
    only its own column (a 2-D solve is one column), which the next
    check diagnoses; a vanished denominator on a live column is a
    batch-wide breakdown."""

    AT = 6          # an in-iteration reduction before the first check

    @staticmethod
    def _solve(cfg, engine, solver_name, b, column=None, value=None):
        cls = SOLVERS[solver_name]
        if engine == "serial":
            kw = {} if column is None else {
                "at": TestOneAnomalyRule.AT, "column": column,
                "value": value}
            ctx_cls = SerialContext if column is None else _TamperedSerial
            ctx = ctx_cls(cfg.stencil, make_preconditioner(
                "diagonal", cfg.stencil), **kw)
        else:
            decomp = decompose(24, 24, 2, 2, mask=cfg.stencil.mask)
            faults = []
            if column is not None:
                # The fused reduction's lists run column by column; a
                # dot_pair carries two per column, the first of them
                # the value the recurrence divides by next.
                per = 1 if solver_name == "pcg" else 2
                ranks = [0] if value != value else range(decomp.num_active)
                faults = [ReductionFault(rank=r, value=value,
                                         entry=per * column,
                                         at=TestOneAnomalyRule.AT)
                          for r in ranks]
            vm = VirtualMachine(decomp, mask=cfg.stencil.mask,
                                faults=faults)
            ctx = DistributedContext(cfg.stencil, make_preconditioner(
                "diagonal", cfg.stencil, decomp=decomp), vm)
        return cls(ctx, tol=1e-12, max_iterations=600,
                   raise_on_failure=False).solve(b)

    @staticmethod
    def _rhs(rhs_batch, width):
        return rhs_batch[..., 0] if width is None else rhs_batch[..., :width]

    @pytest.mark.parametrize("solver_name", ["chrongear", "pcg", "pipecg"])
    @pytest.mark.parametrize("engine", ["serial", "batched"])
    @pytest.mark.parametrize("width", [None, 1, 3])
    def test_nonfinite_reduction_poisons_its_column(
            self, cfg, rhs_batch, solver_name, engine, width):
        b = self._rhs(rhs_batch, width)
        column = 0 if width in (None, 1) else 1
        res = self._solve(cfg, engine, solver_name, b, column=column,
                          value=float("nan"))
        if width is None:
            assert res.diagnosis.kind == NONFINITE_RESIDUAL
            assert res.diagnosis.iteration == 10
            return
        diags = res.extra["per_rhs_diagnosis"]
        assert set(diags) == {str(column)}
        assert diags[str(column)]["kind"] == NONFINITE_RESIDUAL
        assert diags[str(column)]["iteration"] == 10
        for j in range(width):
            if j == column:
                continue
            clean = self._solve(cfg, engine, solver_name, b[..., j])
            assert clean.converged
            assert np.array_equal(res.x[..., j], clean.x)
            assert res.extra["per_rhs_iterations"][j] == clean.iterations
            assert res.extra["per_rhs_residual_norm"][j] == \
                clean.residual_norm

    @pytest.mark.parametrize("solver_name", ["chrongear", "pcg", "pipecg"])
    @pytest.mark.parametrize("engine", ["serial", "batched"])
    @pytest.mark.parametrize("width", [None, 1, 3])
    def test_vanished_denominator_is_batch_breakdown(
            self, cfg, rhs_batch, solver_name, engine, width):
        # An exact zero where the recurrence divides next, on one live
        # column: the SPD violation every width reports for the batch.
        b = self._rhs(rhs_batch, width)
        column = 0 if width in (None, 1) else 1
        res = self._solve(cfg, engine, solver_name, b, column=column,
                          value=0.0)
        assert res.diagnosis.kind == BREAKDOWN
        assert res.diagnosis.iteration < 10
        if width is not None:
            diags = res.extra["per_rhs_diagnosis"]
            assert set(diags) == {str(j) for j in range(width)}
            assert {d["kind"] for d in diags.values()} == {BREAKDOWN}


class TestBatchFailuresGetWhatScalarFailuresGet:
    """``on_failure`` snapshots, the ledger and the last finite residual
    for every failed column of a batch."""

    @staticmethod
    def _diverging(cfg):
        return PCSISolver(
            _make_context(cfg, "serial", "diagonal"),
            eig_bounds=(1e-6, 0.2), tol=1e-12, max_iterations=400,
            raise_on_failure=False, max_recoveries=0)

    def test_diverging_batch_leaves_a_resumable_snapshot(
            self, cfg, rhs_batch, tmp_path):
        policy = CheckpointPolicy(directory=str(tmp_path), every=0,
                                  on_failure=True)
        res = self._diverging(cfg).solve(rhs_batch, checkpoint=policy)
        diags = res.extra["per_rhs_diagnosis"]
        assert set(diags) == {"0", "1", "2"}
        for doc in diags.values():
            assert doc["kind"] == "diverged"
            assert doc["data"]["ledger"]["computation"]["flops"] > 0
            assert np.isfinite(doc["data"]["last_finite_residual"])
        fail_path = policy.latest()
        assert fail_path is not None and "fail" in fail_path

        resumed = self._diverging(cfg).solve(rhs_batch,
                                             resume_from=fail_path)
        assert (resumed.x == res.x).all()
        assert resumed.extra["per_rhs_iterations"] == \
            res.extra["per_rhs_iterations"]
        assert resumed.residual_history == res.residual_history
        assert {c: d["kind"] for c, d in
                resumed.extra["per_rhs_diagnosis"].items()} == \
            {c: "diverged" for c in diags}

    def test_starved_batch_resumes_under_a_larger_budget(
            self, cfg, rhs_batch, tmp_path):
        def build(budget):
            return ChronGearSolver(
                _make_context(cfg, "serial", "diagonal"), tol=1e-12,
                max_iterations=budget, raise_on_failure=False)

        policy = CheckpointPolicy(directory=str(tmp_path), every=0,
                                  on_failure=True)
        starved = build(20).solve(rhs_batch, checkpoint=policy)
        assert not starved.converged
        full = build(600).solve(rhs_batch)
        resumed = build(600).solve(rhs_batch,
                                   resume_from=policy.latest())
        assert resumed.converged
        assert (resumed.x == full.x).all()
        assert resumed.extra["per_rhs_iterations"] == \
            full.extra["per_rhs_iterations"]
        assert resumed.residual_history == full.residual_history
        assert resumed.events == full.events

    def test_failing_snapshot_does_not_mask_the_failure(
            self, cfg, rhs_batch, tmp_path):
        class BrokenDisk(CheckpointPolicy):
            def write(self, *args, **kwargs):
                raise CheckpointError("disk full")

        solver = self._diverging(cfg)
        solver.raise_on_failure = True
        with pytest.raises(ConvergenceError) as err:
            solver.solve(rhs_batch, checkpoint=BrokenDisk(
                str(tmp_path), every=0, on_failure=True))
        assert err.value.diagnosis.kind == "diverged"
        assert err.value.result.extra["per_rhs_diagnosis"]


class TestCheckpointResume:
    """A multi-RHS solve checkpoints and resumes bit-identically."""

    def test_resume_matches_uninterrupted(self, cfg, rhs_batch, tmp_path):
        # An exact guess for column 1 makes it finish first, so at least
        # one snapshot is taken *after* compaction shrank the batch.
        exact = ChronGearSolver(
            _make_context(cfg, "serial", "diagonal"), tol=1e-13,
            max_iterations=600, raise_on_failure=False).solve(
                rhs_batch[..., 1]).x
        x0 = np.zeros_like(rhs_batch)
        x0[..., 1] = exact

        policy = CheckpointPolicy(directory=str(tmp_path), every=20,
                                  keep=10)
        full = ChronGearSolver(
            _make_context(cfg, "serial", "diagonal"), tol=1e-12,
            max_iterations=600, raise_on_failure=False).solve(
                rhs_batch, x0=x0, checkpoint=policy)
        snapshots = sorted(os.listdir(tmp_path))
        assert snapshots
        for snap in snapshots:
            resumed = ChronGearSolver(
                _make_context(cfg, "serial", "diagonal"), tol=1e-12,
                max_iterations=600, raise_on_failure=False).solve(
                    rhs_batch, x0=x0,
                    resume_from=str(tmp_path / snap))
            assert (full.x == resumed.x).all()
            assert full.extra["per_rhs_iterations"] == \
                resumed.extra["per_rhs_iterations"]


class TestCacheKeying:
    """The measured-solve cache digests the full RHS batch."""

    def test_two_batches_sharing_a_column_do_not_collide(self, cfg):
        from repro.experiments.common import solve_key

        rng = np.random.default_rng(5)
        mask = cfg.stencil.mask
        batch_a = np.where(mask[..., None],
                           rng.standard_normal(mask.shape + (2,)), 0.0)
        batch_b = batch_a.copy()
        batch_b[..., 1] = np.where(
            mask, rng.standard_normal(mask.shape), 0.0)

        key = lambda b: solve_key(cfg, "chrongear", "diagonal", 1e-13,
                                  10, 600, rhs=b)
        assert key(batch_a) != key(batch_b)
        # Same content -> same key; a fresh copy must hit the cache.
        assert key(batch_a) == key(batch_a.copy())
        # And the single-RHS default key is unchanged by the new field.
        assert solve_key(cfg, "chrongear", "diagonal", 1e-13, 10, 600) \
            == solve_key(cfg, "chrongear", "diagonal", 1e-13, 10, 600)

    def test_measure_solver_caches_per_batch(self, cfg):
        from repro.core.cache import ArtifactCache
        from repro.experiments.common import measure_solver

        rng = np.random.default_rng(6)
        mask = cfg.stencil.mask
        batch_a = np.where(mask[..., None],
                           rng.standard_normal(mask.shape + (2,)), 0.0)
        batch_b = batch_a.copy()
        batch_b[..., 1] *= 2.0

        cache = ArtifactCache(cache_dir=None)
        res_a = measure_solver(cfg, "chrongear", "diagonal", tol=1e-10,
                               max_iterations=600, cache=cache,
                               rhs=batch_a)
        res_b = measure_solver(cfg, "chrongear", "diagonal", tol=1e-10,
                               max_iterations=600, cache=cache,
                               rhs=batch_b)
        assert res_a is not res_b
        assert not (res_a.x == res_b.x).all()
        # Warm hit returns the memoized object.
        assert measure_solver(cfg, "chrongear", "diagonal", tol=1e-10,
                              max_iterations=600, cache=cache,
                              rhs=batch_a) is res_a


class TestEnsembleLockstep:
    """The batched ensemble matches the sequential one bit for bit."""

    def test_batched_ensemble_bit_identical(self):
        from repro.barotropic.model import MiniPOP
        from repro.verification.ensemble import run_perturbed_ensemble

        def factory():
            config = make_test_config(16, 24, seed=11, dt=10800.0)
            pre = make_preconditioner("diagonal", config.stencil)
            solver = ChronGearSolver(
                SerialContext(config.stencil, pre), tol=1e-13,
                max_iterations=4000, raise_on_failure=False)
            return MiniPOP(config, solver, gamma_feedback=1e-7,
                           kappa=300.0, restore_days=365.0,
                           velocity_gain=1.5)

        sequential = run_perturbed_ensemble(factory, 1, size=3,
                                            days_per_month=3)
        batched = run_perturbed_ensemble(factory, 1, size=3,
                                         days_per_month=3, batched=True)
        for member_seq, member_bat in zip(sequential.members,
                                          batched.members):
            for month_seq, month_bat in zip(member_seq, member_bat):
                assert (month_seq == month_bat).all()
