"""Engine conformance: batched == per-rank on every decomposition.

``engine="auto"`` always resolves to the batched (structure-of-arrays)
engine; ``engine="perrank"`` is the oracle it is held to.  The suite
draws decompositions ``decompose()`` can build -- uniform, ragged,
land-eliminated and both at once -- together with a solver,
preconditioner, kernel backend and RHS width, and requires the two
engines to agree bit for bit: solution, residual history, loop and
set-up event ledgers, per-RHS bookkeeping.  Fixed cases then cover the
guarded paths (injected faults, checkpoint/resume across engines,
resilient recovery) on a ragged, land-eliminated decomposition, where
the stacked layout carries pad cells that nothing may read.

One more drawn case covers the guarded loop itself: solver x width x
context x checkpoint iteration x fault.  A single right-hand side must
be the width-1 batch, and a resumed or rolled-back solve must be the
uninterrupted one.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import CheckpointPolicy
from repro.core.errors import ConvergenceError
from repro.grid import (
    GridConfig,
    Topography,
    build_stencil,
    earthlike_topography,
    mass_coefficient,
    pop_1deg,
    uniform_metrics,
)
from repro.grid import test_config as make_test_config
from repro.kernels.native import load as load_native
from repro.operators import BlockedOperator, apply_stencil
from repro.parallel import (
    BitflipFault,
    HaloFault,
    RankDeathFault,
    ReductionFault,
    ResiliencePolicy,
    VirtualMachine,
    decompose,
    decomposition_for_core_count,
)
from repro.parallel.resilience import ResilienceRuntime
from repro.precond import Preconditioner, make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    RANK_LOST,
    SDC_DETECTED,
    DistributedContext,
    SerialContext,
    make_solver,
)

#: Flipped exponent bits and injected Inf values overflow on their way
#: to the guard that catches them; that is the scenario, not a defect.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

ENGINES = ("perrank", "batched")
SOLVERS = ("pcsi", "chrongear", "pcg")
PRECONDS = ("identity", "diagonal", "evp", "block_lu")


def _config_with_land_blocks(ny, nx, mby, mbx, land_blocks, seed):
    """An earthlike grid with whole lattice blocks sunk into land."""
    metrics = uniform_metrics(ny, nx)
    topo = earthlike_topography(ny, nx, seed=seed, land_fraction=0.3,
                                lat=metrics.lat)
    depth = topo.depth.copy()
    lattice = decompose(ny, nx, mby, mbx)
    for index in land_blocks:
        depth[lattice.blocks[index].slices] = 0.0
    topo = Topography(depth=depth, mask=depth > 0)
    dt = 1800.0
    stencil = build_stencil(metrics, topo, mass_coefficient(dt))
    return GridConfig(name=f"conformance_{ny}x{nx}", metrics=metrics,
                      topo=topo, stencil=stencil, dt=dt, steps_per_day=48)


def _rhs(config, seed=1, nrhs=None):
    rng = np.random.default_rng(seed)
    cols = [apply_stencil(config.stencil,
                          rng.standard_normal(config.shape) * config.mask)
            for _ in range(nrhs or 1)]
    return cols[0] if nrhs is None else np.stack(cols, axis=-1)


def _solver(engine, config, decomp, solver="chrongear", precond="diagonal",
            kernels=None, faults=(), **kwargs):
    vm = VirtualMachine(decomp, mask=config.mask, engine=engine,
                        faults=list(faults))
    assert vm.engine == engine
    if precond == "evp":
        pre = evp_for_config(config, decomp=decomp, kernels=kernels)
    else:
        pre = make_preconditioner(precond, config.stencil, decomp=decomp,
                                  kernels=kernels)
    ctx = DistributedContext(config.stencil, pre, vm, kernels=kernels)
    kwargs.setdefault("tol", 1e-10)
    kwargs.setdefault("max_iterations", 3000)
    return make_solver(solver, ctx, **kwargs)


def _strip_timing(extra):
    """``result.extra`` without the one wall-clock field it carries."""
    extra = dict(extra)
    if "resilience" in extra:
        extra["resilience"] = {k: v for k, v in extra["resilience"].items()
                               if k != "seconds"}
    return extra


def _assert_identical(per, bat):
    assert np.array_equal(per.x, bat.x)
    assert per.iterations == bat.iterations
    assert per.converged == bat.converged
    assert per.residual_norm == bat.residual_norm
    assert per.residual_history == bat.residual_history
    assert per.events == bat.events
    assert per.setup_events == bat.setup_events
    assert _strip_timing(per.extra) == _strip_timing(bat.extra)


# ----------------------------------------------------------------------
# drawn decompositions x solver configurations
# ----------------------------------------------------------------------
@st.composite
def _cases(draw):
    mby = draw(st.integers(1, 4))
    mbx = draw(st.integers(1, 5))
    halo = draw(st.integers(1, 3))
    ny = draw(st.integers(16, 40))
    nx = draw(st.integers(16, 48))
    assume(ny // mby >= max(halo, 3) and nx // mbx >= max(halo, 3))
    land_blocks = draw(st.sets(st.integers(0, mby * mbx - 1),
                               max_size=(mby * mbx) // 3))
    return dict(
        ny=ny, nx=nx, mby=mby, mbx=mbx, halo=halo,
        land_blocks=sorted(land_blocks),
        seed=draw(st.integers(0, 20)),
        solver=draw(st.sampled_from(SOLVERS)),
        precond=draw(st.sampled_from(PRECONDS)),
        kernels=draw(st.sampled_from(("numpy", "fused"))),
        nrhs=draw(st.sampled_from((None, 1, 3))),
    )


class TestDrawnConformance:
    @given(case=_cases())
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_batched_equals_perrank(self, case):
        config = _config_with_land_blocks(
            case["ny"], case["nx"], case["mby"], case["mbx"],
            case["land_blocks"], case["seed"])
        assume(config.n_ocean >= 20)
        decomp = decompose(config.ny, config.nx, case["mby"], case["mbx"],
                           mask=config.mask, halo_width=case["halo"])
        assert VirtualMachine(decomp, mask=config.mask).engine == "batched"
        b = _rhs(config, seed=case["seed"], nrhs=case["nrhs"])
        results = [
            _solver(engine, config, decomp, case["solver"], case["precond"],
                    kernels=case["kernels"], tol=1e-9, max_iterations=400,
                    raise_on_failure=False).solve(b)
            for engine in ENGINES
        ]
        _assert_identical(*results)

    @given(ny=st.integers(8, 40), nx=st.integers(8, 40),
           mby=st.integers(1, 5), mbx=st.integers(1, 5),
           nrhs=st.sampled_from((None, 2)), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_primitives_ignore_pad_cells(self, ny, nx, mby, mbx, nrhs,
                                         seed):
        """Exchange, matvec, reductions, gather and the ABFT checksums
        give per-rank answers with every pad cell poisoned to NaN."""
        assume(ny // mby >= 2 and nx // mbx >= 2)
        rng = np.random.default_rng(seed)
        mask = rng.random((ny, nx)) > 0.2
        decomp = decompose(ny, nx, mby, mbx, mask=mask)
        config = make_test_config(ny, nx, aquaplanet=True)
        h = decomp.halo_width
        trailing = () if nrhs is None else (nrhs,)
        ga = rng.standard_normal((ny, nx) + trailing)
        gb = rng.standard_normal((ny, nx) + trailing)
        out = {}
        for engine in ENGINES:
            vm = VirtualMachine(decomp, mask=mask, engine=engine)
            a, b = vm.scatter(ga), vm.scatter(gb)
            if engine == "batched":
                pad = np.ones(a.stack.shape[:3], dtype=bool)
                for rank, block in enumerate(decomp.active_blocks):
                    pad[rank, :block.ny + 2 * h, :block.nx + 2 * h] = False
                a.stack[pad] = np.nan
                b.stack[pad] = np.nan
            dots = (vm.global_dot(a, b), vm.global_dot_pair(a, a, a, b))
            vm.exchange(a)
            if engine == "batched":
                assert not np.isnan(a.stack).any()
                b.stack[pad] = np.nan
            ax = vm.zeros(nrhs=nrhs)
            BlockedOperator(config.stencil, decomp).apply(a, ax)
            pre = make_preconditioner("diagonal", config.stencil,
                                      decomp=decomp)
            runtime = ResilienceRuntime(
                ResiliencePolicy(), DistributedContext(config.stencil, pre,
                                                       vm))
            out[engine] = dict(
                dots=dots, halos=[loc.copy() for loc in a.locals_],
                ax=vm.gather(ax), b=vm.gather(b),
                rings=runtime.ring_checksums(a))
        per, bat = out["perrank"], out["batched"]
        assert np.array_equal(per["dots"][0], bat["dots"][0])
        for p, q in zip(per["dots"][1], bat["dots"][1]):
            assert np.array_equal(p, q)
        for p, q in zip(per["halos"], bat["halos"]):
            assert np.array_equal(p, q)
        assert np.array_equal(per["ax"], bat["ax"])
        assert np.array_equal(per["b"], bat["b"])
        assert np.array_equal(per["rings"], bat["rings"])


# ----------------------------------------------------------------------
# the folded row layout: a batch kernel is its column calls, bit for bit
# ----------------------------------------------------------------------
@st.composite
def _batch_cases(draw):
    case = draw(_cases())
    case.update(
        nrhs=draw(st.sampled_from((1, 2, 3, 8))),
        context=draw(st.sampled_from(("serial", "batched"))),
        poison=draw(st.sampled_from((None, np.nan, np.inf))),
    )
    return case


def _primitives(ctx, x, y, alpha, beta):
    """Every multi-RHS primitive once on ``(x, y)``: results as global
    arrays (reductions stacked), plus the ledger they left."""
    x, y = ctx.from_global(x), ctx.from_global(y)
    out = {
        "matvec": ctx.to_global(ctx.matvec(x)),
        "dot": ctx.dot(x, y),
        "pair": np.asarray(ctx.dot_pair(x, y, y, y)),
        "block": ctx.dot_block([x, y], [y]),
        "norm": ctx.norm2(x),
        "axpy": ctx.to_global(ctx.axpy(alpha, x, ctx.copy(y))),
        "xpay": ctx.to_global(ctx.xpay(x, beta, ctx.copy(y))),
        "combine": ctx.to_global(ctx.combine(alpha, x, beta, ctx.copy(y))),
        "scale": ctx.to_global(ctx.scale(alpha, ctx.copy(y))),
    }
    return out, ctx.ledger.snapshot()


class TestDrawnBatchKernels:
    @given(case=_batch_cases())
    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_batch_primitives_equal_column_calls(self, case):
        """The fused backend's folded stencil, the row-tiled updates and
        the planar column dots against (a) the numpy reference (on the
        per-rank oracle when distributed) and (b) the same call on each
        column alone --
        with one column's coefficients poisoned, which must stay in
        that column."""
        config = _config_with_land_blocks(
            case["ny"], case["nx"], case["mby"], case["mbx"],
            case["land_blocks"], case["seed"])
        assume(config.n_ocean >= 20)
        decomp = decompose(config.ny, config.nx, case["mby"], case["mbx"],
                           mask=config.mask, halo_width=case["halo"])
        nrhs = case["nrhs"]
        rng = np.random.default_rng(case["seed"])
        x = rng.standard_normal(config.shape + (nrhs,))
        y = rng.standard_normal(config.shape + (nrhs,))
        alpha, beta = rng.standard_normal((2, nrhs))
        if case["poison"] is not None:
            alpha[nrhs - 1] = beta[0] = case["poison"]

        def context(engine, kernels):
            if engine == "serial":
                pre = make_preconditioner("diagonal", config.stencil)
                return SerialContext(config.stencil, pre, decomp=decomp,
                                     kernels=kernels)
            vm = VirtualMachine(decomp, mask=config.mask, engine=engine)
            pre = make_preconditioner("diagonal", config.stencil,
                                      decomp=decomp)
            return DistributedContext(config.stencil, pre, vm,
                                      kernels=kernels)

        batch, ledger = _primitives(context(case["context"], "fused"),
                                    x, y, alpha, beta)
        # Serial and distributed reductions associate differently, so
        # each context is held to the numpy reference of its own kind.
        oracle, oracle_ledger = _primitives(
            context("serial" if case["context"] == "serial" else "perrank",
                    "numpy"), x, y, alpha, beta)
        for name in batch:
            assert np.array_equal(batch[name], oracle[name],
                                  equal_nan=True), name
        assert ledger == oracle_ledger
        for j in range(nrhs):
            column, column_ledger = _primitives(
                context(case["context"], "fused"),
                np.ascontiguousarray(x[..., j]),
                np.ascontiguousarray(y[..., j]),
                float(alpha[j]), float(beta[j]))
            for name in batch:
                assert np.array_equal(batch[name][..., j], column[name],
                                      equal_nan=True), (name, j)
            # One event per batch call, nrhs-fold flops and payload.
            for phase, counts in column_ledger.items():
                wide = ledger[phase]
                assert wide.flops == nrhs * counts.flops
                assert wide.halo_exchanges == counts.halo_exchanges
                assert wide.halo_words == nrhs * counts.halo_words
                assert wide.allreduces == counts.allreduces
                assert wide.allreduce_words == nrhs * counts.allreduce_words


# ----------------------------------------------------------------------
# the guarded loop: one path for every width, resumable, recoverable
# ----------------------------------------------------------------------
@st.composite
def _guarded_cases(draw):
    return dict(
        solver=draw(st.sampled_from(SOLVERS)),
        width=draw(st.sampled_from((None, 1, 3))),
        context=draw(st.sampled_from(("serial", "batched"))),
        checkpoint_at=draw(st.integers(3, 30)),
        fault=draw(st.sampled_from((None, "rank_death", "halo",
                                    "iterate"))),
        fault_at=draw(st.integers(8, 40)),
        rank=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 20)),
    )


def _same_solve(a, b):
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations
    assert a.residual_history == b.residual_history
    assert a.extra.get("per_rhs_iterations") \
        == b.extra.get("per_rhs_iterations")


class TestDrawnGuardedLoop:
    @given(case=_guarded_cases())
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_width_one_resume_and_rollback(self, case):
        config = make_test_config(24, 32, seed=case["seed"])
        decomp = decompose(config.ny, config.nx, 2, 2, mask=config.mask)
        b = _rhs(config, seed=case["seed"], nrhs=case["width"])
        b0 = b if case["width"] is None else np.ascontiguousarray(b[..., 0])
        kwargs = dict(tol=1e-9, max_iterations=400, raise_on_failure=False)

        def build(faults=()):
            if case["context"] == "batched":
                return _solver("batched", config, decomp, case["solver"],
                               faults=faults, **kwargs)
            pre = make_preconditioner("diagonal", config.stencil)
            return make_solver(case["solver"],
                               SerialContext(config.stencil, pre), **kwargs)

        probe = build()
        one = probe.solve(b0)
        if hasattr(probe, "eig_bounds"):
            # Pin the interval: later runs skip the Lanczos estimation,
            # so fault rounds count loop exchanges only.
            kwargs["eig_bounds"] = probe.eig_bounds
            one = build().solve(b0)

        # (a) a single right-hand side is the width-1 batch.
        wide = build().solve(b0[..., None])
        assert np.array_equal(wide.x[..., 0], one.x)
        assert wide.iterations == one.iterations
        assert wide.residual_history == one.residual_history
        assert wide.events == one.events
        assert wide.setup_events == one.setup_events

        # (b) resume and rollback reproduce the uninterrupted run.
        full = one if case["width"] is None else build().solve(b)
        with tempfile.TemporaryDirectory() as tmp:
            policy = CheckpointPolicy(tmp, every=case["checkpoint_at"],
                                      keep=0)
            build().solve(b, checkpoint=policy)
            if policy.written:
                resumed = build().solve(b, resume_from=policy.written[0])
                _same_solve(full, resumed)
                assert resumed.events == full.events
                assert resumed.setup_events == full.setup_events
        if case["fault"] is None or case["context"] != "batched":
            return
        if case["fault"] == "rank_death":
            fault = RankDeathFault(rank=case["rank"], at=case["fault_at"])
        else:
            fault = BitflipFault(target=case["fault"], rank=case["rank"],
                                 at=case["fault_at"])
        healed = build(faults=[fault]).solve(b, resilience=True)
        # The claim is about runs that rolled back and recovered.  A
        # flipped bit can also be inert or too subtle for the ABFT
        # tolerances, and one that lands in an auxiliary recurrence
        # vector -- one the residual cross-check ``b - A x`` does not
        # read -- can pass into the replica and exhaust the rollback
        # budget: a limit of the resilience layer, not of the loop.
        assume(healed.extra["resilience"]["counters"]["rollbacks"]
               and healed.diagnosis is None)
        _same_solve(full, healed)
        # Rolled-back work is re-charged to the resilience phase; every
        # other phase is exactly the uninterrupted ledger.
        assert {phase: counts for phase, counts in healed.events.items()
                if phase != "resilience"} == full.events


# ----------------------------------------------------------------------
# the benchmark lattice (BENCHMARK.json workload dist_land_pcsi_evp)
# ----------------------------------------------------------------------
class TestBenchLattice:
    def test_pcsi_evp_applies_the_stack_once_per_iteration(self):
        """One stacked EVP solve per iteration and one for the set-up --
        every engine's ring matmul that often -- and no per-rank apply:
        through ``apply_stack`` where the iterations run as calls,
        inside ``evp_step`` where the library runs them (``apply_stack``
        then serves the set-up only)."""
        config = pop_1deg(scale=0.375)
        decomp = decomposition_for_core_count(config.ny, config.nx, 48,
                                              mask=config.mask)
        assert (decomp.num_active, decomp.num_blocks) == (46, 48)
        solver = _solver("batched", config, decomp, "pcsi", "evp",
                         tol=1e-13)
        pre = solver.context.preconditioner
        calls = {"apply_stack": 0, "apply_block": 0}
        calls.update({engine: 0 for engine in pre._engines.values()})
        for owner, name in [(pre, "apply_stack"), (pre, "apply_block")] + [
                (engine, "ring_rows") for engine in pre._engines.values()]:
            def counted(*args, _key=name if owner is pre else owner,
                        _inner=getattr(owner, name), **kwargs):
                calls[_key] += 1
                return _inner(*args, **kwargs)
            setattr(owner, name, counted)
        b = _rhs(config)
        solver.solve(b)  # warm-up: Lanczos bounds, lazily stacked state
        calls.update({key: 0 for key in calls})
        result = solver.solve(b)
        assert result.converged
        fused = load_native().evp_step is not None
        assert calls.pop("apply_stack") == (1 if fused
                                            else result.iterations + 1)
        assert calls.pop("apply_block") == 0
        assert set(calls.values()) == {result.iterations + 1}


# ----------------------------------------------------------------------
# guarded paths on a ragged + land-eliminated decomposition
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def config():
    return make_test_config(37, 52, seed=1, land_fraction=0.5)


@pytest.fixture(scope="module")
def decomp(config):
    d = decompose(config.ny, config.nx, 4, 5, mask=config.mask)
    assert not d.is_uniform and d.num_active < d.num_blocks
    return d


@pytest.fixture(scope="module")
def small_rank(decomp):
    """A rank whose tile is padded in both directions of the stack."""
    bny, bnx = decomp.max_block_shape()
    return next(rank for rank, b in enumerate(decomp.active_blocks)
                if b.ny < bny and b.nx < bnx)


class TestApplyStackFallback:
    def test_base_class_loop_windows_each_rank(self, config, decomp):
        """A preconditioner that does not override ``apply_stack`` is
        applied rank by rank on exact windows of the padded stack."""
        pre = make_preconditioner("block_lu", config.stencil, decomp=decomp)
        bny, bnx = decomp.max_block_shape()
        r_stack = np.random.default_rng(5).standard_normal(
            (decomp.num_active, bny, bnx))
        looped = Preconditioner.apply_stack(pre, r_stack)
        vectorized = pre.apply_stack(r_stack)
        for rank, block in enumerate(decomp.active_blocks):
            assert np.array_equal(looped[rank, :block.ny, :block.nx],
                                  vectorized[rank, :block.ny, :block.nx])


class TestFaultDiagnosisParity:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", ["halo", "reduction"])
    @pytest.mark.parametrize("solver", ["chrongear", "pcsi"])
    def test_same_diagnosis_on_both_engines(self, config, decomp,
                                            small_rank, solver, kind,
                                            value):
        fault_cls = HaloFault if kind == "halo" else ReductionFault
        errors = []
        for engine in ENGINES:
            fault = fault_cls(rank=small_rank, value=value, at=7)
            kwargs = {"max_recoveries": 0} if solver == "pcsi" else {}
            with pytest.raises(ConvergenceError) as err:
                _solver(engine, config, decomp, solver, faults=[fault],
                        **kwargs).solve(_rhs(config))
            assert fault.fired
            errors.append(err.value)
        per, bat = errors
        assert per.diagnosis.to_dict() == bat.diagnosis.to_dict()
        assert per.result.residual_history == bat.result.residual_history
        assert per.result.events == bat.result.events


class TestCrossEngineResume:
    @pytest.mark.parametrize("writer,reader", [ENGINES, ENGINES[::-1]])
    def test_single_rhs(self, tmp_path, config, decomp, writer, reader):
        b = _rhs(config)
        full = _solver(reader, config, decomp, "pcsi", "evp").solve(b)
        policy = CheckpointPolicy(str(tmp_path), every=20)
        _solver(writer, config, decomp, "pcsi", "evp").solve(
            b, checkpoint=policy)
        assert policy.written
        resumed = _solver(reader, config, decomp, "pcsi", "evp").solve(
            b, resume_from=policy.written[0])
        _assert_identical(full, resumed)

    @pytest.mark.parametrize("writer,reader", [ENGINES, ENGINES[::-1]])
    def test_multi_rhs_after_compaction(self, tmp_path, config, decomp,
                                        writer, reader):
        b = _rhs(config, nrhs=3)
        # An exact guess for column 1 retires it at the first check, so
        # every later snapshot is taken after compaction shrank the batch.
        x0 = np.zeros_like(b)
        x0[..., 1] = _solver(reader, config, decomp, tol=1e-13).solve(
            np.ascontiguousarray(b[..., 1])).x
        full = _solver(reader, config, decomp).solve(b, x0=x0)
        assert full.extra["per_rhs_iterations"][1] \
            < min(full.extra["per_rhs_iterations"][::2])
        policy = CheckpointPolicy(str(tmp_path), every=20, keep=10)
        _solver(writer, config, decomp).solve(b, x0=x0, checkpoint=policy)
        assert len(policy.written) >= 2
        for path in policy.written:
            resumed = _solver(reader, config, decomp).solve(
                b, x0=x0, resume_from=path)
            _assert_identical(full, resumed)


class TestResilientRecovery:
    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_rank_death_and_bitflip_recover_identically(
            self, config, decomp, small_rank, nrhs):
        b = _rhs(config, nrhs=nrhs)
        reference = _solver("perrank", config, decomp).solve(b)
        results = []
        for engine in ENGINES:
            faults = [RankDeathFault(rank=small_rank, at=9),
                      BitflipFault(target="iterate", rank=small_rank,
                                   at=16),
                      BitflipFault(target="halo", rank=small_rank, at=30)]
            result = _solver(engine, config, decomp, faults=faults).solve(
                b, resilience=True)
            assert [f.fired for f in faults] == [1, 1, 1]
            assert result.converged
            assert np.array_equal(result.x, reference.x)
            kinds = {doc["kind"]
                     for doc in result.extra["resilience"]["recoveries"]}
            assert kinds == {RANK_LOST, SDC_DETECTED}
            results.append(result)
        _assert_identical(*results)
