"""In-solve fault tolerance: rank loss, silent corruption, recovery.

The contract under test (ISSUE 10): a solve armed with a
:class:`~repro.parallel.resilience.ResiliencePolicy` survives the loss
of a rank's block state (recovered from its buddy replica) and silent
data corruption (detected by the ABFT checks and rolled back to the
last verified replica) **without a global restart**, and the recovered
run is *bit-identical* to an undisturbed solve of the same problem on
the same engine.  Failures that exhaust the rollback budget -- or runs
with no resilience armed at all -- must still surface as a structured
:class:`~repro.solvers.health.SolverDiagnosis`, never a silent wrong
answer.
"""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointPolicy
from repro.core.errors import ConvergenceError, SolverError
from repro.grid import test_config as make_test_config
from repro.operators import apply_stencil
from repro.parallel import (
    BitflipFault,
    FaultInjectionError,
    RankDeathFault,
    ReductionFault,
    ResiliencePolicy,
    VirtualMachine,
    buddy_of,
    decompose,
    make_fault,
    parse_fault_spec,
)
from repro.parallel.faults import FaultInjector
from repro.parallel.resilience import ResilienceRuntime, SDCDetectedError
from repro.precond import make_preconditioner
from repro.solvers import (
    BREAKDOWN,
    NONFINITE_RESIDUAL,
    RANK_LOST,
    SDC_DETECTED,
    ChronGearSolver,
    DistributedContext,
    PCSISolver,
    PipeCGSolver,
    SerialContext,
)
from repro.solvers.capcg import CAPCGSolver

#: A flipped exponent bit breeds astronomically large intermediates on
#: their way to the ABFT check that kills them -- the overflow warnings
#: are part of the scenario, not a defect.
pytestmark = pytest.mark.filterwarnings(
    "ignore::RuntimeWarning")

ENGINES = ("perrank", "batched")

#: Kinds an unprotected NaN-class corruption may surface as.
NAN_KINDS = (BREAKDOWN, NONFINITE_RESIDUAL)


@pytest.fixture(scope="module")
def config():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def decomp(config):
    return decompose(config.ny, config.nx, 4, 4, mask=config.mask)


def _rhs(config, seed=1):
    rng = np.random.default_rng(seed)
    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


def _rhs_batch(config, seeds=(1, 2, 3)):
    return np.stack([_rhs(config, seed) for seed in seeds], axis=-1)


def _make_solver(engine, config, decomp, solver_cls=ChronGearSolver,
                 faults=(), **kwargs):
    vm = VirtualMachine(decomp, mask=config.mask, engine=engine,
                        faults=list(faults))
    pre = make_preconditioner("diagonal", config.stencil, decomp=decomp)
    ctx = DistributedContext(config.stencil, pre, vm)
    kwargs.setdefault("tol", 1e-10)
    kwargs.setdefault("max_iterations", 3000)
    if solver_cls is PCSISolver:
        kwargs.setdefault("max_recoveries", 0)
    if solver_cls in (PCSISolver, CAPCGSolver):
        kwargs.setdefault("eig_bounds", (0.05, 2.5))
    return solver_cls(ctx, **kwargs)


def _assert_recovered_identical(result, reference, kinds=()):
    """A resilient faulted run matches the clean reference bit-for-bit
    and its summary records the expected recovery kinds."""
    assert result.converged
    assert np.array_equal(np.asarray(result.x), np.asarray(reference.x))
    summary = result.extra["resilience"]
    assert summary["counters"]["rollbacks"] >= 1
    recovered_kinds = {doc["kind"] for doc in summary["recoveries"]}
    for kind in kinds:
        assert kind in recovered_kinds
    for doc in summary["recoveries"]:
        assert doc["recovered"]
        assert doc["iteration"] >= doc["data"]["resumed_from_iteration"]
    return summary


class TestPrimitives:
    def test_buddy_of_is_distant_and_total(self):
        n = 16
        buddies = [buddy_of(rank, n) for rank in range(n)]
        assert all(0 <= b < n and b != r
                   for r, b in enumerate(buddies))
        # the buddy lives a "far" stride away -- a whole node failure
        # (consecutive ranks) never takes a replica down with its owner
        assert all(abs(b - r) % n in (n // 2,)
                   for r, b in enumerate(buddies))

    def test_buddy_of_degenerate_single_rank(self):
        assert buddy_of(0, 1) == 0

    def test_policy_from_any(self):
        default = ResiliencePolicy.from_any(True)
        assert default.abft and default.replicate_every > 0
        custom = ResiliencePolicy.from_any(
            {"replicate_every": 5, "abft": False, "max_rollbacks": 2})
        assert custom.replicate_every == 5
        assert not custom.abft
        assert custom.max_rollbacks == 2
        assert ResiliencePolicy.from_any(custom) is custom
        roundtrip = ResiliencePolicy.from_any(custom.to_dict())
        assert roundtrip.to_dict() == custom.to_dict()

    def test_policy_from_any_rejects_garbage(self):
        with pytest.raises(SolverError):
            ResiliencePolicy.from_any("yes please")
        with pytest.raises(SolverError):
            ResiliencePolicy.from_any({"no_such_knob": 1})

    def test_policy_rejects_degenerate_values(self):
        # A non-positive tolerance makes every check fail and burns the
        # rollback budget replaying healthy state; a zero interval
        # would capture at every boundary.  All rejected up front.
        for bad in ({"replicate_every": 0}, {"abft_every": 0},
                    {"max_rollbacks": -1}, {"rowsum_tol": 0.0},
                    {"crosscheck_tol": -1.0}):
            with pytest.raises(SolverError):
                ResiliencePolicy.from_any(bad)

    def test_make_fault_rejects_unknown_keys(self):
        with pytest.raises(FaultInjectionError, match="bogus"):
            make_fault("rank_death", rank=2, bogus=1)
        with pytest.raises(FaultInjectionError, match="wobble"):
            make_fault("bitflip", target="halo", wobble=3)
        with pytest.raises(FaultInjectionError, match="entry_typo"):
            make_fault("reduction", rank=0, entry_typo=4)

    def test_parse_fault_spec_rejects_unknown_keys(self):
        with pytest.raises(FaultInjectionError, match="bogus"):
            parse_fault_spec("rank_death:rank=2,bogus=12")
        fault = parse_fault_spec("bitflip:target=halo,rank=1,at=9")
        assert isinstance(fault, BitflipFault)
        assert fault.rank == 1

    def test_resilience_requires_vm_engine(self, config, decomp):
        pre = make_preconditioner("diagonal", config.stencil)
        solver = ChronGearSolver(SerialContext(config.stencil, pre),
                                 tol=1e-10, max_iterations=3000)
        with pytest.raises(SolverError):
            solver.solve(_rhs(config), resilience=True)


@pytest.mark.parametrize("engine", ENGINES)
class TestUnprotectedFaultsDiagnosed:
    """Without a resilience policy, injected faults must never produce
    a silent wrong answer."""

    def test_rank_death_diagnosed(self, config, decomp, engine):
        solver = _make_solver(engine, config, decomp,
                              faults=[RankDeathFault(rank=5, at=9)])
        with pytest.raises(ConvergenceError) as err:
            solver.solve(_rhs(config))
        assert err.value.diagnosis.kind in NAN_KINDS

    def test_iterate_bitflip_diagnosed(self, config, decomp, engine):
        fault = BitflipFault(target="iterate", rank=2, at=16)
        solver = _make_solver(engine, config, decomp, faults=[fault])
        with pytest.raises(ConvergenceError) as err:
            solver.solve(_rhs(config))
        assert fault.fired == 1
        assert err.value.diagnosis.kind in NAN_KINDS


@pytest.mark.parametrize("engine", ENGINES)
class TestRecovery:
    """Armed solves recover bit-identically from every fault class."""

    def test_clean_run_is_bit_identical_and_free_of_rollbacks(
            self, config, decomp, engine):
        b = _rhs(config)
        reference = _make_solver(engine, config, decomp).solve(b)
        result = _make_solver(engine, config, decomp).solve(
            b, resilience=True)
        assert np.array_equal(result.x, reference.x)
        summary = result.extra["resilience"]
        assert summary["counters"]["rollbacks"] == 0
        assert summary["counters"]["replications"] > 0
        assert summary["counters"]["halo_checks"] > 0
        assert summary["counters"]["rowsum_checks"] > 0
        assert summary["counters"]["residual_crosschecks"] > 0
        assert not summary["recoveries"]

    def test_rank_death_recovers(self, config, decomp, engine):
        b = _rhs(config)
        reference = _make_solver(engine, config, decomp).solve(b)
        fault = RankDeathFault(rank=5, at=9)
        result = _make_solver(engine, config, decomp,
                              faults=[fault]).solve(b, resilience=True)
        assert fault.fired == 1
        summary = _assert_recovered_identical(result, reference,
                                              kinds=(RANK_LOST,))
        assert summary["counters"]["rank_deaths"] == 1
        doc = summary["recoveries"][0]
        assert doc["data"]["rank"] == 5
        # the replica came from the buddy, not the dead rank itself
        assert buddy_of(5, 16) != 5

    def test_halo_bitflip_detected(self, config, decomp, engine):
        # A flipped halo word may be numerically inert (a land-masked
        # neighbor) -- the checksum must catch the corrupt delivery
        # regardless, and the repaired run still matches bit-for-bit.
        b = _rhs(config)
        reference = _make_solver(engine, config, decomp).solve(b)
        fault = BitflipFault(target="halo", rank=1, at=9)
        result = _make_solver(engine, config, decomp,
                              faults=[fault]).solve(b, resilience=True)
        assert fault.fired == 1
        summary = _assert_recovered_identical(result, reference,
                                              kinds=(SDC_DETECTED,))
        assert summary["counters"]["sdc_detected"] >= 1

    def test_iterate_bitflip_recovers(self, config, decomp, engine):
        b = _rhs(config)
        reference = _make_solver(engine, config, decomp).solve(b)
        fault = BitflipFault(target="iterate", rank=2, at=16)
        result = _make_solver(engine, config, decomp,
                              faults=[fault]).solve(b, resilience=True)
        assert fault.fired == 1
        summary = _assert_recovered_identical(result, reference,
                                              kinds=(SDC_DETECTED,))
        assert summary["counters"]["sdc_detected"] >= 1

    def test_recovery_cost_lands_in_resilience_phase(
            self, config, decomp, engine):
        b = _rhs(config)
        fault = RankDeathFault(rank=5, at=9)
        result = _make_solver(engine, config, decomp,
                              faults=[fault]).solve(b, resilience=True)
        counts = result.events.get("resilience")
        assert counts is not None
        assert counts.flops > 0 or counts.halo_words > 0

    def test_rowsum_built_once_per_context(self, monkeypatch, config,
                                           decomp, engine):
        """The row-sum check's ``A 1`` is built by a context's first
        guarded solve and only read by the next: one raw exchange fewer
        than two solves that each build it (on the batched engine, the
        only one), and the same ``x``, ledgers and counters (its flops
        are charged once per solve either way)."""
        def two_solves(rebuild):
            ctx = _make_solver(engine, config, decomp).context
            builds = []
            plain = ctx.vm.exchanger.exchange_via_global

            def counted(field):
                builds.append(field)
                return plain(field)

            monkeypatch.setattr(ctx.vm.exchanger, "exchange_via_global",
                                counted)
            results = []
            for seed in (1, 2):
                if rebuild:
                    ctx.abft_rowsum = None
                solver = ChronGearSolver(ctx, tol=1e-10,
                                         max_iterations=3000)
                results.append(solver.solve(_rhs(config, seed),
                                            resilience=True))
            return results, len(builds)

        shared, built = two_solves(rebuild=False)
        rebuilt, built_twice = two_solves(rebuild=True)
        assert built_twice == built + 1
        if engine == "batched":
            assert built == 1
        for got, ref in zip(shared, rebuilt):
            assert np.array_equal(got.x, ref.x)
            assert got.events == ref.events
            assert got.setup_events == ref.setup_events
            assert (got.extra["resilience"]["counters"]
                    == ref.extra["resilience"]["counters"])

    def test_chaos_matrix_with_checkpoint_resume(
            self, tmp_path, config, decomp, engine):
        """Rank death AND a bitflip in one run, checkpointing through
        the recoveries; resuming the checkpoint stays bit-identical."""
        b = _rhs(config)
        reference = _make_solver(engine, config, decomp).solve(b)
        policy = CheckpointPolicy(str(tmp_path / engine), every=25)
        faults = [RankDeathFault(rank=5, at=9),
                  BitflipFault(target="iterate", rank=2, at=16)]
        result = _make_solver(engine, config, decomp, faults=faults) \
            .solve(b, checkpoint=policy, resilience=True)
        summary = _assert_recovered_identical(
            result, reference, kinds=(RANK_LOST, SDC_DETECTED))
        assert summary["counters"]["rollbacks"] >= 2
        assert policy.written

        resumed = _make_solver(engine, config, decomp).solve(
            b, resume_from=policy.written[0], resilience=True)
        assert resumed.converged
        assert np.array_equal(resumed.x, reference.x)

    def test_rollback_budget_exhaustion_is_diagnosed(
            self, config, decomp, engine):
        # A persistent fault defeats rollback: each replay dies again,
        # and the exhausted budget must surface as a structured
        # diagnosis, not an infinite retry loop.
        b = _rhs(config)
        fault = BitflipFault(target="iterate", rank=2, at=16,
                             persistent=True)
        solver = _make_solver(engine, config, decomp, faults=[fault])
        with pytest.raises(ConvergenceError) as err:
            solver.solve(
                b, resilience={"max_rollbacks": 2, "abft": True})
        diagnosis = err.value.diagnosis
        assert diagnosis.kind in (SDC_DETECTED,) + NAN_KINDS
        if diagnosis.kind == SDC_DETECTED:
            assert diagnosis.data["rollbacks"] == 2


class _InteriorNaN(FaultInjector):
    """A NaN in resident state: an interior cell on a block edge, so
    the *next* exchange delivers it into a neighbour's halo ring."""

    kind = "interior_nan"

    def on_exchange(self, field, count, vm):
        if self._fires(count):
            h = field.decomp.halo_width
            field.local(5)[h, h + 3] = np.nan


@pytest.mark.parametrize("solver_cls", [PCSISolver, PipeCGSolver])
def test_nonfinite_ring_is_not_a_halo_mismatch(config, decomp, solver_cls):
    # NaN != NaN: a ring that is already non-finite when it is sent
    # used to fail its own checksum on delivery, so the rollback budget
    # went on a false ``halo_checksum`` suspect and the solve ended as
    # SDC_DETECTED.  The compare is NaN-aware: the non-finite checks
    # own this failure.  (``abft_every`` keeps the row-sum check out.)
    b = _rhs(config)
    policy = {"max_rollbacks": 2, "abft": True, "abft_every": 10 ** 6}
    solver = _make_solver("batched", config, decomp, solver_cls=solver_cls,
                          faults=[_InteriorNaN(at=16, persistent=True)])
    with pytest.raises(ConvergenceError) as err:
        solver.solve(b, resilience=policy)
    assert err.value.diagnosis.kind in NAN_KINDS
    # One-shot: recovered, and what flagged it was not the checksum.
    reference = _make_solver("batched", config, decomp,
                             solver_cls=solver_cls).solve(b)
    result = _make_solver(
        "batched", config, decomp, solver_cls=solver_cls,
        faults=[_InteriorNaN(at=16)]).solve(b, resilience=policy)
    summary = _assert_recovered_identical(result, reference)
    assert all(doc["data"]["check"] in NAN_KINDS
               for doc in summary["recoveries"])


class TestMultiRHS:
    def test_batched_multi_rhs_recovers(self, config, decomp):
        B = _rhs_batch(config)
        reference = _make_solver("batched", config, decomp).solve(B)
        faults = [BitflipFault(target="iterate", rank=2, at=16),
                  RankDeathFault(rank=5, at=30)]
        result = _make_solver("batched", config, decomp,
                              faults=faults).solve(B, resilience=True)
        summary = _assert_recovered_identical(
            result, reference, kinds=(RANK_LOST, SDC_DETECTED))
        assert summary["counters"]["rank_deaths"] == 1
        assert summary["counters"]["sdc_detected"] >= 1
        assert result.extra["per_rhs_converged"] == [True] * 3


    def test_crosscheck_after_columns_retire(self, config, decomp):
        """Columns 1 and 0/2 converge at 70 and 80: the cross-checks
        after the first retirement run on a batch of two, then one --
        each column's drift against its own ``||b||``, the batch's
        first reduction of ``b`` reused -- and the guarded batch ends
        as the unguarded one, with no rollback."""
        y, x = np.indices(config.shape)
        smooth = apply_stencil(config.stencil, np.sin(y / 10.0)
                               * np.cos(x / 12.0) * config.mask)
        B = np.stack([smooth, _rhs(config), 3.0 * smooth], axis=-1)
        reference = _make_solver("batched", config, decomp).solve(B)
        result = _make_solver("batched", config, decomp).solve(
            B, resilience=True)
        assert result.extra["per_rhs_iterations"] == [80, 70, 80]
        assert np.array_equal(result.x, reference.x)
        counters = result.extra["resilience"]["counters"]
        assert counters["residual_crosschecks"] == 7
        assert counters["rollbacks"] == 0

    def test_crosscheck_bounds_each_column_by_its_own_b(self, config,
                                                        decomp):
        """Three columns, ``||b||`` a thousand times apart, then column
        2 alone: a drift within column 2's bound passes although it is
        far past column 0's, one past it is detected, and neither call
        reduces ``b`` again."""
        solver = _make_solver("batched", config, decomp)
        ctx = solver.context
        runtime = ResilienceRuntime(ResiliencePolicy(), ctx)
        B = np.stack([1e-3 * _rhs(config), _rhs(config, seed=2),
                      1e3 * _rhs(config, seed=3)], axis=-1)
        b = ctx.from_global(B)
        x = ctx.from_global(np.zeros_like(B))
        norms = ctx.norm2(b)
        runtime.crosscheck_residual({"b": b, "x": x, "r": ctx.copy(b)},
                                    np.arange(3))
        bound = runtime.policy.crosscheck_tol * (norms[2] + 1.0)
        assert bound > 1e3 * runtime.policy.crosscheck_tol * (norms[0] + 1.0)
        alone = {name: ctx.compact(v, [2]) for name, v in
                 (("b", b), ("x", x), ("r", b))}
        ledger = ctx.ledger
        for drift, fails in ((0.5 * bound, False), (2.0 * bound, True)):
            alone["r"] = ctx.copy(alone["b"])
            alone["r"].interior(5)[2, 3, 0] += drift
            before = ledger.counts("resilience").allreduces
            if fails:
                with pytest.raises(SDCDetectedError):
                    runtime.crosscheck_residual(alone, np.array([2]))
            else:
                runtime.crosscheck_residual(alone, np.array([2]))
            # the drift norm's reduction, none for ``b``
            assert ledger.counts("resilience").allreduces == before + 1
        assert runtime.counters["residual_crosschecks"] == 3


class TestCAPCGGramPoison:
    """The batched-Gram reduction of CA-PCG is fault-injectable: a
    poisoned ``dot_block`` partial must reach the reduced Gram matrix
    (regression: the sums used to be taken before the fault hooks)."""

    def test_poisoned_gram_diagnosed(self, config, decomp):
        fault = ReductionFault(rank=0, at=3, entry=0)
        solver = _make_solver("perrank", config, decomp, CAPCGSolver,
                              faults=[fault], max_recoveries=0)
        with pytest.raises(ConvergenceError) as err:
            solver.solve(_rhs(config))
        assert fault.fired == 1
        assert err.value.diagnosis.kind in NAN_KINDS

    def test_poisoned_gram_epoch_recovery(self, config, decomp):
        # CA-PCG's own spectral recovery: the breakdown is recorded as
        # a structured diagnosis and the restarted epochs re-converge.
        fault = ReductionFault(rank=0, at=3, entry=0)
        solver = _make_solver("perrank", config, decomp, CAPCGSolver,
                              faults=[fault])
        result = solver.solve(_rhs(config))
        assert fault.fired == 1
        assert result.converged
        assert result.extra["recoveries"] >= 1
        kinds = [d["kind"] for d in result.extra["recovery_diagnoses"]]
        assert BREAKDOWN in kinds

    def test_poisoned_gram_resilient_rollback(self, config, decomp):
        b = _rhs(config)
        reference = _make_solver("perrank", config, decomp,
                                 CAPCGSolver).solve(b)
        fault = ReductionFault(rank=0, at=3, entry=0)
        solver = _make_solver("perrank", config, decomp, CAPCGSolver,
                              faults=[fault], max_recoveries=0)
        result = solver.solve(b, resilience=True)
        assert fault.fired == 1
        _assert_recovered_identical(result, reference,
                                    kinds=(SDC_DETECTED,))
