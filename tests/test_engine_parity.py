"""Batched vs per-rank execution engine parity.

The batched (structure-of-arrays) engine is an execution detail: for
every solver x preconditioner combination it must produce bit-identical
iterates and an identical event-ledger stream to the per-rank reference
engine.  The hand-picked cases here run on a uniform, fully active
decomposition (the pad = 0 case of the stacked layout); ragged and
land-eliminated decompositions are drawn by
``tests/test_engine_conformance.py``.
"""

import numpy as np
import pytest

from repro.core.errors import DecompositionError
from repro.grid import test_config as make_test_config
from repro.operators import BlockedOperator, apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.parallel.halo import BlockField
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    ChronGearSolver,
    DistributedContext,
    PCGSolver,
    PCSISolver,
)

PHASES = ("computation", "preconditioning", "boundary", "reduction")


@pytest.fixture(scope="module")
def uniform_config():
    """Earthlike config whose 4x4 decomposition is uniform, no land
    blocks eliminated (all 16 blocks keep ocean points)."""
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def uniform_decomp(uniform_config):
    d = decompose(uniform_config.ny, uniform_config.nx, 4, 4,
                  mask=uniform_config.mask)
    assert d.is_uniform and d.num_active == d.num_blocks
    return d


@pytest.fixture(scope="module")
def eliminated_config():
    """Land-heavy config whose 4x4 decomposition eliminates blocks."""
    return make_test_config(32, 48, seed=1, land_fraction=0.5)


@pytest.fixture(scope="module")
def eliminated_decomp(eliminated_config):
    d = decompose(eliminated_config.ny, eliminated_config.nx, 4, 4,
                  mask=eliminated_config.mask)
    assert d.num_active < d.num_blocks
    return d


def _rhs(config, seed=1):
    rng = np.random.default_rng(seed)
    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


def _make_precond(kind, config, decomp):
    if kind == "evp":
        return evp_for_config(config, decomp=decomp)
    return make_preconditioner(kind, config.stencil, decomp=decomp)


def _solve(engine, config, decomp, solver_cls, precond_kind, **kwargs):
    vm = VirtualMachine(decomp, mask=config.mask, engine=engine)
    pre = _make_precond(precond_kind, config, decomp)
    ctx = DistributedContext(config.stencil, pre, vm)
    solver = solver_cls(ctx, tol=1e-10, max_iterations=3000, **kwargs)
    return solver.solve(_rhs(config))


class TestEngineResolution:
    def test_auto_picks_batched_on_uniform(self, uniform_config,
                                           uniform_decomp):
        vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask)
        assert vm.engine == "batched"
        assert vm.is_batched
        assert vm.zeros().is_stacked

    def test_perrank_always_available(self, uniform_config, uniform_decomp):
        vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask,
                            engine="perrank")
        assert vm.engine == "perrank"
        assert not vm.zeros().is_stacked

    def test_ragged_runs_batched(self):
        cfg = make_test_config(34, 46, seed=9)
        decomp = decompose(cfg.ny, cfg.nx, 3, 5, mask=cfg.mask)
        assert not decomp.is_uniform
        for engine in ("auto", "batched"):
            vm = VirtualMachine(decomp, mask=cfg.mask, engine=engine)
            assert vm.engine == "batched"
            assert vm.zeros().is_stacked

    def test_land_eliminated_runs_batched(self, eliminated_config,
                                          eliminated_decomp):
        for engine in ("auto", "batched"):
            vm = VirtualMachine(eliminated_decomp,
                                mask=eliminated_config.mask, engine=engine)
            assert vm.engine == "batched"
            assert vm.zeros().stack.shape[0] == eliminated_decomp.num_active

    def test_unknown_engine_rejected(self, uniform_decomp):
        with pytest.raises(DecompositionError):
            VirtualMachine(uniform_decomp, engine="gpu")

    def test_uniformity_queries(self, uniform_decomp):
        assert uniform_decomp.uniform_block_shape() == (8, 12)
        ragged = decompose(34, 46, 3, 5)
        assert not ragged.is_uniform
        with pytest.raises(DecompositionError):
            ragged.uniform_block_shape()


class TestStackedField:
    def test_locals_are_views_of_stack(self, uniform_decomp):
        field = BlockField.zeros(uniform_decomp, stacked=True)
        assert field.is_stacked
        field.stack[3, 0, 0] = 7.0
        assert field.local(3)[0, 0] == 7.0
        field.interior(2)[...] = 5.0
        assert np.all(field.interior_stack()[2] == 5.0)

    def test_copy_preserves_layout(self, uniform_decomp):
        stacked = BlockField.zeros(uniform_decomp, stacked=True).copy()
        assert stacked.is_stacked
        perrank = BlockField.zeros(uniform_decomp).copy()
        assert not perrank.is_stacked

    def test_interior_stack_requires_stacked(self, uniform_decomp):
        field = BlockField.zeros(uniform_decomp)
        with pytest.raises(DecompositionError):
            field.interior_stack()

    def test_stacked_zeros_pads_ragged(self):
        ragged = decompose(34, 46, 3, 5)
        h = ragged.halo_width
        field = BlockField.zeros(ragged, stacked=True, nrhs=2)
        bny, bnx = ragged.max_block_shape()
        assert field.stack.shape == (15, bny + 2 * h, bnx + 2 * h, 2)
        for rank, block in enumerate(ragged.active_blocks):
            local = field.local(rank)
            assert local.shape == (block.ny + 2 * h, block.nx + 2 * h, 2)
            assert np.shares_memory(local, field.stack)
            assert field.interior(rank).shape == (block.ny, block.nx, 2)
        assert field.copy().local(14).shape == field.local(14).shape


class TestPrimitiveParity:
    """Each substrate primitive, batched vs per-rank, bit for bit."""

    def _fields(self, config, decomp, engine, seed=4):
        vm = VirtualMachine(decomp, mask=config.mask, engine=engine)
        rng = np.random.default_rng(seed)
        ga = rng.standard_normal(config.shape) * config.mask
        gb = rng.standard_normal(config.shape) * config.mask
        return vm, vm.scatter(ga), vm.scatter(gb)

    def test_exchange_parity(self, uniform_config, uniform_decomp):
        vm_b, xb, _ = self._fields(uniform_config, uniform_decomp, "batched")
        vm_p, xp_, _ = self._fields(uniform_config, uniform_decomp, "perrank")
        vm_b.exchange(xb)
        vm_p.exchange(xp_)
        for rank in range(vm_p.num_ranks):
            assert np.array_equal(xb.local(rank), xp_.local(rank))

    def test_exchange_stacked_rejects_perrank_field(self, uniform_decomp):
        vm = VirtualMachine(uniform_decomp, engine="batched")
        field = BlockField.zeros(uniform_decomp)  # per-rank layout
        with pytest.raises(DecompositionError):
            vm.exchanger.exchange_stacked(field)

    def test_matvec_parity(self, uniform_config, uniform_decomp):
        op = BlockedOperator(uniform_config.stencil, uniform_decomp)
        vm_b, xb, _ = self._fields(uniform_config, uniform_decomp, "batched")
        vm_p, xp_, _ = self._fields(uniform_config, uniform_decomp, "perrank")
        vm_b.exchange(xb)
        vm_p.exchange(xp_)
        out_b = vm_b.zeros()
        out_p = vm_p.zeros()
        op.apply(xb, out_b)
        op.apply(xp_, out_p)
        for rank in range(vm_p.num_ranks):
            assert np.array_equal(out_b.interior(rank), out_p.interior(rank))

    def test_dot_parity(self, uniform_config, uniform_decomp):
        vm_b, ab, bb = self._fields(uniform_config, uniform_decomp, "batched")
        vm_p, ap, bp = self._fields(uniform_config, uniform_decomp, "perrank")
        assert vm_b.global_dot(ab, bb) == vm_p.global_dot(ap, bp)
        assert vm_b.global_dot_pair(ab, bb, bb, bb) == \
            vm_p.global_dot_pair(ap, bp, bp, bp)

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "evp",
                                      "block_lu"])
    def test_precond_apply_stack_matches_per_rank(self, uniform_config,
                                                  uniform_decomp, kind):
        pre = _make_precond(kind, uniform_config, uniform_decomp)
        rng = np.random.default_rng(11)
        bny, bnx = uniform_decomp.uniform_block_shape()
        r_stack = rng.standard_normal(
            (uniform_decomp.num_active, bny, bnx))
        batched = pre.apply_stack(r_stack)
        reference = np.empty_like(r_stack)
        for rank in range(uniform_decomp.num_active):
            pre.apply_block(rank, r_stack[rank], out=reference[rank])
        assert np.array_equal(batched, reference)


@pytest.mark.parametrize("solver_cls", [PCGSolver, ChronGearSolver,
                                        PCSISolver])
@pytest.mark.parametrize("precond", ["identity", "diagonal", "evp",
                                     "block_lu"])
class TestSolverParity:
    """Every solver x preconditioner: bit-identical iterates and
    identical event streams across engines."""

    def test_bit_identical_solve(self, uniform_config, uniform_decomp,
                                 solver_cls, precond):
        per = _solve("perrank", uniform_config, uniform_decomp,
                     solver_cls, precond)
        bat = _solve("batched", uniform_config, uniform_decomp,
                     solver_cls, precond)
        assert per.iterations == bat.iterations
        assert per.residual_norm == bat.residual_norm
        assert np.array_equal(per.x, bat.x)
        for phase in PHASES:
            assert per.events.get(phase) == bat.events.get(phase), phase
        for phase in set(per.setup_events) | set(bat.setup_events):
            assert per.setup_events.get(phase) == \
                bat.setup_events.get(phase), phase


class TestGuardrailParity:
    """The guarded convergence loop (entry checks, divergence detection,
    diagnosed failures) and the scale primitive stay bit-identical
    across engines.  Parity under *injected faults* is covered in
    ``tests/test_faults.py::TestEngineParityUnderFaults``."""

    def test_scale_primitive_parity(self, uniform_config, uniform_decomp):
        rng = np.random.default_rng(13)
        g = rng.standard_normal(uniform_config.shape) * uniform_config.mask
        outs = {}
        for engine in ("perrank", "batched"):
            vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask,
                                engine=engine)
            pre = _make_precond("diagonal", uniform_config, uniform_decomp)
            ctx = DistributedContext(uniform_config.stencil, pre, vm)
            v = ctx.from_global(g)
            ctx.scale(1.0 / 7.0, v)
            outs[engine] = (ctx.to_global(v),
                            ctx.ledger.counts("computation"))
        assert np.array_equal(outs["perrank"][0], outs["batched"][0])
        assert outs["perrank"][1] == outs["batched"][1]

    def test_diagnosed_budget_failure_parity(self, uniform_config,
                                             uniform_decomp):
        from repro.core.errors import ConvergenceError

        errors = {}
        for engine in ("perrank", "batched"):
            vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask,
                                engine=engine)
            pre = _make_precond("diagonal", uniform_config, uniform_decomp)
            ctx = DistributedContext(uniform_config.stencil, pre, vm)
            solver = ChronGearSolver(ctx, tol=1e-13, max_iterations=9)
            with pytest.raises(ConvergenceError) as err:
                solver.solve(_rhs(uniform_config))
            errors[engine] = err.value
        per, bat = errors["perrank"], errors["batched"]
        assert per.diagnosis.kind == bat.diagnosis.kind
        assert per.iterations == bat.iterations == 9
        assert per.residual_norm == bat.residual_norm
        assert np.array_equal(per.result.x, bat.result.x)
        for phase in PHASES:
            assert per.result.events.get(phase) == \
                bat.result.events.get(phase), phase

    def test_divergence_detection_parity(self, uniform_config,
                                         uniform_decomp):
        from repro.core.errors import ConvergenceError

        errors = {}
        for engine in ("perrank", "batched"):
            with pytest.raises(ConvergenceError) as err:
                _solve(engine, uniform_config, uniform_decomp,
                       PCSISolver, "diagonal", eig_bounds=(0.05, 0.3),
                       max_recoveries=0)
            errors[engine] = err.value
        per, bat = errors["perrank"], errors["batched"]
        assert per.diagnosis.kind == bat.diagnosis.kind
        assert per.diagnosis.iteration == bat.diagnosis.iteration
        assert per.result.residual_history == bat.result.residual_history

    def test_zero_rhs_parity(self, uniform_config, uniform_decomp):
        results = {}
        for engine in ("perrank", "batched"):
            vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask,
                                engine=engine)
            pre = _make_precond("diagonal", uniform_config, uniform_decomp)
            ctx = DistributedContext(uniform_config.stencil, pre, vm)
            solver = ChronGearSolver(ctx)
            results[engine] = solver.solve(
                np.zeros(uniform_config.shape))
        per, bat = results["perrank"], results["batched"]
        assert per.iterations == bat.iterations == 0
        assert per.extra == bat.extra == {"zero_rhs": True}
        for phase in set(per.setup_events) | set(bat.setup_events):
            assert per.setup_events.get(phase) == \
                bat.setup_events.get(phase), phase
