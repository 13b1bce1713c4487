"""Serial/distributed context equivalence -- the substrate validation.

The central correctness claim of the virtual machine: running any solver
through the distributed context (real halo exchanges, per-rank
arithmetic, rank-ordered reductions) produces the same iterates and the
same communication-event stream as the serial context over the same
decomposition.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.grid import test_config as make_test_config
from repro.operators import apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    ChronGearSolver,
    DistributedContext,
    PCGSolver,
    PCSISolver,
    SerialContext,
    make_solver,
)
from tests.test_engine_conformance import _config_with_land_blocks


def _solve_both(config, decomp, solver_cls, precond_kind, tol=1e-12,
                **kwargs):
    if precond_kind == "evp":
        pre_s = evp_for_config(config, decomp=decomp)
        pre_d = evp_for_config(config, decomp=decomp)
    else:
        pre_s = make_preconditioner(precond_kind, config.stencil,
                                    decomp=decomp)
        pre_d = make_preconditioner(precond_kind, config.stencil,
                                    decomp=decomp)
    rng = np.random.default_rng(1)
    b = apply_stencil(config.stencil,
                      rng.standard_normal(config.shape) * config.mask)

    serial = solver_cls(SerialContext(config.stencil, pre_s, decomp=decomp),
                        tol=tol, **kwargs).solve(b)
    vm = VirtualMachine(decomp, mask=config.mask)
    dist = solver_cls(DistributedContext(config.stencil, pre_d, vm),
                      tol=tol, **kwargs).solve(b)
    return serial, dist


@pytest.mark.parametrize("solver_cls", [PCGSolver, ChronGearSolver,
                                        PCSISolver])
@pytest.mark.parametrize("precond", ["diagonal", "evp", "block_lu"])
class TestContextEquivalence:
    def test_same_iterations_and_solution(self, small_config, small_decomp,
                                          solver_cls, precond):
        kwargs = {}
        if solver_cls is PCSISolver:
            # Pin the interval: Lanczos rounding differs at the last bit
            # between the two execution orders, which is expected.
            kwargs["eig_bounds"] = (0.02, 2.5)
        serial, dist = _solve_both(small_config, small_decomp, solver_cls,
                                   precond, **kwargs)
        assert serial.iterations == dist.iterations
        diff = np.abs((serial.x - dist.x) * small_config.mask).max()
        scale = np.abs(serial.x).max()
        assert diff <= 1e-10 * scale

    def test_identical_event_streams(self, small_config, small_decomp,
                                     solver_cls, precond):
        kwargs = {}
        if solver_cls is PCSISolver:
            kwargs["eig_bounds"] = (0.02, 2.5)
        serial, dist = _solve_both(small_config, small_decomp, solver_cls,
                                   precond, **kwargs)
        for phase in ("computation", "preconditioning", "boundary",
                      "reduction"):
            s = serial.events.get(phase)
            d = dist.events.get(phase)
            assert s == d, (phase, s, d)


class TestContextPrimitives:
    def test_serial_decomp_shape_mismatch_raises(self, small_config):
        from repro.core.errors import SolverError

        other = decompose(10, 10, 2, 2)
        pre = make_preconditioner("diagonal", small_config.stencil)
        with pytest.raises(SolverError):
            SerialContext(small_config.stencil, pre, decomp=other)

    def test_serial_without_decomp_single_rank(self, small_config):
        pre = make_preconditioner("diagonal", small_config.stencil)
        ctx = SerialContext(small_config.stencil, pre)
        assert ctx.num_ranks == 1
        assert ctx.critical_points == small_config.ny * small_config.nx
        assert ctx.reduction_tree_depth() == 0

    def test_dot_pair_matches_two_dots(self, small_config):
        pre = make_preconditioner("diagonal", small_config.stencil)
        ctx = SerialContext(small_config.stencil, pre)
        rng = np.random.default_rng(2)
        a = ctx.from_global(rng.standard_normal(small_config.shape))
        b = ctx.from_global(rng.standard_normal(small_config.shape))
        v1, v2 = ctx.dot_pair(a, b, b, b)
        assert v1 == pytest.approx(ctx.dot(a, b))
        assert v2 == pytest.approx(ctx.dot(b, b))

    def test_elementwise_primitives(self, small_config):
        pre = make_preconditioner("diagonal", small_config.stencil)
        ctx = SerialContext(small_config.stencil, pre)
        x = ctx.from_global(np.full(small_config.shape, 2.0))
        y = ctx.from_global(np.full(small_config.shape, 3.0))
        ctx.axpy(2.0, x, y)                  # y = 3 + 4 = 7
        assert np.all(y == 7.0)
        ctx.xpay(x, 0.5, y)                  # y = 2 + 3.5 = 5.5
        assert np.all(y == 5.5)
        ctx.combine(2.0, x, -1.0, y)         # y = 4 - 5.5 = -1.5
        assert np.all(y == -1.5)

    def test_distributed_elementwise_matches_serial(self, small_config,
                                                    small_decomp):
        pre_s = make_preconditioner("diagonal", small_config.stencil,
                                    decomp=small_decomp)
        ctx_s = SerialContext(small_config.stencil, pre_s,
                              decomp=small_decomp)
        vm = VirtualMachine(small_decomp, mask=small_config.mask)
        pre_d = make_preconditioner("diagonal", small_config.stencil,
                                    decomp=small_decomp)
        ctx_d = DistributedContext(small_config.stencil, pre_d, vm)
        rng = np.random.default_rng(3)
        ga = rng.standard_normal(small_config.shape)
        gb = rng.standard_normal(small_config.shape)
        xs, ys = ctx_s.from_global(ga), ctx_s.from_global(gb)
        xd, yd = ctx_d.from_global(ga), ctx_d.from_global(gb)
        ctx_s.combine(1.5, xs, -0.5, ys)
        ctx_d.combine(1.5, xd, -0.5, yd)
        out = ctx_d.to_global(yd)
        for block in small_decomp.active_blocks:
            assert np.allclose(out[block.slices], ys[block.slices])

    def test_matvec_counts_nine_per_point(self, small_config, small_decomp):
        pre = make_preconditioner("diagonal", small_config.stencil,
                                  decomp=small_decomp)
        ctx = SerialContext(small_config.stencil, pre, decomp=small_decomp)
        x = ctx.new_vector()
        ctx.matvec(x)
        assert ctx.ledger.counts("computation").flops == \
            9 * small_decomp.max_block_points()


# ----------------------------------------------------------------------
# The invariant the serial context's unmasked dot rests on
# ----------------------------------------------------------------------
@st.composite
def _reduction_cases(draw):
    mby, mbx = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return dict(
        ny=mby * draw(st.integers(4, 8)) + draw(st.integers(0, mby - 1)),
        nx=mbx * draw(st.integers(4, 8)) + draw(st.integers(0, mbx - 1)),
        mby=mby, mbx=mbx,
        land_blocks=sorted(draw(st.sets(st.integers(0, mby * mbx - 1),
                                        max_size=(mby * mbx) // 3))),
        seed=draw(st.integers(0, 20)),
        solver=draw(st.sampled_from(
            ("pcg", "chrongear", "pcsi"))),
        precond=draw(st.sampled_from(
            ("diagonal", "evp", "identity"))),
        stacked=draw(st.booleans()),
        nrhs=draw(st.sampled_from((None, 1, 3))),
        warm=draw(st.booleans()),
    )


class TestReducedOperandsVanishOnLand:
    """Every product a solver reduces is ``+-0`` off the mask.

    The guarded loop ``np.where``-masks ``b`` and ``x0``, the operator's
    land rows and every shipped ``M^-1`` are zero on land -- so for the
    vectors solvers hand to ``dot`` / ``dot_pair`` / ``dot_block`` /
    ``norm2`` (Lanczos included) the masking multiply changes no bit of
    the sum.  That is what lets a reduction fold the mask into its one
    pass, or (ROADMAP 3(b)) drop it from a partial sum, without moving
    an iterate; the contexts' ``dot`` itself stays a *masked* product
    for arbitrary vectors.
    """

    @given(case=_reduction_cases())
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_solves(self, case):
        config = _config_with_land_blocks(
            case["ny"], case["nx"], case["mby"], case["mbx"],
            case["land_blocks"], case["seed"])
        decomp = decompose(case["ny"], case["nx"], case["mby"], case["mbx"],
                           mask=config.mask)
        if case["precond"] == "evp":
            pre = evp_for_config(config, decomp=decomp, tile_size=4)
        else:
            pre = make_preconditioner(case["precond"], config.stencil,
                                      decomp=decomp)
        if case["stacked"]:
            vm = VirtualMachine(decomp, mask=config.mask, engine="batched")
            ctx = DistributedContext(config.stencil, pre, vm)
        else:
            ctx = SerialContext(config.stencil, pre, decomp=decomp)
        land = ~config.mask
        pairs = [0]

        def check(a, b):
            product = ctx.to_global(a) * ctx.to_global(b)
            assert not np.any(product[land]), "non-zero product on land"
            pairs[0] += 1

        def watched(name, operands):
            plain = getattr(ctx, name)

            def call(*args, **kwargs):
                for a, b in operands(*args):
                    check(a, b)
                return plain(*args, **kwargs)

            setattr(ctx, name, call)

        watched("dot", lambda a, b: [(a, b)])
        watched("dot_pair", lambda a1, b1, a2, b2: [(a1, b1), (a2, b2)])
        watched("dot_block", lambda xs, ys: [(x, y) for x in xs for y in ys])
        watched("norm2", lambda v: [(v, v)])

        # Right-hand sides and warm starts that are *not* zero on land.
        rng = np.random.default_rng(case["seed"])
        tail = () if case["nrhs"] is None else (case["nrhs"],)
        b = rng.standard_normal(config.shape + tail)
        x0 = rng.standard_normal(config.shape + tail) if case["warm"] else None
        solver = make_solver(case["solver"], ctx, tol=1e-8,
                             max_iterations=400)
        assert solver.solve(b, x0=x0).converged
        assert pairs[0] > 0
