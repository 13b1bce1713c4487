"""Event-ledger regressions: global reductions per iteration, pinned.

The communication ledger is the quantity every perfmodel experiment is
priced from, so its per-solver shape is contract, not implementation
detail.  For a converged solve of ``K`` iterations with convergence
checks every ``f`` iterations, the loop ledger must show exactly:

=============  =============================  =======================
solver         blocking reductions            overlapped reductions
=============  =============================  =======================
chrongear      ``K + K//f`` (1 fused/iter)    --
pcg            ``2K + K//f`` (2/iter)         --
pipecg         ``K//f`` (checks only)         ``K`` (1 fused/iter)
pcsi           ``K//f`` (checks only)         --
=============  =============================  =======================

The same counts must come out of the serial model and both
virtual-machine engines -- the serial context *predicts* what the
distributed run *measures*.
"""

import numpy as np
import pytest

from repro.grid import test_config as make_test_config
from repro.operators import apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.precond import make_preconditioner
from repro.solvers import DistributedContext, SerialContext, make_solver

ENGINES = ("serial", "batched", "perrank")


@pytest.fixture(scope="module")
def cfg():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def rhs(cfg):
    rng = np.random.default_rng(3)
    return apply_stencil(cfg.stencil,
                         rng.standard_normal(cfg.shape) * cfg.mask)


def _solve(cfg, rhs, name, engine, **kwargs):
    if engine == "serial":
        pre = make_preconditioner("diagonal", cfg.stencil)
        ctx = SerialContext(cfg.stencil, pre)
    else:
        decomp = decompose(cfg.ny, cfg.nx, 4, 4, mask=cfg.mask)
        pre = make_preconditioner("diagonal", cfg.stencil, decomp=decomp)
        vm = VirtualMachine(decomp, mask=cfg.mask, engine=engine)
        ctx = DistributedContext(cfg.stencil, pre, vm)
    solver = make_solver(name, ctx, tol=1e-12, max_iterations=500,
                         **kwargs)
    result = solver.solve(rhs)
    assert result.converged
    return result, solver


def _blocking(result):
    return result.events.get("reduction").allreduces \
        if "reduction" in result.events else 0


def _overlapped(result):
    entry = result.events.get("reduction_overlap")
    return entry.allreduces if entry is not None else 0


@pytest.mark.parametrize("engine", ENGINES)
class TestReductionsPerIteration:
    """The pinned loop-reduction budget, engine by engine."""

    def test_chrongear_one_fused_per_iteration(self, cfg, rhs, engine):
        result, solver = _solve(cfg, rhs, "chrongear", engine)
        k, f = result.iterations, solver.check_freq
        assert _blocking(result) == k + k // f
        assert _overlapped(result) == 0
        # One fused 2-word reduction per iteration + 1-word checks.
        assert result.events["reduction"].allreduce_words == \
            2 * k + k // f

    def test_pcg_two_per_iteration(self, cfg, rhs, engine):
        result, solver = _solve(cfg, rhs, "pcg", engine)
        k, f = result.iterations, solver.check_freq
        assert _blocking(result) == 2 * k + k // f

    def test_pipecg_overlaps_its_single_reduction(self, cfg, rhs, engine):
        result, solver = _solve(cfg, rhs, "pipecg", engine)
        k, f = result.iterations, solver.check_freq
        # The per-iteration fused reduction hides behind the matvec;
        # only the periodic checks block.
        assert _overlapped(result) == k
        assert _blocking(result) == k // f

    def test_pcsi_eliminates_loop_reductions(self, cfg, rhs, engine):
        result, solver = _solve(cfg, rhs, "pcsi", engine)
        k, f = result.iterations, solver.check_freq
        assert _blocking(result) == k // f
        assert _overlapped(result) == 0


class TestSerialModelPredictsEngines:
    """Identical ledgers across the serial model and both engines."""

    @pytest.mark.parametrize("name,kwargs", [
        ("chrongear", {}), ("pcg", {}), ("pipecg", {}),
        ("pcsi", {}),
    ])
    def test_ledgers_agree(self, cfg, rhs, name, kwargs):
        results = {}
        bounds = {}
        for engine in ENGINES:
            results[engine], solver = _solve(cfg, rhs, name, engine,
                                             **bounds, **kwargs)
            if getattr(solver, "eig_bounds", None) is not None:
                # Reuse the first run's interval so all three engines
                # execute the identical schedule.
                bounds = {"eig_bounds": solver.eig_bounds}
        serial = results["serial"]
        for engine in ("batched", "perrank"):
            other = results[engine]
            assert other.iterations == serial.iterations
            for phase in set(serial.events) | set(other.events):
                se = serial.events.get(phase)
                oe = other.events.get(phase)
                assert (se is None) == (oe is None), phase
                if se is None:
                    continue
                assert se.allreduces == oe.allreduces, phase
                assert se.allreduce_words == oe.allreduce_words, phase
                assert se.halo_exchanges == oe.halo_exchanges, phase
