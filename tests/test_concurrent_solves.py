"""Concurrent solves through one shared preconditioner.

The artifact cache hands one preconditioner instance to every solve of
a configuration, and the solver service runs solves on several threads
at once (one per core).  Each solve must still be its solo solve, bit
for bit: the same ``x``, iteration count and event ledgers -- which
holds only if nothing a solve writes lives on the shared instance.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.cache import ArtifactCache, get_cache, set_cache
from repro.operators.stencil_op import apply_stencil
from repro.parallel import VirtualMachine
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import DistributedContext, SerialContext
from repro.solvers.chrongear import ChronGearSolver
from repro.solvers.csi import PCSISolver

THREADS = 4
ROUNDS = 3
PRECONDS = ("evp", "diagonal", "block_lu", "identity")
ENGINES = ("serial", "batched")


@pytest.fixture(autouse=True)
def fresh_cache():
    saved = get_cache()
    set_cache(ArtifactCache(cache_dir=None))
    yield
    set_cache(saved)


def _shared(config, decomp, precond, engine):
    """One preconditioner for every solve, and a context factory: the
    serial grid (no decomposition), or the batched engine's stacks."""
    if engine == "serial":
        decomp = None
    if precond == "evp":
        pre = evp_for_config(config, decomp=decomp)
    else:
        pre = make_preconditioner(precond, config.stencil, decomp=decomp)

    def context():
        if engine == "serial":
            return SerialContext(config.stencil, pre)
        vm = VirtualMachine(decomp, mask=config.mask, engine="batched")
        return DistributedContext(config.stencil, pre, vm)
    return context


def _rhs(config, count):
    rng = np.random.default_rng(11)
    return [apply_stencil(config.stencil,
                          rng.standard_normal(config.shape) * config.mask)
            for _ in range(count)]


def _solve(solver, context, b):
    return solver(context(), tol=1e-12, check_freq=10,
                  max_iterations=2000).solve(b)


def _concurrently(solver, context, rhs):
    """Every right-hand side on a thread of its own, started together;
    the results in order (an exception where a solve raised)."""
    out = [None] * len(rhs)
    start = threading.Barrier(len(rhs))

    def run(i):
        start.wait()
        try:
            out[i] = _solve(solver, context, rhs[i])
        except Exception as exc:  # noqa: BLE001 - reported per solve
            out[i] = exc

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(rhs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out


def _same(got, solo):
    return (not isinstance(got, Exception)
            and got.x.tobytes() == solo.x.tobytes()
            and got.iterations == solo.iterations
            and got.converged == solo.converged
            and got.events == solo.events
            and got.setup_events == solo.setup_events)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("precond", PRECONDS)
def test_concurrent_solves_equal_solo(small_config, small_decomp, precond,
                                      engine):
    """P-CSI on ``THREADS`` threads through one shared ``M``, several
    rounds: each solve equals its solo solve bit for bit."""
    context = _shared(small_config, small_decomp, precond, engine)
    rhs = _rhs(small_config, THREADS)
    solo = [_solve(PCSISolver, context, b) for b in rhs]
    assert all(s.converged for s in solo)
    for _ in range(ROUNDS):
        got = _concurrently(PCSISolver, context, rhs)
        assert [_same(g, s) for g, s in zip(got, solo)] \
            == [True] * THREADS, got


@pytest.mark.parametrize("engine", ENGINES)
def test_concurrent_chrongear_evp_equal_solo(small_config, small_decomp,
                                             engine):
    """ChronGear + EVP (its own span) on two threads: the same."""
    context = _shared(small_config, small_decomp, "evp", engine)
    rhs = _rhs(small_config, 2)
    solo = [_solve(ChronGearSolver, context, b) for b in rhs]
    for _ in range(ROUNDS):
        got = _concurrently(ChronGearSolver, context, rhs)
        assert [_same(g, s) for g, s in zip(got, solo)] == [True, True], got


@pytest.mark.parametrize("engine", ENGINES)
def test_first_applies_on_threads_equal_solo(small_config, small_decomp,
                                             engine):
    """Solves that start together on an EVP instance never applied --
    whichever thread comes first builds its kernel tables and layouts
    -- equal their solo solves on another instance, round after round
    on a fresh one."""
    rhs = _rhs(small_config, THREADS)
    solo = [_solve(PCSISolver,
                   _shared(small_config, small_decomp, "evp", engine), b)
            for b in rhs]
    for _ in range(ROUNDS):
        fresh = _shared(small_config, small_decomp, "evp", engine)
        got = _concurrently(PCSISolver, fresh, rhs)
        assert [_same(g, s) for g, s in zip(got, solo)] \
            == [True] * THREADS, got


def test_cache_misses_together_build_once(small_config, monkeypatch):
    """Threads that miss one preconditioner key together run its setup
    once -- the first builds under the key's lock, the others then find
    its object -- and all get that object."""
    from repro.experiments import common

    built, plain = [], common.make_preconditioner

    def counting(kind, stencil, **kwargs):
        built.append(kind)
        time.sleep(0.1)   # the other threads miss while this one builds
        return plain(kind, stencil, **kwargs)

    monkeypatch.setattr(common, "make_preconditioner", counting)
    got = [None] * THREADS
    start = threading.Barrier(THREADS)

    def fetch(i):
        start.wait()
        got[i] = common.get_cached_preconditioner(small_config, "diagonal")

    threads = [threading.Thread(target=fetch, args=(i,))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert built == ["diagonal"]
    assert all(pre is got[0] for pre in got) and got[0] is not None


def test_guarded_solves_build_a_1_once(small_config, small_decomp,
                                       monkeypatch):
    """Guarded solves that start together, each in a context of its own
    over one stencil and decomposition, build the row-sum check's ``A 1``
    once -- the first under the cache's lock, the others then read it --
    and each equals its solo solve, the runtime's counters included (the
    interpreter's switch interval shortened so that the threads
    interleave)."""
    import sys
    import weakref

    from repro.kernels.native import load as load_native
    from repro.parallel import resilience

    # The load-time check builds A 1 for its own contexts: load first.
    load_native()
    monkeypatch.setattr(resilience, "_ROWSUMS", weakref.WeakKeyDictionary())
    built, plain = [], resilience.ResilienceRuntime._apply_to_ones

    def counting(runtime):
        built.append(None)
        time.sleep(0.05)   # the other threads look it up meanwhile
        return plain(runtime)

    monkeypatch.setattr(resilience.ResilienceRuntime, "_apply_to_ones",
                        counting)
    context = _shared(small_config, small_decomp, "evp", "batched")
    rhs = _rhs(small_config, THREADS)
    out = [None] * THREADS
    start = threading.Barrier(THREADS)

    def guarded(b):
        return PCSISolver(context(), tol=1e-12, check_freq=10,
                          max_iterations=2000).solve(b, resilience=True)

    def run(i):
        start.wait()
        out[i] = guarded(rhs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 1
    for got, b in zip(out, rhs):
        solo = guarded(b)
        assert _same(got, solo)
        assert (got.extra["resilience"]["counters"]
                == solo.extra["resilience"]["counters"])
    assert len(built) == 1
