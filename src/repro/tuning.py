"""Auto-tuning: benchmark (solver, preconditioner, engine) combos and
persist the winner per grid + decomposition.

Following "Tuning Spectral Element Preconditioners for Parallel
Scalability", which tunes the choices that change the *numerics* per
machine, the right (solver, preconditioner, execution engine)
combination is an empirical property of a grid and its block
decomposition, not something to hand-pick.  (The kernel
implementations are not an axis: they agree bit for bit, see
:mod:`repro.kernels`.)  :func:`tune`
benchmarks a candidate matrix with real solves on the local machine,
ranks the converged candidates by wall time, and persists the winner in
the content-addressed artifact cache under a key derived from the grid
content digest and the decomposition signature.  ``repro solve`` (and
anything else calling :func:`load_tuned_choice`) then applies the
persisted choice automatically -- ``--no-tuned`` opts out.

Every candidate solves the *same* reference right-hand side to the same
tolerance, with the preconditioner always built against the
decomposition (the serial engine runs with ``decomp=`` so the
block-local operator -- and hence the iteration count -- is identical
across engines and the choice transfers between them).  Lanczos
eigenbounds are shared through the same cache, so P-CSI candidates
don't re-estimate per combo.
"""

import time

from repro.core.cache import (
    CACHE_FORMAT_VERSION,
    decomp_signature,
    digest_of,
    get_cache,
)
from repro.core.errors import ConvergenceError

#: Candidate axes of a full tuning run.
DEFAULT_SOLVERS = ("chrongear", "pcsi")
DEFAULT_PRECONDS = ("diagonal", "evp")
DEFAULT_ENGINES = ("serial", "batched")

#: The reduced matrix behind ``repro tune --quick`` (CI smoke).
QUICK_SOLVERS = DEFAULT_SOLVERS
QUICK_PRECONDS = ("diagonal",)
QUICK_ENGINES = ("serial", "batched")


def tuned_choice_key(config, decomp):
    """Cache key of the persisted choice for (grid, decomposition)."""
    return digest_of(CACHE_FORMAT_VERSION, "tuned-choice",
                     config.content_digest(), decomp_signature(decomp))


def load_tuned_choice(config, decomp, cache=None):
    """The persisted winning combo for (grid, decomposition), or None.

    Checks the memory tier first, then the disk tier (promoting a disk
    hit into memory).  The returned dict carries ``solver``,
    ``precond``, ``engine``, ``blocks`` plus the benchmark numbers
    recorded at tuning time.  A persisted choice naming a solver or
    preconditioner this version does not build (written by an older
    one) is a miss, so callers fall back to their defaults.
    """
    from repro.precond import PRECOND_KINDS
    from repro.solvers import SOLVER_REGISTRY

    cache = cache if cache is not None else get_cache()
    key = tuned_choice_key(config, decomp)
    choice = cache.get_object("tuned", key)
    if choice is None:
        loaded = cache.load("tuned", key)
        if loaded is not None:
            choice = dict(loaded[1])
            cache.put_object("tuned", key, choice)
    if choice is not None and (
            str(choice.get("solver")).lower() not in SOLVER_REGISTRY
            or str(choice.get("precond")).lower() not in PRECOND_KINDS):
        return None
    return choice


def candidate_list(quick=False):
    """The candidate (solver, precond, engine) combos to try."""
    solvers = QUICK_SOLVERS if quick else DEFAULT_SOLVERS
    preconds = QUICK_PRECONDS if quick else DEFAULT_PRECONDS
    engines = QUICK_ENGINES if quick else DEFAULT_ENGINES
    return [
        {"solver": s, "precond": p, "engine": e}
        for s in solvers
        for p in preconds
        for e in engines
    ]


def _build_preconditioner(spec, config, decomp, cache):
    from repro.precond import make_preconditioner
    from repro.precond.evp import evp_for_config

    if spec == "evp":
        return evp_for_config(config, decomp=decomp, cache=cache)
    return make_preconditioner(spec, config.stencil, decomp=decomp)


def _benchmark(config, decomp, candidate, rhs, tol, max_iterations,
               cache, machine):
    """Run one candidate combo; returns a JSON-able result entry."""
    from repro.parallel import VirtualMachine
    from repro.perfmodel import get_machine, phase_times
    from repro.solvers import (
        SOLVER_REGISTRY,
        DistributedContext,
        PCSISolver,
        SerialContext,
        make_solver,
    )

    entry = dict(candidate)
    entry.update(converged=False, iterations=None, wall_time=None,
                 modeled_time=None, error=None)
    try:
        pre = _build_preconditioner(candidate["precond"], config, decomp,
                                    cache)
        if candidate["engine"] == "serial":
            ctx = SerialContext(config.stencil, pre, decomp=decomp)
        else:
            vm = VirtualMachine(decomp, mask=config.mask,
                                engine=candidate["engine"])
            ctx = DistributedContext(config.stencil, pre, vm)
        solver_kwargs = {"tol": tol, "max_iterations": max_iterations}
        solver_cls = SOLVER_REGISTRY[candidate["solver"].lower()]
        if issubclass(solver_cls, PCSISolver):
            solver_kwargs["bounds_cache"] = cache
        solver = make_solver(candidate["solver"], ctx, **solver_kwargs)
        start = time.perf_counter()
        result = solver.solve(rhs)
        entry["wall_time"] = time.perf_counter() - start
        entry["converged"] = bool(result.converged)
        entry["iterations"] = int(result.iterations)
        t = phase_times(result.events, get_machine(machine),
                        decomp.num_active)
        entry["modeled_time"] = float(t.total)
    except (ConvergenceError, ValueError) as exc:
        entry["error"] = str(exc)
    return entry


def tune(config, blocks=(4, 4), quick=False, candidates=None,
         tol=1.0e-12, max_iterations=2000, machine="yellowstone",
         cache=None, progress=None):
    """Benchmark the candidate matrix and persist the winner.

    Returns a report dict with ``entries`` (every candidate, in run
    order), ``ranked`` (converged candidates by ascending wall time),
    ``choice`` (the persisted winner, or ``None`` when nothing
    converged) and ``key`` (the cache key the choice lives under).
    """
    from repro.experiments.common import reference_rhs
    from repro.parallel import decompose

    cache = cache if cache is not None else get_cache()
    by, bx = int(blocks[0]), int(blocks[1])
    decomp = decompose(config.ny, config.nx, by, bx, mask=config.mask)
    rhs = reference_rhs(config)
    entries = []
    for candidate in (candidates if candidates is not None
                      else candidate_list(quick=quick)):
        entry = _benchmark(config, decomp, candidate, rhs, tol,
                           max_iterations, cache, machine)
        entries.append(entry)
        if progress is not None:
            progress(entry)
    ranked = sorted((e for e in entries if e["converged"]),
                    key=lambda e: e["wall_time"])
    key = tuned_choice_key(config, decomp)
    choice = None
    if ranked:
        best = ranked[0]
        choice = {
            "solver": best["solver"],
            "precond": best["precond"],
            "engine": best["engine"],
            "blocks": [by, bx],
            "wall_time": best["wall_time"],
            "modeled_time": best["modeled_time"],
            "iterations": best["iterations"],
            "tol": float(tol),
        }
        cache.put_object("tuned", key, choice)
        cache.store("tuned", key, meta=choice)
    return {"entries": entries, "ranked": ranked, "choice": choice,
            "key": key, "blocks": [by, bx]}


def render_table(report):
    """The ranked candidate table as printable text lines."""
    lines = [
        f"{'rank':>4s}  {'solver':<10s} {'precond':<12s} "
        f"{'engine':<8s} {'iters':>6s} {'wall':>10s} {'modeled':>10s}"
    ]
    for rank, e in enumerate(report["ranked"], start=1):
        lines.append(
            f"{rank:>4d}  {e['solver']:<10s} {e['precond']:<12s} "
            f"{e['engine']:<8s} {e['iterations']:>6d} "
            f"{e['wall_time'] * 1e3:>8.1f}ms "
            f"{e['modeled_time'] * 1e3:>8.3f}ms"
        )
    failed = [e for e in report["entries"] if not e["converged"]]
    for e in failed:
        lines.append(
            f"   -  {e['solver']:<10s} {e['precond']:<12s} "
            f"{e['engine']:<8s} FAILED: {e['error']}"
        )
    return lines
