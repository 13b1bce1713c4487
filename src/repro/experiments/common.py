"""Shared infrastructure for the experiment modules.

Key idea: the solver algorithms are *rank-count independent* -- the same
iterates, iteration counts and per-iteration operation mix arise no
matter how the grid is decomposed (validated by the context-equivalence
tests).  So each experiment solves once per (configuration, solver,
preconditioner) at a tractable grid scale, then *rescales* the recorded
event stream to the geometry of each core count on the paper's full-size
grid and prices it with the machine model:

* flop counts scale with the critical block size ``N^2/p``,
* halo words per exchange follow the decomposition's block perimeter,
* reduction counts are unchanged (their cost grows with ``p`` inside
  the machine model).

This is exactly the paper's own reasoning (Eqs. 2-6) with the constants
*measured* from running code instead of derived by hand.
"""

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import CACHE_FORMAT_VERSION, digest_of, get_cache
from repro.core.errors import ConfigurationError
from repro.grid import get_config, pop_0p1deg, pop_1deg
from repro.operators import apply_stencil
from repro.parallel import decompose
from repro.parallel.decomposition import decomposition_for_core_count
from repro.parallel.events import EventCounts
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    SOLVER_REGISTRY,
    PCSISolver,
    SerialContext,
)
from repro.solvers.result import SolveResult

#: The four solver configurations of the paper's evaluation (plus the
#: textbook-PCG lineage baseline available for extensions).
SOLVER_CONFIGS = (
    ("chrongear", "diagonal"),
    ("chrongear", "evp"),
    ("pcsi", "diagonal"),
    ("pcsi", "evp"),
)

#: Full-size grid shapes of the paper's two resolutions (ny, nx).
FULL_SHAPES = {
    "pop_1deg": (384, 320),
    "pop_0.1deg": (2400, 3600),
}

#: Core-count sweeps used in the paper's figures.
CORES_1DEG = (16, 48, 96, 192, 384, 768)
CORES_0P1DEG = (470, 940, 1880, 2700, 4220, 8440, 16875)


def solver_label(solver, precond):
    """Display label matching the paper's legends."""
    pname = {"diagonal": "Diagonal", "evp": "EVP", "identity": "None"}.get(
        precond, precond)
    sname = {"chrongear": "ChronGear", "pcsi": "P-CSI", "pcg": "PCG"}.get(
        solver, solver)
    return f"{sname}+{pname}"


# ----------------------------------------------------------------------
# one-shot measured solves, memoized through the artifact cache
# ----------------------------------------------------------------------
# All three former module-level dicts (_CONFIG_CACHE / _PRECOND_CACHE /
# _SOLVE_CACHE) now live in the process-global ArtifactCache: configs
# and preconditioner objects in its memory tier, EVP influence matrices
# and full SolveResult event streams additionally in the disk tier (when
# a cache directory is configured), shared across processes and runs.
# Keys are content digests -- never bare config names -- so two configs
# that share a name but differ in seed/scale/content cannot collide.


def get_cached_config(name, scale=1.0, seed=None, cache=None):
    """Build (or fetch) a named grid configuration.

    Configurations are memoized in the cache's memory tier only: they
    rebuild in seconds and their arrays are large, so persisting them
    buys nothing the downstream artifact entries don't already provide.
    """
    cache = cache if cache is not None else get_cache()
    key = (name, float(scale), seed)
    cfg = cache.get_object("config", key)
    if cfg is None:
        if name == "pop_1deg":
            cfg = pop_1deg(scale=scale, **({} if seed is None else {"seed": seed}))
        elif name in ("pop_0.1deg", "pop_0p1deg"):
            cfg = pop_0p1deg(scale=scale, **({} if seed is None else {"seed": seed}))
        else:
            cfg = get_config(name)
        cache.put_object("config", key, cfg)
    return cfg


def preconditioner_key(config, kind, **kwargs):
    """Artifact-cache key for a preconditioner build.

    Keyed on the grid's *content digest* (not its name): two same-name
    configurations with different seeds get distinct keys.
    """
    return digest_of(CACHE_FORMAT_VERSION, "preconditioner",
                     config.content_digest(), kind, dict(kwargs))


#: One lock per preconditioner key: held while that key is built.
_BUILDS, _BUILDS_LOCK = {}, threading.Lock()


def get_cached_preconditioner(config, kind, cache=None, **kwargs):
    """Build (or fetch) a preconditioner for a cached config.

    The built object is shared through the cache's memory tier; EVP
    builds additionally round-trip their influence matrices through the
    disk tier (see :func:`~repro.precond.evp.evp_for_config`), turning
    the ``O(n^3)`` setup into an npz load in warm processes.  Threads
    that miss one key together build it once: the first builds under
    the key's lock, the others then find its object.
    """
    cache = cache if cache is not None else get_cache()
    key = preconditioner_key(config, kind, **kwargs)
    pre = cache.get_object("preconditioner", key)
    if pre is not None:
        return pre
    with _BUILDS_LOCK:
        build = _BUILDS.setdefault(key, threading.Lock())
    with build:
        pre = cache.get_object("preconditioner", key)
        if pre is None:
            if kind == "evp":
                pre = evp_for_config(config, cache=cache, **kwargs)
            else:
                pre = make_preconditioner(kind, config.stencil, **kwargs)
            cache.put_object("preconditioner", key, pre)
    return pre


def reference_rhs(config, seed=20151115):
    """A deterministic physically-ranged right-hand side.

    ``b = A x_ref`` for a random masked ``x_ref``: guarantees
    solvability and a known solution for error checks.
    """
    rng = np.random.default_rng(seed)
    x_ref = rng.standard_normal(config.shape) * config.mask
    return apply_stencil(config.stencil, x_ref)


def _json_safe(value):
    """Coerce a diagnostics value into JSON-representable form.

    Numpy scalars become Python scalars, tuples become lists; anything
    JSON cannot hold round-trips as its ``repr`` string (diagnostics
    only -- measurements never flow through this path).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def _events_to_meta(events):
    return {name: vars(c) for name, c in events.items()
            if any(vars(c).values())}


def _events_from_meta(meta):
    return {name: EventCounts(**{k: int(v) for k, v in counts.items()})
            for name, counts in meta.items()}


def result_to_payload(result):
    """Split a :class:`SolveResult` into npz arrays + JSON metadata.

    Floats survive exactly (JSON emits shortest round-trip reprs); the
    solution array rides in the npz tier bit-for-bit.
    """
    arrays = {"x": np.asarray(result.x)}
    meta = {
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "residual_norm": float(result.residual_norm),
        "b_norm": float(result.b_norm),
        "residual_history": [[int(i), float(r)]
                             for i, r in result.residual_history],
        "solver": result.solver,
        "preconditioner": result.preconditioner,
        "events": _events_to_meta(result.events),
        "setup_events": _events_to_meta(result.setup_events),
        "extra": _json_safe(result.extra),
    }
    return arrays, meta


def result_from_payload(arrays, meta):
    """Rebuild a :class:`SolveResult` from a cached payload.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
    payloads; callers treat those as cache misses.
    """
    return SolveResult(
        x=arrays["x"],
        iterations=int(meta["iterations"]),
        converged=bool(meta["converged"]),
        residual_norm=float(meta["residual_norm"]),
        b_norm=float(meta["b_norm"]),
        residual_history=[(int(i), float(r))
                          for i, r in meta["residual_history"]],
        solver=meta["solver"],
        preconditioner=meta["preconditioner"],
        events=_events_from_meta(meta["events"]),
        setup_events=_events_from_meta(meta["setup_events"]),
        extra=dict(meta["extra"]),
    )


# ----------------------------------------------------------------------
# memoized RHS content digests
# ----------------------------------------------------------------------
# ``solve_key`` used to re-hash the full RHS batch -- megabytes for a
# wide multi-RHS batch -- on *every* cache lookup, which dominates a
# warm hit.  The digest is content-addressed, so it can be memoized on
# the array object itself under a freeze protocol: memoizing marks the
# array read-only (``writeable=False``) and the cached digest is only
# trusted while that flag stays down.  Mutating the array requires
# flipping ``writeable`` back on first, which invalidates the memo --
# the next digest call sees a writeable array and re-hashes.  Only
# arrays owning their data participate (a view's base can change under
# a frozen view); everything else hashes fresh each call.

_RHS_DIGEST_MEMO = {}  # id(arr) -> digest, pruned by weakref.finalize


def rhs_digest(rhs):
    """Content digest of a right-hand side, memoized on the array.

    Returns the digest of ``("solve-rhs", shape, float64 content)``.
    The memo freezes ``rhs`` (``flags.writeable = False``); callers that
    need to mutate it afterwards must re-enable ``writeable``, which
    invalidates the cached digest.
    """
    import weakref

    b = np.asarray(rhs, dtype=np.float64)
    memoizable = (b is rhs and isinstance(rhs, np.ndarray)
                  and rhs.base is None)
    if memoizable and not b.flags.writeable:
        cached = _RHS_DIGEST_MEMO.get(id(b))
        if cached is not None:
            return cached
    digest = digest_of("solve-rhs", b.shape, b)
    if memoizable:
        try:
            b.flags.writeable = False
        except ValueError:
            return digest
        if id(b) not in _RHS_DIGEST_MEMO:
            weakref.finalize(b, _RHS_DIGEST_MEMO.pop, id(b), None)
        _RHS_DIGEST_MEMO[id(b)] = digest
    return digest


def solve_key(config, solver, precond, tol, check_freq, max_iterations,
              rhs=None, engine=None, blocks=None, resilience=None,
              **solver_kwargs):
    """Artifact-cache key for one measured solve (content-addressed).

    ``rhs`` is the right-hand side actually solved when it differs from
    the default :func:`reference_rhs`; its **full content** -- every
    column of a ``(ny, nx, nrhs)`` multi-RHS batch -- enters the digest,
    so two batches sharing some columns but differing in any other can
    never collide onto one cache entry.  The content digest is memoized
    on the array via :func:`rhs_digest`, so repeated lookups against
    the same batch hash it once.

    ``engine``/``blocks`` select a decomposed execution context (see
    :func:`measure_solver`); they only enter the key when set, so every
    pre-existing serial-context key is unchanged.
    """
    parts = [CACHE_FORMAT_VERSION, "solve",
             config.content_digest(), solver, precond,
             float(tol), int(check_freq), int(max_iterations),
             dict(solver_kwargs)]
    if engine is not None:
        parts.append(("engine", str(engine),
                      tuple(int(v) for v in blocks)))
    if resilience is not None:
        # A resilient solve records extra ("resilience"-phase) events,
        # so it must never collide with a plain solve's cache entry.
        from repro.parallel.resilience import ResiliencePolicy
        policy = ResiliencePolicy.from_any(resilience)
        parts.append(("resilience",
                      tuple(sorted(policy.to_dict().items()))))
    if rhs is not None:
        parts.append(rhs_digest(rhs))
    return digest_of(*parts)


def _decomposed_context(config, precond, engine, blocks, cache):
    """Build the execution context for a decomposed measured solve.

    ``engine == "serial"`` runs the serial context with the
    decomposition's event accounting; ``"batched"`` runs the virtual
    machine's batched engine (it amortizes per-iteration fixed costs --
    halo exchanges, block-loop dispatch -- across multi-RHS columns,
    which is what the service's coalescer banks on).  The iterates are
    bit-identical across contexts (context-equivalence), so results
    remain comparable with serial-context measurements.
    """
    from repro.parallel import VirtualMachine
    from repro.solvers import DistributedContext

    by, bx = (int(v) for v in blocks)
    decomp = decompose(config.ny, config.nx, by, bx, mask=config.mask)
    if precond == "evp":
        pre = evp_for_config(config, decomp=decomp, cache=cache)
    else:
        pre = make_preconditioner(precond, config.stencil, decomp=decomp)
    if engine == "serial":
        return SerialContext(config.stencil, pre, decomp=decomp)
    vm = VirtualMachine(decomp, mask=config.mask, engine=engine)
    return DistributedContext(config.stencil, pre, vm)


def measure_solver(config, solver="chrongear", precond="diagonal",
                   tol=1.0e-13, check_freq=10, max_iterations=60000,
                   cache=None, rhs=None, engine=None, blocks=None,
                   resilience=None, memoize=True, **solver_kwargs):
    """Solve once and cache the :class:`SolveResult` (with events).

    By default the context carries no decomposition: recorded flops
    correspond to a single rank owning the whole grid and are rescaled
    per core count by :func:`rescale_events`.  The full result --
    solution, residual history and the per-phase event streams every
    timing experiment is priced from -- is memoized in the artifact
    cache's memory tier and persisted to its disk tier, so warm
    processes skip the solve entirely and still observe identical
    measurements.

    ``rhs`` overrides the default :func:`reference_rhs` -- a ``(ny, nx)``
    field or a ``(ny, nx, nrhs)`` multi-RHS batch.  The cache key digests
    its full content (see :func:`solve_key`).

    ``engine`` (``"serial"``/``"batched"``) with
    ``blocks=(by, bx)`` selects a decomposed context instead (see
    :func:`_decomposed_context`); the solver service uses the batched
    engine so coalesced multi-RHS batches amortize per-iteration fixed
    costs.  Iterates are bit-identical across contexts.

    ``resilience`` (a policy dict, ``True``, or a
    :class:`~repro.parallel.resilience.ResiliencePolicy`) enables the
    in-solve fault-tolerance layer; it requires a virtual-machine
    engine and enters the cache key (a resilient solve records extra
    ``"resilience"``-phase events).

    ``memoize=False`` keeps the result out of the memory tier (it is
    still read from and persisted to the disk tier): the solver service
    sees an unbounded stream of distinct right-hand sides and must not
    retain one live solution per request.
    """
    cache = cache if cache is not None else get_cache()
    if engine is not None and blocks is None:
        raise ConfigurationError(
            "measure_solver: engine requires blocks=(by, bx)")
    if resilience is not None and engine in (None, "serial"):
        raise ConfigurationError(
            "measure_solver: resilience requires the virtual "
            "machine (engine 'batched')")
    key = solve_key(config, solver, precond, tol, check_freq,
                    max_iterations, rhs=rhs, engine=engine,
                    blocks=blocks, resilience=resilience,
                    **solver_kwargs)
    result = cache.get_object("solve", key)
    if result is not None:
        return result
    loaded = cache.load("solve", key)
    if loaded is not None:
        try:
            result = result_from_payload(*loaded)
        except (KeyError, TypeError, ValueError):
            result = None
        if result is not None:
            if memoize:
                cache.put_object("solve", key, result)
            return result
    if engine is None:
        pre = get_cached_preconditioner(config, precond, cache=cache)
        ctx = SerialContext(config.stencil, pre)
    else:
        ctx = _decomposed_context(config, precond, engine, blocks, cache)
    cls = SOLVER_REGISTRY[solver]
    extra_kwargs = dict(solver_kwargs)
    if issubclass(cls, PCSISolver):
        extra_kwargs.setdefault("bounds_cache", cache)
    b = reference_rhs(config) if rhs is None else np.asarray(
        rhs, dtype=np.float64)
    result = cls(ctx, tol=tol, check_freq=check_freq,
                 max_iterations=max_iterations,
                 **extra_kwargs).solve(b, resilience=resilience)
    result.extra["measured_points"] = config.ny * config.nx
    if memoize:
        cache.put_object("solve", key, result)
    cache.store("solve", key, *result_to_payload(result))
    return result


# ----------------------------------------------------------------------
# warmup tasks (pipeline pre-solves)
# ----------------------------------------------------------------------
# A *solve task* names one measured solve as a plain picklable tuple
# ``(config_name, scale, solver, precond, tol)``.  Experiment modules
# advertise the tasks they will need via a ``warmup_tasks(**kwargs)``
# function; the parallel runner fans the deduplicated union out to
# worker processes, which execute them with :func:`run_solve_task` and
# thereby warm the shared disk cache before the plan steps run.


def solve_task(config_name, scale, solver, precond, tol=1.0e-13):
    """Normalize one warmup solve task tuple."""
    return (config_name, float(scale), solver, precond, float(tol))


def run_solve_task(task):
    """Execute one warmup solve task (in a worker or inline)."""
    config_name, scale, solver, precond, tol = task
    cfg = get_cached_config(config_name, scale=scale)
    measure_solver(cfg, solver=solver, precond=precond, tol=tol)
    return task


def solve_task_cost(task):
    """Rough relative cost of a task, for longest-first scheduling.

    Grid points dominate; EVP setup and P-CSI's extra iterations get
    flat multipliers.  Only the *ordering* matters.
    """
    config_name, scale, solver, precond, _tol = task
    ny, nx = FULL_SHAPES.get(config_name, (384, 320))
    points = ny * nx * scale * scale
    mult = (2.0 if precond == "evp" else 1.0)
    mult *= (1.5 if solver == "pcsi" else 1.0)
    return points * mult


def standard_warmup_tasks(configs, combos=SOLVER_CONFIGS, tol=1.0e-13):
    """Tasks for the cross product of ``configs`` x solver ``combos``.

    ``configs`` is an iterable of ``(config_name, scale)`` pairs.
    """
    return [solve_task(name, scale, solver, precond, tol=tol)
            for name, scale in configs
            for solver, precond in combos]


# ----------------------------------------------------------------------
# geometry + event rescaling
# ----------------------------------------------------------------------
def geometry_decomposition(full_shape, cores, aspect=1.5):
    """Decomposition of the paper's *full-size* grid for ``cores`` ranks.

    No land mask: the paper's experiments fix the land-block ratio and
    use space-filling curves so the requested core count is what runs;
    block geometry (the critical block size and halo perimeter) is what
    the timing model needs.  Falls back over factorizations when the
    preferred aspect does not fit.
    """
    ny, nx = full_shape
    return decomposition_for_core_count(ny, nx, cores, aspect=aspect)


def rescale_events(events, measured_points, decomp):
    """Rescale a recorded event dict to a target decomposition.

    ``measured_points`` is the grid size the events were recorded on
    (one rank); the returned counts describe the critical-path rank of
    ``decomp`` on the full-size grid.
    """
    factor = decomp.max_block_points() / float(measured_points)
    words = decomp.halo_words_per_exchange()
    out = {}
    for phase, counts in events.items():
        out[phase] = EventCounts(
            flops=int(round(counts.flops * factor)),
            halo_exchanges=counts.halo_exchanges,
            halo_words=counts.halo_exchanges * words,
            allreduces=counts.allreduces,
            allreduce_words=counts.allreduce_words,
        )
    return out


def rescaled_result_events(result, decomp):
    """Events of ``result`` rescaled to ``decomp`` (loop and setup)."""
    points = result.extra["measured_points"]
    return (rescale_events(result.events, points, decomp),
            rescale_events(result.setup_events, points, decomp))


# ----------------------------------------------------------------------
# result containers + rendering
# ----------------------------------------------------------------------
@dataclass
class Series:
    """One line of a figure: a label and aligned x/y lists."""

    label: str
    x: list
    y: list


@dataclass
class ExperimentResult:
    """A regenerated table/figure: series plus free-form notes."""

    name: str
    title: str
    series: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def series_by_label(self, label):
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    def render(self, xlabel="x", fmt="{:.4g}"):
        """ASCII table: one row per x value, one column per series."""
        lines = [f"== {self.name}: {self.title} =="]
        if not self.series:
            return "\n".join(lines)
        xs = self.series[0].x
        headers = [xlabel] + [s.label for s in self.series]
        widths = [max(len(h), 12) for h in headers]
        lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        for i, x in enumerate(xs):
            cells = [str(x)]
            for s in self.series:
                val = s.y[i] if i < len(s.y) else float("nan")
                cells.append(fmt.format(val) if isinstance(val, float) else str(val))
            lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        for key, val in self.notes.items():
            lines.append(f"note: {key} = {val}")
        return "\n".join(lines)


def print_result(result, xlabel="x", fmt="{:.4g}"):
    """Convenience used by the ``main()`` entry points."""
    print(result.render(xlabel=xlabel, fmt=fmt))
    return result
