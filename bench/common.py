"""Pieces every workload shares: the hermetic child environment, the
environment fingerprint, seeded inputs, the outside-the-solver
correctness check, the op loop and the perfmodel pricing."""

import hashlib
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Variables that would silently change what the library does.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_CACHE_SHARDS",
                "REPRO_CACHE_MAX_BYTES", "REPRO_KERNELS",
                "REPRO_ARRAY_MODULE")
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")

#: What users get (ISSUE ground rules): POP's tolerance and check cadence.
TOL = 1.0e-13
CHECK_FREQ = 10
#: The paper's Fig. 7 point the serial events are priced at.
MODEL_CORES = 768
MODEL_MACHINE = "yellowstone"

clock = time.perf_counter


def hermetic_env(tmp_dir):
    """Environment for workload children and the programs they start:
    ``REPRO_*`` knobs scrubbed, BLAS pinned to one thread, ``repro``
    importable from this checkout only, temp files inside ``tmp_dir``."""
    env = {k: v for k, v in os.environ.items()
           if k not in SCRUBBED_ENV and k != "PYTHONPATH"}
    for name in THREAD_PINS:
        env[name] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp_dir)
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _blas_description(numpy):
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def fingerprint():
    """Where and on what this run happened (recorded in every result
    file, so an environment change is never mistaken for a code change)."""
    import numpy
    import scipy

    from repro.kernels import resolve_kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_description(numpy),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "kernels": resolve_kernels(None).describe(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


# ----------------------------------------------------------------------
# seeded inputs and the outside check
# ----------------------------------------------------------------------
#: Streams of the per-seed generator: warm-up inputs never collide with
#: timed ones, and op ``i`` gets the same input whatever ran before it.
WARMUP_STREAM, OP_STREAM = 0, 1


def rng_for(seed, stream, index):
    import numpy as np

    return np.random.default_rng([int(seed), int(stream), int(index)])


def make_rhs(config, rng):
    """``b = A (randn * mask)``: a right-hand side with a known-smooth
    preimage, the same recipe ``repro solve`` uses."""
    from repro.operators import apply_stencil

    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


def digest_arrays(*arrays):
    """Content digest of the generated inputs (the seed-determinism
    test compares these)."""
    import numpy as np

    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def true_relative_residual(config, b, x):
    """``|b - A x| / |b|`` over ocean points, recomputed here rather
    than read from the solver's own bookkeeping."""
    import numpy as np

    from repro.operators import apply_stencil

    mask = config.mask
    r = np.where(mask, b - apply_stencil(config.stencil, x), 0.0)
    denom = float(np.linalg.norm(np.where(mask, b, 0.0)))
    return float(np.linalg.norm(r)) / denom if denom else float("inf")


def residual_problems(config, b, x, label="solution"):
    """Failure strings for one ``(b, x)`` pair (empty when it passes)."""
    import numpy as np

    if not np.all(np.isfinite(x)):
        return [f"{label}: non-finite values"]
    rel = true_relative_residual(config, b, x)
    if not rel <= 10.0 * TOL:
        return [f"{label}: true relative residual {rel:.3e} > {10 * TOL:.0e}"]
    return []


# ----------------------------------------------------------------------
# the op loop
# ----------------------------------------------------------------------
class OpLog:
    """What a measured window produced."""

    def __init__(self):
        self.durations = []      # seconds, successful ops only
        self.traced = []         # parallel to durations: was the op traced
        self.rhs = 0             # right-hand sides solved by successful ops
        self.iterations = []     # one entry per solved right-hand side
        self.attempted = 0
        self.failures = []       # one string per failed op
        self.digests = []        # input digest per attempted op
        self.outputs = []        # per successful op: workload's summary
        #: Seconds the successful ops kept the system busy; ``None``
        #: means back to back, i.e. the sum of ``durations``.
        self.busy_s = None

    @property
    def failed(self):
        return len(self.failures)

    def samples(self, traced):
        """Durations of the ops that ran traced (or bare)."""
        return [d for d, t in zip(self.durations, self.traced)
                if t == traced]


def run_ops(workload, seconds, tracer=None, min_ops=1):
    """Run ops back to back until ``seconds`` have passed (at least
    ``min_ops``).  An op that raises or fails its check is counted and
    the loop goes on; its time is not a sample.

    With a ``tracer``, odd ops run under the workload's wrappers and
    even ops bare, so traced and untraced medians come from interleaved
    samples of the same work and warm-up drift cancels.
    """
    log = OpLog()
    start = clock()
    index = 0
    while index < min_ops or clock() - start < seconds:
        inputs = workload.make_inputs(index)
        log.digests.append(workload.digest(inputs))
        traced = tracer is not None and index % 2 == 1
        if traced:
            workload.install_wrappers(tracer)
            tracer.op = index
        t0 = clock()
        try:
            output = workload.run_op(inputs)
            problems = []
        except Exception as exc:  # a failed op is a result, not a crash
            output = None
            problems = [f"op {index}: {type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        elapsed = clock() - t0
        if traced:
            tracer.op = -1
            workload.remove_wrappers(tracer)
        if not problems:
            problems = [f"op {index}: {p}"
                        for p in workload.check(inputs, output)]
        log.attempted += 1
        if problems:
            log.failures.append("; ".join(problems))
        else:
            log.durations.append(elapsed)
            log.traced.append(traced)
            summary = workload.summarize(output)
            log.rhs += len(summary["iterations"])
            log.iterations.extend(summary["iterations"])
            log.outputs.append(summary)
        index += 1
    return log


# ----------------------------------------------------------------------
# perfmodel pricing (the paper's metric)
# ----------------------------------------------------------------------
def modeled_phase_times(config, config_base, events, decomp):
    """Price one solve's loop events on Yellowstone.

    Serial events (``decomp is None``) are rescaled to the full-size
    grid at :data:`MODEL_CORES` ranks, which is what ``repro solve``
    prints for ``--cores 768``; distributed events are priced at the
    decomposition's active rank count.
    """
    from repro.experiments.common import (
        FULL_SHAPES,
        geometry_decomposition,
        rescale_events,
    )
    from repro.perfmodel import get_machine, phase_times

    machine = get_machine(MODEL_MACHINE)
    if decomp is None:
        shape = FULL_SHAPES.get(config_base, config.shape)
        target = geometry_decomposition(shape, MODEL_CORES)
        events = rescale_events(events, config.ny * config.nx, target)
        return phase_times(events, machine, target.num_active)
    return phase_times(events, machine, decomp.num_active)


def event_metrics(events, setup_events):
    """The *count* metrics of one op, read from its ledger phases."""
    from repro.perfmodel import event_totals

    loop = event_totals(events)
    setup = event_totals(setup_events)
    return {
        "solvers.loop_allreduces": loop.allreduces,
        "solvers.loop_allreduce_words": loop.allreduce_words,
        "solvers.loop_halo_exchanges": loop.halo_exchanges,
        "solvers.loop_halo_words": loop.halo_words,
        "solvers.loop_flops": loop.flops,
        "solvers.setup_allreduces": setup.allreduces,
    }


def perfmodel_metrics(config, config_base, events, decomp, per_day):
    """Modeled seconds of ``events`` per phase, and of a simulated day
    that holds ``per_day`` times those events."""
    times = modeled_phase_times(config, config_base, events, decomp)
    return {
        "perfmodel.computation_s": times.computation,
        "perfmodel.preconditioning_s": times.preconditioning,
        "perfmodel.boundary_s": times.boundary,
        "perfmodel.reduction_s": times.reduction,
        "perfmodel.modeled_day_s": times.total * per_day,
    }


# ----------------------------------------------------------------------
# workload interface
# ----------------------------------------------------------------------
class Workload:
    """One named set of inputs the benchmark runs.

    A subclass builds everything in :meth:`setup` (timed as ``setup_s``
    by the caller), then :func:`run_ops` drives ``make_inputs`` ->
    ``run_op`` (timed) -> ``check`` (untimed).  ``setup_layers`` holds
    the per-layer set-up times recorded along the way.
    """

    name = ""

    def __init__(self, seed, tmp_dir, smoke=False):
        self.seed = int(seed)
        self.tmp_dir = Path(tmp_dir)
        self.smoke = smoke
        self.setup_layers = {}
        #: Set by a workload whose set-up is not this process's own
        #: start-to-warm time (the service: its server's).
        self.setup_s = None
        #: The tracer while an op runs traced, so ``run_op`` can wrap
        #: the objects it creates itself.
        self.tracer = None

    def setup(self):
        raise NotImplementedError

    def make_inputs(self, index):
        raise NotImplementedError

    def digest(self, inputs):
        raise NotImplementedError

    def run_op(self, inputs):
        raise NotImplementedError

    def check(self, inputs, output):
        """Failure strings for one op's output (empty when correct)."""
        raise NotImplementedError

    def summarize(self, output):
        """``{"iterations": [per RHS], ...}`` kept per successful op."""
        raise NotImplementedError

    def install_wrappers(self, tracer):
        """Wrap the long-lived objects; subclasses extend this."""
        self.tracer = tracer

    def remove_wrappers(self, tracer):
        self.tracer = None
        tracer.unwrap_all()

    def measure(self, seconds, tracer=None):
        # A traced window needs one bare and one traced op at least.
        return run_ops(self, seconds, tracer=tracer,
                       min_ops=1 if tracer is None else 2)

    def per_layer(self, log, tracer):
        """Per-layer metrics of a traced window (name -> number)."""
        raise NotImplementedError

    def traced_measure(self, seconds, tracer):
        """The traced run: ``(log, per-layer metrics)``."""
        log = self.measure(seconds, tracer=tracer)
        return log, (self.per_layer(log, tracer) if log.outputs else {})

    def describe(self):
        """Per-workload fingerprint (what ``auto`` picked, and on what)."""
        return {}

    def peak_rss_mb(self):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        """Stop everything the workload started."""


def end_to_end_metrics(log, peak_rss_mb):
    """The end-to-end metrics every workload reports (see README);
    ``setup_s`` is added by the parent, which times the cold children."""
    import statistics

    if not log.durations:
        return None
    return {
        "op_s": statistics.median(log.durations),
        "rhs_per_s": log.rhs / (log.busy_s or sum(log.durations)),
        "iterations": statistics.fmean(log.iterations),
        "peak_rss_mb": peak_rss_mb,
    }


def time_call(fn, repeats):
    """Best-of-``repeats`` seconds of ``fn()`` (*micro* metrics: the
    minimum is the least disturbed sample of an isolated call)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def time_each(fn, count):
    """Seconds of ``fn(0)``, ``fn(1)``, ... ``fn(count - 1)``."""
    times = []
    for k in range(count):
        t0 = clock()
        fn(k)
        times.append(clock() - t0)
    return times


def layer_metrics(tracer, ops, mapping):
    """Median-per-op self seconds and calls of each traced layer.

    ``mapping`` is ``{layer: (seconds metric, calls metric or None)}``.
    """
    import statistics

    per_op = [tracer.layer_totals(op=op) for op in ops]
    out = {}
    for layer, (seconds_name, calls_name) in mapping.items():
        seconds = [totals.get(layer, (0.0, 0))[0] for totals in per_op]
        calls = [totals.get(layer, (0.0, 0))[1] for totals in per_op]
        out[seconds_name] = statistics.median(seconds) if seconds else 0.0
        if calls_name is not None:
            out[calls_name] = statistics.median(calls) if calls else 0
    return out
