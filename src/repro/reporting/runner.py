"""Run the whole evaluation and produce the paper comparison.

``run_all`` executes a plan of experiments (default: every performance
artifact at tractable scales; the slow verification figures can be
included on request), saves each regenerated figure as JSON, extracts
the headline measurements, and compares them against the structured
paper values.  This is the automated backbone of EXPERIMENTS.md:

    from repro.reporting import run_all
    report = run_all(output_dir="results")
    print(report["rendered"])

Parallel pipeline
-----------------
With ``jobs > 1`` the plan fans out over a
:class:`~concurrent.futures.ProcessPoolExecutor` in two waves sharing
one artifact-cache directory (an ephemeral one is created when the
global cache has no disk tier):

1. **warmup** -- every measured solve the plan will need (declared by
   the experiment modules' ``warmup_tasks`` hooks) is deduplicated,
   sorted longest-first and executed across the workers, which persist
   the results -- EVP influence matrices, eigenbounds, full solve event
   streams -- to the shared disk cache;
2. **steps** -- the plan steps run across the same pool (each mostly
   *loading* solves now) and are collected deterministically in plan
   order; extraction and saving stay in the parent.

Measured numbers are identical with and without the cache and at any
job count: cached solves replay the exact event streams a fresh solve
records (asserted by the pipeline tests).

Resilience
----------
A multi-hour evaluation must survive its environment.  ``run_all``
persists a :class:`RunManifest` (``<output_dir>/manifest.json``)
recording each step's outcome, so ``resume=True`` reloads completed
figures from disk and re-executes only what is missing.  A
:class:`FailurePolicy` decides what a failed step does to the run:
``fail_fast`` aborts, ``continue`` records and moves on, ``retry``
(the default) re-dispatches with exponential backoff and deterministic
jitter.  ``step_timeout`` bounds each attempt's wall clock (workers
past it are killed and the pool rebuilt), and a died worker
(``BrokenProcessPool``) likewise triggers a pool rebuild instead of
sinking the evaluation.  The
:class:`~repro.parallel.faults.PipelineFault` injectors
(``worker_crash``, ``slow_rank``, ``cache_corrupt``) exist to prove
all of this under test.
"""

import importlib
import json
import os
import shutil
import tempfile
import time
from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool

from repro.core.cache import get_cache
from repro.core.errors import ConfigurationError, ConvergenceError
from repro.core.pool import (
    FailurePolicy,
    PoolHandle,
    StepTimeoutError,
    await_future,
    worker_init,
)
from repro.parallel.faults import WorkerCrashError
from repro.reporting.compare import comparison_table, render_comparison
from repro.reporting.serialize import load_result, save_result


# ----------------------------------------------------------------------
# measurement extractors: ExperimentResult -> {paper_key: measured}
# ----------------------------------------------------------------------
def _extract_fig01(result):
    frac = result.series_by_label("barotropic %").y
    return {
        "fig01.fraction_low": frac[0] / 100.0,
        "fig01.fraction_high": frac[-1] / 100.0,
    }


def _extract_fig06(result):
    cg = result.series_by_label("ChronGear+Diagonal").y
    cg_evp = result.series_by_label("ChronGear+EVP").y
    cuts = [d / e for d, e in zip(cg, cg_evp)]
    return {
        "fig06.evp_iteration_cut": sum(cuts) / len(cuts),
        "fig06.highres_fewer_iterations":
            "true" if cg[-1] < cg[0] else "false",
    }


def _extract_fig07(result):
    cg = result.series_by_label("ChronGear+Diagonal").y
    pcsi = result.series_by_label("P-CSI+Diagonal").y
    pcsi_evp = result.series_by_label("P-CSI+EVP").y
    return {
        "fig07.chrongear_768": cg[-1],
        "fig07.pcsi_speedup_768": cg[-1] / pcsi[-1],
        "fig07.pcsi_evp_speedup_768": cg[-1] / pcsi_evp[-1],
    }


def _extract_table1(result):
    row = result.series_by_label("P-CSI+EVP").y
    return {
        "table1.pcsi_evp_48": row[0] / 100.0,
        "table1.pcsi_evp_768": row[-1] / 100.0,
    }


def _extract_fig08(result):
    cg = result.series_by_label("ChronGear+Diagonal [s/day]").y
    cg_evp = result.series_by_label("ChronGear+EVP [s/day]").y
    pcsi = result.series_by_label("P-CSI+Diagonal [s/day]").y
    pcsi_evp = result.series_by_label("P-CSI+EVP [s/day]").y
    sypd_base = result.series_by_label("ChronGear+Diagonal [SYPD]").y
    sypd_best = result.series_by_label("P-CSI+EVP [SYPD]").y
    return {
        "fig08.chrongear_16875": cg[-1],
        "fig08.pcsi_16875": pcsi[-1],
        "fig08.speedup_pcsi_diag": cg[-1] / pcsi[-1],
        "fig08.speedup_chrongear_evp": cg[-1] / cg_evp[-1],
        "fig08.speedup_pcsi_evp": cg[-1] / pcsi_evp[-1],
        "fig08.sypd_baseline": sypd_base[-1],
        "fig08.sypd_pcsi_evp": sypd_best[-1],
        "fig08.rate_gain": sypd_best[-1] / sypd_base[-1],
    }


def _extract_fig09(result):
    frac = result.series_by_label("barotropic %").y
    return {"fig09.fraction_high": frac[-1] / 100.0}


def _extract_fig10(result):
    dip = result.notes["ChronGear reduction-time minimum at cores"]
    cores = result.series[0].x
    return {"fig10.reduction_dip": "true" if dip > cores[0] else "false"}


def _extract_fig11(result):
    cg = result.series_by_label("ChronGear+Diagonal [s/day]").y
    pcsi = result.series_by_label("P-CSI+Diagonal [s/day]").y
    pcsi_evp = result.series_by_label("P-CSI+EVP [s/day]").y
    spread_cg = result.series_by_label(
        "ChronGear+Diagonal run spread [s]").y
    spread_pcsi = result.series_by_label("P-CSI+EVP run spread [s]").y
    return {
        "fig11.chrongear_16875": cg[-1],
        "fig11.pcsi_16875": pcsi[-1],
        "fig11.speedup_pcsi_diag": cg[-1] / pcsi[-1],
        "fig11.speedup_pcsi_evp": cg[-1] / pcsi_evp[-1],
        "fig11.chrongear_noisy":
            "true" if spread_cg[-1] > 2 * spread_pcsi[-1] else "false",
    }


def _extract_fig05(result):
    sizes = result.series_by_label("relative round-off").x
    roundoff = result.series_by_label("relative round-off").y
    by_size = dict(zip(sizes, roundoff))
    return {"sec4.evp_roundoff_12x12": by_size.get(12, roundoff[-1])}


def _extract_fig13(result):
    verdicts = result.notes["verdicts"]
    loose = verdicts.get("tol=1e-10", "?")
    pcsi = [v for k, v in verdicts.items() if k.startswith("P-CSI")]
    return {
        "fig13.loose_flagged": loose,
        "fig13.pcsi_consistent": pcsi[0] if pcsi else "?",
    }


#: (experiment module, run kwargs, extractor) -- the default plan.
DEFAULT_PLAN = [
    ("repro.experiments.fig01_time_fraction", {"scale": 0.25},
     _extract_fig01),
    ("repro.experiments.fig05_evp_marching", {}, _extract_fig05),
    ("repro.experiments.fig06_iterations", {}, _extract_fig06),
    ("repro.experiments.fig07_lowres_scaling", {}, _extract_fig07),
    ("repro.experiments.table1_pop_improvement", {}, _extract_table1),
    ("repro.experiments.fig08_highres_yellowstone", {"scale": 0.25},
     _extract_fig08),
    ("repro.experiments.fig09_time_fraction_pcsi", {"scale": 0.25},
     _extract_fig09),
    ("repro.experiments.fig10_solver_components", {"scale": 0.25},
     _extract_fig10),
    ("repro.experiments.fig11_highres_edison", {"scale": 0.25},
     _extract_fig11),
]

#: The slow verification additions (opt in via ``include_verification``).
VERIFICATION_PLAN = [
    ("repro.experiments.fig13_rmsz",
     {"months": 6, "size": 10, "days_per_month": 20,
      "tolerances": (1e-10, 1e-11, 1e-13)},
     _extract_fig13),
]


# ----------------------------------------------------------------------
# failure policy + manifest
# ----------------------------------------------------------------------
# StepTimeoutError and FailurePolicy moved to repro.core.pool (shared
# with the solver service); re-exported here for compatibility.
__all__ = ["FailurePolicy", "StepTimeoutError", "RunManifest", "run_all"]


#: Bump when the manifest schema changes; old manifests are ignored
#: (a stale schema must not silently skip steps).
MANIFEST_VERSION = 1

#: Filename of the per-run manifest inside ``output_dir``.
MANIFEST_NAME = "manifest.json"


class RunManifest:
    """Persisted per-step ledger of one ``run_all`` invocation.

    A JSON document under ``output_dir`` mapping each step's module
    path to its outcome (``status``, ``seconds``, ``attempts``,
    ``result_file``, ``error``).  Saved atomically after every step,
    so a killed run leaves an accurate record; ``resume=True`` skips
    steps whose status is ``"done"`` *and* whose result file still
    exists (a deleted artifact re-runs the step -- the manifest never
    outranks the data).
    """

    def __init__(self, path):
        self.path = os.path.abspath(path)
        self.steps = {}

    @classmethod
    def load(cls, path):
        """Read a manifest; damaged or mismatched files yield a fresh
        (empty) manifest rather than an error."""
        manifest = cls(path)
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return manifest
        if not isinstance(doc, dict) or \
                doc.get("version") != MANIFEST_VERSION:
            return manifest
        steps = doc.get("steps", {})
        if isinstance(steps, dict):
            manifest.steps = {str(k): dict(v) for k, v in steps.items()
                              if isinstance(v, dict)}
        return manifest

    def record(self, module_path, **fields):
        """Merge ``fields`` into the step's record and persist."""
        entry = self.steps.setdefault(str(module_path), {})
        entry.update(fields)
        self.save()

    def save(self):
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        doc = {"version": MANIFEST_VERSION, "steps": self.steps}
        fd, tmp = tempfile.mkstemp(prefix=".manifest-tmp-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass

    def completed_result(self, module_path):
        """Path of the step's saved figure if it completed, else None."""
        entry = self.steps.get(str(module_path), {})
        if entry.get("status") != "done":
            return None
        name = entry.get("result_file")
        if not name:
            return None
        path = os.path.join(os.path.dirname(self.path), name)
        return path if os.path.exists(path) else None


# ----------------------------------------------------------------------
# execution machinery
# ----------------------------------------------------------------------
def _execute_step(module_path, kwargs, directive=None, inline=False):
    """Run one plan step in the current process.

    Returns ``(result, seconds, cache_delta)`` where ``cache_delta`` is
    the change in the process-global cache's lookup counters across the
    step.  Used both inline (``jobs=1``) and inside pool workers.

    ``directive`` carries a parent-planned fault injection:
    ``{"sleep": s}`` stalls before the work (driving a configured
    timeout), ``{"crash": True}`` dies the way a preempted node does --
    ``os._exit`` in a pool worker, :class:`WorkerCrashError` when
    running inline (where ``os._exit`` would take the caller with it).
    """
    if directive:
        if directive.get("sleep"):
            time.sleep(float(directive["sleep"]))
        if directive.get("crash"):
            if inline:
                raise WorkerCrashError(
                    f"injected worker crash in step {module_path}")
            os._exit(13)
    cache = get_cache()
    before = cache.counters()
    start = time.perf_counter()
    module = importlib.import_module(module_path)
    result = module.run(**kwargs)
    seconds = time.perf_counter() - start
    after = cache.counters()
    delta = {name: after[name] - before[name] for name in after}
    return result, seconds, delta


# Pool initializer shared with repro.core.pool (kept under the old
# private name so forked workers resolve it identically).
_worker_init = worker_init


def _run_warmup_task(task):
    """Execute one warmup solve in a worker (writes the shared cache)."""
    from repro.experiments.common import run_solve_task

    return run_solve_task(task)


def _gather_warmup_tasks(steps):
    """Deduplicated, longest-first warmup tasks declared by the plan."""
    from repro.experiments.common import solve_task_cost

    tasks = []
    seen = set()
    for module_path, kwargs, _extractor in steps:
        module = importlib.import_module(module_path)
        declare = getattr(module, "warmup_tasks", None)
        if declare is None:
            continue
        for task in declare(**kwargs):
            if task not in seen:
                seen.add(task)
                tasks.append(task)
    tasks.sort(key=solve_task_cost, reverse=True)
    return tasks


def _plan_directive(pipeline_faults, step_index, module_path, attempt):
    """First parent-planned injection directive for this dispatch."""
    for fault in pipeline_faults:
        directive = fault.directive(step_index, module_path, attempt)
        if directive:
            return directive
    return None


def _collect(future, handle, module_path, step_timeout):
    """Await one dispatched attempt, translating infrastructure death.

    A pool broken by a worker crash (or a future cancelled by a pool
    rebuild) becomes :class:`WorkerCrashError`; an attempt past
    ``step_timeout`` becomes :class:`StepTimeoutError` after the
    wedged workers are killed.  Both leave the handle ready to build a
    fresh pool for the retry.
    """
    return await_future(future, handle, f"step {module_path}",
                        timeout=step_timeout)


def run_all(output_dir=None, plan=None, include_verification=False,
            progress=None, jobs=1, resume=False, step_timeout=None,
            failure_policy=None, pipeline_faults=()):
    """Execute a plan; returns dict with results, comparisons, rendering.

    Parameters
    ----------
    output_dir:
        If given, each regenerated figure is saved there as JSON and a
        :class:`RunManifest` tracks per-step outcomes.
    plan:
        Override the default plan (list of
        ``(module_path, kwargs, extractor)``; ``extractor`` may be
        ``None`` to skip measurement extraction for a step).
    include_verification:
        Append the slow fig13 verification run.
    progress:
        Optional callable invoked with each experiment name as it
        starts (before its module import, so slow imports are
        attributed to the right step).
    jobs:
        Number of worker processes.  ``1`` (default) runs everything in
        this process; ``> 1`` fans warmup solves and plan steps over a
        process pool sharing one cache directory (see the module
        docstring).  Results are identical at any job count.
    resume:
        Reload steps the manifest under ``output_dir`` records as done
        (and whose saved figure still exists) instead of re-running
        them; only the missing steps execute.  Requires ``output_dir``.
    step_timeout:
        Wall-clock seconds allowed per step attempt (``jobs > 1``
        only: an in-process step cannot be preempted).  A timed-out
        attempt kills the pool's workers, rebuilds the pool and counts
        as a failure under the failure policy.
    failure_policy:
        A :class:`FailurePolicy` deciding whether a failed step aborts
        the run, is recorded and skipped, or retried with backoff
        (the default: retry twice).  Diagnosed
        :class:`~repro.core.errors.ConvergenceError` failures keep
        their own channel (``diagnoses``) and are never retried -- a
        deterministic solver failure would only fail again.
    pipeline_faults:
        :class:`~repro.parallel.faults.PipelineFault` injectors for
        chaos testing (worker crashes, cache corruption, stalls).
        Directives are planned parent-side per (step, attempt).

    Returns
    -------
    dict with ``results``, ``measurements``, ``comparisons``,
    ``rendered``, plus ``timings`` (per step, in plan order:
    ``{"step", "seconds", "cache_hits", "cache_misses"}`` -- failed
    steps carry ``"failed": True``, resumed ones ``"resumed": True``),
    ``diagnoses`` (structured
    :class:`~repro.solvers.health.SolverDiagnosis` dicts for steps a
    diagnosed solver failure aborted; the run continues past them),
    ``failures`` (steps lost to infrastructure errors after all
    attempts), ``skipped`` (module paths resumed from disk),
    ``manifest`` (its path, or ``None``), ``pool_rebuilds``, ``jobs``,
    ``cache`` (global-cache stats) and -- when ``jobs > 1`` --
    ``warmup`` (task count, wall seconds, errors).
    """
    steps = list(plan if plan is not None else DEFAULT_PLAN)
    if include_verification:
        steps += VERIFICATION_PLAN
    jobs = max(1, int(jobs))
    policy = failure_policy if failure_policy is not None \
        else FailurePolicy()
    pipeline_faults = list(pipeline_faults)
    if resume and not output_dir:
        raise ConfigurationError(
            "resume=True needs output_dir (the manifest lives there)")

    manifest = None
    resumed = {}
    if output_dir:
        manifest_path = os.path.join(output_dir, MANIFEST_NAME)
        manifest = (RunManifest.load(manifest_path) if resume
                    else RunManifest(manifest_path))
    if resume:
        for module_path, _kwargs, _extractor in steps:
            saved = manifest.completed_result(module_path)
            if saved is None:
                continue
            try:
                resumed[module_path] = load_result(saved)
            except ConfigurationError:
                continue  # damaged artifact: the step re-runs

    cache = get_cache()
    ephemeral_dir = None
    handle = None
    warmup_report = None
    try:
        effective_cache_dir = cache.cache_dir
        if jobs > 1:
            if effective_cache_dir is None:
                # Workers can only share artifacts through the disk
                # tier; give a memory-only global cache an ephemeral one
                # for the duration of the run.
                ephemeral_dir = tempfile.mkdtemp(prefix="repro-cache-")
                effective_cache_dir = ephemeral_dir
                cache.cache_dir = effective_cache_dir
            handle = PoolHandle(jobs, effective_cache_dir)
            tasks = _gather_warmup_tasks(
                [s for s in steps if s[0] not in resumed])
            if tasks:
                if progress is not None:
                    progress(f"warmup ({len(tasks)} solves, "
                             f"jobs={jobs})")
                start = time.perf_counter()
                errors = []
                pool = handle.get()
                futures = [pool.submit(_run_warmup_task, t) for t in tasks]
                for task, future in zip(tasks, futures):
                    try:
                        future.result()
                    except (BrokenProcessPool, CancelledError) as exc:
                        handle.rebuild()
                        errors.append((task, repr(exc)))
                    except Exception as exc:  # the step retries inline
                        errors.append((task, repr(exc)))
                warmup_report = {
                    "tasks": len(tasks),
                    "seconds": time.perf_counter() - start,
                    "errors": errors,
                }

        # Chaos hook: damage the shared cache *after* warmup persisted
        # its artifacts -- the steps must heal through quarantine.
        for fault in pipeline_faults:
            fault.on_cache(effective_cache_dir)

        # First attempts fan out in parallel; retries run serially as
        # failures surface during in-order collection.
        submitted = {}
        if handle is not None:
            for index, (module_path, kwargs, _extractor) in \
                    enumerate(steps):
                if module_path in resumed:
                    continue
                if progress is not None:
                    progress(module_path)
                directive = _plan_directive(pipeline_faults, index,
                                            module_path, 1)
                submitted[index] = handle.get().submit(
                    _execute_step, module_path, kwargs, directive)

        results = {}
        measurements = {}
        timings = []
        diagnoses = []
        failures = []
        for index, (module_path, kwargs, extractor) in enumerate(steps):
            if module_path in resumed:
                result = resumed[module_path]
                results[result.name] = result
                if extractor is not None:
                    measurements.update(extractor(result))
                timings.append({
                    "step": module_path,
                    "seconds": 0.0,
                    "cache_hits": 0,
                    "cache_misses": 0,
                    "resumed": True,
                })
                continue

            attempt = 1
            error = None
            outcome = None
            while True:
                try:
                    if handle is not None:
                        if attempt == 1 and index in submitted:
                            outcome = _collect(submitted[index], handle,
                                               module_path, step_timeout)
                        else:
                            directive = _plan_directive(
                                pipeline_faults, index, module_path,
                                attempt)
                            outcome = _collect(
                                handle.get().submit(
                                    _execute_step, module_path, kwargs,
                                    directive),
                                handle, module_path, step_timeout)
                    else:
                        if progress is not None and attempt == 1:
                            progress(module_path)
                        directive = _plan_directive(
                            pipeline_faults, index, module_path, attempt)
                        outcome = _execute_step(module_path, kwargs,
                                                directive, inline=True)
                    break
                except ConvergenceError as err:
                    # A diagnosed solver failure is deterministic --
                    # retrying would only reproduce it.  Record the
                    # structured diagnosis and keep collecting.
                    error = err
                    break
                except Exception as err:
                    if policy.mode == "fail_fast":
                        raise
                    error = err
                    if attempt >= policy.attempts():
                        break
                    attempt += 1
                    delay = policy.delay(index, attempt)
                    if delay > 0:
                        time.sleep(delay)

            if outcome is not None:
                result, seconds, delta = outcome
                results[result.name] = result
                if output_dir:
                    save_result(result, output_dir)
                if extractor is not None:
                    measurements.update(extractor(result))
                timing = {
                    "step": module_path,
                    "seconds": seconds,
                    "cache_hits": (delta.get("memory_hits", 0)
                                   + delta.get("disk_hits", 0)),
                    "cache_misses": delta.get("misses", 0),
                }
                if attempt > 1:
                    timing["attempts"] = attempt
                timings.append(timing)
                if manifest is not None:
                    manifest.record(module_path, status="done",
                                    seconds=seconds, attempts=attempt,
                                    result_file=f"{result.name}.json")
                continue

            if isinstance(error, ConvergenceError):
                diagnoses.append({
                    "step": module_path,
                    "error": str(error),
                    "diagnosis": (error.diagnosis.to_dict()
                                  if error.diagnosis is not None
                                  else None),
                })
            else:
                failures.append({
                    "step": module_path,
                    "error": str(error),
                    "attempts": attempt,
                })
            timings.append({
                "step": module_path,
                "seconds": 0.0,
                "cache_hits": 0,
                "cache_misses": 0,
                "failed": True,
            })
            if manifest is not None:
                manifest.record(module_path, status="failed",
                                attempts=attempt, error=str(error))
    finally:
        if handle is not None:
            handle.shutdown()
        if ephemeral_dir is not None:
            shutil.rmtree(ephemeral_dir, ignore_errors=True)
            # Keep the warmed memory tier; detach the vanished disk dir.
            cache.cache_dir = None

    comparisons = comparison_table(measurements)
    report = {
        "results": results,
        "measurements": measurements,
        "comparisons": comparisons,
        "rendered": render_comparison(comparisons),
        "timings": timings,
        "diagnoses": diagnoses,
        "failures": failures,
        "skipped": sorted(resumed),
        "manifest": manifest.path if manifest is not None else None,
        "pool_rebuilds": handle.rebuilds if handle is not None else 0,
        "jobs": jobs,
        "cache": get_cache().stats(),
    }
    if warmup_report is not None:
        report["warmup"] = warmup_report
    return report
