"""Solve execution behind the service: worker pool + retry.

Batches built by the coalescer run through a :class:`ServiceExecutor`
on its :attr:`~ServiceExecutor.slots`: how many solves run at once, one
per core.  With ``jobs >= 1`` solves execute on the rebuildable
:class:`~repro.core.pool.PoolHandle` process pool shared with the
evaluation pipeline (``jobs`` slots) -- a died worker breaks only the
attempt, the pool is rebuilt and the attempt re-dispatched per the
:class:`~repro.core.pool.FailurePolicy`.  With ``jobs == 0`` solves
run in this process, one solver thread per usable CPU (no fork -- the
mode the service defaults to, and tests use), where an injected crash
raises :class:`~repro.parallel.faults.WorkerCrashError` inline and
exercises the identical retry path.  The threads share the cached
grids and preconditioners, never a buffer (a preconditioner keeps what
its applications write per thread), and run in parallel because the
native kernels are called without the GIL.

The task unit (:func:`run_service_task`) is a plain picklable dict;
the worker rebuilds the grid from its name/scale/seed and funnels the
solve through :func:`~repro.experiments.common.measure_solver`, so
every result is content-addressed into the shared artifact cache's
*disk* tier -- a byte-identical re-request after a restart (or on
another worker) is a cache hit, not a re-solve.  Results are not kept
in the memory tier: the request stream is unbounded, and the server's
response memo already answers live repeats.
"""

import asyncio
import os
import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.core.pool import FailurePolicy, PoolHandle, StepTimeoutError
from repro.parallel.faults import WorkerCrashError


def _apply_injection(task, inline):
    """Honor a fault-injection directive (tests and chaos smoke only).

    ``{"sleep": s}`` delays the attempt; ``{"crash": N}`` kills the
    first ``N`` attempts -- hard (``os._exit``) in a worker process,
    as an inline :class:`WorkerCrashError` in thread mode.
    """
    inject = task.get("inject") or {}
    if inject.get("sleep"):
        time.sleep(float(inject["sleep"]))
    crashes = int(inject.get("crash", 0))
    if crashes and int(task.get("attempt", 1)) <= crashes:
        if inline:
            raise WorkerCrashError(
                f"injected crash on attempt {task.get('attempt', 1)}")
        os._exit(13)


def _execute_task(task, inline):
    from repro.experiments.common import get_cached_config, measure_solver

    _apply_injection(task, inline)
    config = get_cached_config(task["config"], scale=task["scale"],
                               seed=task["seed"])
    return measure_solver(
        config,
        solver=task["solver"],
        precond=task["precond"],
        tol=task["tol"],
        check_freq=task["check_freq"],
        max_iterations=task["max_iterations"],
        rhs=task["rhs"],
        engine=task.get("engine"),
        blocks=task.get("blocks"),
        resilience=task.get("resilience"),
        raise_on_failure=False,
        memoize=False,
    )


def run_service_task(task):
    """Execute one solve task in a pool worker process."""
    return _execute_task(task, inline=False)


def run_service_task_inline(task):
    """Execute one solve task on the in-process thread executor."""
    return _execute_task(task, inline=True)


def _usable_cpus():
    """CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


class ServiceExecutor:
    """Run solve tasks with retry/timeout on a rebuildable pool.

    Parameters
    ----------
    jobs:
        Worker processes; 0 selects the inline mode, one solver thread
        per usable CPU.
    cache_dir, shards, max_bytes:
        Worker-side artifact-cache configuration (the workers share
        the service's disk cache; see
        :func:`~repro.core.pool.worker_init`).
    policy:
        :class:`FailurePolicy` governing retries (default: retry twice
        with 0.25 s backoff).
    timeout:
        Per-attempt wall-clock budget in seconds (``None`` = none).
        In process mode an overrun kills the workers and rebuilds the
        pool; in thread mode the attempt is abandoned (threads cannot
        be killed) and the timeout error still surfaces, while its
        thread keeps its slot busy until it returns.

    ``slots`` is how many solves run at once: ``jobs``, or the usable
    CPUs in thread mode.  ``busy_slots`` counts those running one now
    -- abandoned attempts included.  ``on_abandon`` (the coalescer's
    :meth:`~repro.service.batching.Coalescer.hold`, wired by the
    server) is called when a thread-mode attempt is abandoned; the
    callable it returns is called on the event loop when that thread
    returns.
    """

    def __init__(self, jobs=0, cache_dir=None, shards=None,
                 max_bytes=None, policy=None, timeout=None):
        self.jobs = max(0, int(jobs))
        self.policy = policy if policy is not None else FailurePolicy()
        self.timeout = timeout
        self.retried = 0
        self.on_abandon = None
        self.busy_slots = 0
        self._busy_lock = threading.Lock()
        if self.jobs:
            self.slots = self.jobs
            self.handle = PoolHandle(self.jobs, cache_dir,
                                     shards=shards, max_bytes=max_bytes)
            self._threads = None
        else:
            self.slots = _usable_cpus()
            self.handle = None
            self._threads = ThreadPoolExecutor(
                max_workers=self.slots,
                thread_name_prefix="repro-service-solve")

    def _count(self, change):
        with self._busy_lock:
            self.busy_slots += change

    def _run_on_slot(self, task):
        """One thread-mode attempt, on the slot thread running it."""
        self._count(1)
        try:
            return run_service_task_inline(task)
        finally:
            self._count(-1)

    async def run(self, task):
        """Execute ``task`` with retries; returns its SolveResult."""
        attempts = self.policy.attempts()
        for attempt in range(1, attempts + 1):
            try:
                return await self._attempt(dict(task, attempt=attempt))
            except (WorkerCrashError, StepTimeoutError):
                if attempt >= attempts:
                    raise
                self.retried += 1
                delay = self.policy.delay(0, attempt + 1)
                if delay:
                    await asyncio.sleep(delay)
        raise WorkerCrashError("unreachable: retry loop exhausted")

    async def _attempt(self, task):
        loop = asyncio.get_running_loop()
        if self.handle is None:
            submitted = self._threads.submit(self._run_on_slot, task)
        else:
            submitted = self.handle.get().submit(run_service_task, task)
            self._count(1)
            submitted.add_done_callback(lambda _: self._count(-1))
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(submitted, loop=loop), self.timeout)
        except asyncio.TimeoutError:
            if self.handle is not None:
                self.handle.rebuild(kill=True)
            elif self.on_abandon is not None:
                self._abandon(loop, submitted)
            raise StepTimeoutError(
                f"solve attempt exceeded its {self.timeout}s "
                f"wall-clock budget") from None
        except (BrokenProcessPool, CancelledError):
            if self.handle is not None:
                self.handle.rebuild()
            raise WorkerCrashError(
                "a worker process died while solving") from None

    def _abandon(self, loop, submitted):
        """Keep a slot held for a thread-mode attempt that outlived its
        budget, until its thread returns."""
        release = self.on_abandon()

        def returned(_):
            try:
                loop.call_soon_threadsafe(release)
            except RuntimeError:   # the loop is gone: nothing to wake
                pass

        submitted.add_done_callback(returned)

    def stats(self):
        return {
            "jobs": self.jobs,
            "mode": "process" if self.jobs else "thread",
            "slots": self.slots,
            "busy_slots": self.busy_slots,
            "retried_attempts": self.retried,
            "pool_rebuilds": (self.handle.rebuilds if self.handle
                              else 0),
        }

    def shutdown(self):
        if self.handle is not None:
            self.handle.shutdown()
        if self._threads is not None:
            self._threads.shutdown(wait=True)
