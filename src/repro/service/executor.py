"""Solve execution behind the service: worker pool + retry.

Batches built by the coalescer run through a :class:`ServiceExecutor`.
With ``jobs >= 1`` solves execute on the rebuildable
:class:`~repro.core.pool.PoolHandle` process pool shared with the
evaluation pipeline -- a died worker breaks only the attempt, the pool
is rebuilt and the attempt re-dispatched per the
:class:`~repro.core.pool.FailurePolicy`.  With ``jobs == 0`` solves
run on a single in-process thread (no fork, deterministic -- the mode
tests and the benchmark load generator use), where an injected crash
raises :class:`~repro.parallel.faults.WorkerCrashError` inline and
exercises the identical retry path.

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


class ServiceExecutor:
    """Run solve tasks with retry/timeout on a rebuildable pool.

    Parameters
    ----------
    jobs:
        Worker processes; 0 selects the single-thread inline mode.
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
        be killed) and the timeout error still surfaces.
    """

    def __init__(self, jobs=0, cache_dir=None, shards=None,
                 max_bytes=None, policy=None, timeout=None):
        self.jobs = max(0, int(jobs))
        self.policy = policy if policy is not None else FailurePolicy()
        self.timeout = timeout
        self.retried = 0
        if self.jobs:
            self.handle = PoolHandle(self.jobs, cache_dir,
                                     shards=shards, max_bytes=max_bytes)
            self._threads = None
        else:
            self.handle = None
            self._threads = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service-solve")

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
            future = loop.run_in_executor(
                self._threads, run_service_task_inline, task)
        else:
            future = asyncio.wrap_future(
                self.handle.get().submit(run_service_task, task),
                loop=loop)
        try:
            return await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError:
            if self.handle is not None:
                self.handle.rebuild(kill=True)
            raise StepTimeoutError(
                f"solve attempt exceeded its {self.timeout}s "
                f"wall-clock budget") from None
        except (BrokenProcessPool, CancelledError):
            if self.handle is not None:
                self.handle.rebuild()
            raise WorkerCrashError(
                "a worker process died while solving") from None

    def stats(self):
        return {
            "jobs": self.jobs,
            "mode": "process" if self.jobs else "thread",
            "retried_attempts": self.retried,
            "pool_rebuilds": (self.handle.rebuilds if self.handle
                              else 0),
        }

    def shutdown(self):
        if self.handle is not None:
            self.handle.shutdown()
        if self._threads is not None:
            self._threads.shutdown(wait=True)
