"""Dynamic request coalescing.

The :class:`Coalescer` groups submissions that share a bucket key into
one batch, and is **work-conserving**: it never leaves the solver idle
to wait for companions.

* A submission whose key has no batch running dispatches on the next
  event-loop pass.  Submissions made in the same pass (an
  ``asyncio.gather`` burst) share that batch.
* A submission that arrives while its key is solving waits in the
  key's *held* bucket, and the bucket dispatches the moment the running
  batch finishes.
* A bucket that fills to ``max_batch`` dispatches at once.

Batches therefore form only from the requests that queue behind a
running solve: an idle service answers a lone request at once, and
under saturation the batch size grows toward ``max_batch`` instead of
the scheduler queueing a string of slivers behind a busy executor.

The runner callback receives ``(key, items)`` and must return one
result per item, in order; its exceptions propagate to every waiter of
that batch.  ``drain()`` dispatches everything still waiting and
awaits all in-flight runs -- the graceful-shutdown half of the
scheduler.
"""

import asyncio


class Coalescer:
    """Batch compatible submissions through one async runner.

    Parameters
    ----------
    runner:
        ``async (key, items) -> [result, ...]`` executing one batch.
    max_batch:
        Dispatch threshold; 1 disables coalescing (every submission
        runs alone, the no-coalescing baseline of the benchmark).
    """

    def __init__(self, runner, max_batch=8):
        self.runner = runner
        self.max_batch = max(1, int(max_batch))
        self._buckets = {}
        self._running = set()
        self._inflight = {}  # key -> running batch count
        self.batch_sizes = {}  # size -> dispatch count
        self.submitted = 0
        self.held_windows = 0

    async def submit(self, key, item):
        """Enqueue ``item`` under ``key``; returns its batch result."""
        self.submitted += 1
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self.max_batch == 1:
            self._dispatch_now(key, [item], [future])
            return await future
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = ([], [])  # items, futures
            if self._inflight.get(key):
                # Held: rides the next batch, which _release dispatches
                # when the running one finishes.
                self.held_windows += 1
            else:
                loop.call_soon(self._flush, key, bucket)
        items, futures = bucket
        items.append(item)
        futures.append(future)
        if len(items) >= self.max_batch:
            self._flush(key, bucket)
        return await future

    def _flush(self, key, bucket):
        """Dispatch ``bucket`` if it still waits (next pass, filled,
        released or drained); a bucket already dispatched is left alone."""
        if self._buckets.get(key) is bucket:
            del self._buckets[key]
            self._dispatch_now(key, *bucket)

    def _dispatch_now(self, key, items, futures):
        self.batch_sizes[len(items)] = \
            self.batch_sizes.get(len(items), 0) + 1
        self._inflight[key] = self._inflight.get(key, 0) + 1
        task = asyncio.ensure_future(self._run(key, items, futures))
        self._running.add(task)
        task.add_done_callback(self._running.discard)

    async def _run(self, key, items, futures):
        try:
            results = await self.runner(key, items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results "
                    f"for {len(items)} items")
        except BaseException as exc:  # noqa: BLE001 - fan the error out
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
            return
        finally:
            self._release(key)
        for future, result in zip(futures, results):
            if not future.done():
                future.set_result(result)

    def _release(self, key):
        """A batch of ``key`` finished; dispatch its held bucket."""
        left = self._inflight.get(key, 1) - 1
        if left > 0:
            self._inflight[key] = left
            return
        self._inflight.pop(key, None)
        bucket = self._buckets.get(key)
        if bucket is not None:
            self._flush(key, bucket)

    async def drain(self):
        """Dispatch all waiting buckets and await in-flight batches."""
        for key, bucket in list(self._buckets.items()):
            self._flush(key, bucket)
        while self._running:
            await asyncio.gather(*list(self._running),
                                 return_exceptions=True)

    def stats(self):
        """Dispatch histogram + derived coalescing summary."""
        dispatched = sum(self.batch_sizes.values())
        batched = sum(size * n for size, n in self.batch_sizes.items())
        return {
            "submitted": self.submitted,
            "dispatched_batches": dispatched,
            "batched_requests": batched,
            "held_windows": self.held_windows,
            "queue_depth": sum(len(items)
                               for items, _ in self._buckets.values()),
            "inflight_batches": len(self._running),
            "batch_size_histogram": {
                str(size): n
                for size, n in sorted(self.batch_sizes.items())},
            "mean_batch_size": (batched / dispatched if dispatched
                                else 0.0),
        }
