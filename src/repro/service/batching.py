"""Dynamic request coalescing onto the executor's solver slots.

The :class:`Coalescer` groups submissions that share a bucket key into
one batch and runs at most ``slots`` batches at once -- one per solver
slot of the executor (:attr:`~repro.service.executor.ServiceExecutor.slots`,
one per core).  It is **work-conserving**: it never leaves a slot idle
to wait for companions, and it keeps one count of running batches for
all keys.

* A submission dispatches on the next event-loop pass while a slot is
  free.  Submissions made in the same pass (an ``asyncio.gather``
  burst) share that batch.
* A submission that arrives while every slot is busy waits in its
  key's *held* bucket; the moment any batch ends, the oldest held
  bucket dispatches on the freed slot.
* A bucket that fills to ``max_batch`` dispatches at once, free slot or
  not (the executor queues it behind the running solves).

Batches therefore form only from the requests that queue behind busy
slots: an idle service answers a lone request at once, a second client
runs beside the first on another core, and under saturation the batch
size grows toward ``max_batch`` instead of the scheduler queueing a
string of slivers behind a busy executor.  With one slot this is one
batch at a time, everything else held.

A slot can also be held outside any batch: :meth:`Coalescer.hold`
takes one until the callable it returns is called (the executor holds
the slot of a thread-mode attempt that timed out but keeps running).

The runner callback receives ``(key, items)`` and must return one
result per item, in order; its exceptions propagate to every waiter of
that batch.  ``drain()`` dispatches everything still waiting and
awaits all in-flight runs -- the graceful-shutdown half of the
scheduler.
"""

import asyncio


class _Bucket:
    """One key's waiting submissions; ``slotted`` once a slot is taken
    for it (it dispatches on the next pass)."""

    __slots__ = ("key", "items", "futures", "slotted")

    def __init__(self, key):
        self.key = key
        self.items = []
        self.futures = []
        self.slotted = False


class Coalescer:
    """Batch compatible submissions through one async runner.

    Parameters
    ----------
    runner:
        ``async (key, items) -> [result, ...]`` executing one batch.
    max_batch:
        Dispatch threshold; 1 disables coalescing (every submission
        runs alone, the no-coalescing baseline of the benchmark).
    slots:
        Batches that run at once (the executor's solver slots).
    """

    def __init__(self, runner, max_batch=8, slots=1):
        self.runner = runner
        self.max_batch = max(1, int(max_batch))
        self.slots = max(1, int(slots))
        #: key -> waiting bucket, oldest first.
        self._buckets = {}
        self._running = set()
        #: Slots taken: running or slotted batches, plus holds.
        self._busy = 0
        self.batch_sizes = {}  # size -> dispatch count
        self.submitted = 0
        #: Buckets that waited because every slot was busy.
        self.held_windows = 0

    async def submit(self, key, item):
        """Enqueue ``item`` under ``key``; returns its batch result."""
        self.submitted += 1
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self.max_batch == 1:
            self._busy += 1
            self._start(key, [item], [future])
            return await future
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(key)
            if self._busy < self.slots:
                self._busy += 1
                bucket.slotted = True
                loop.call_soon(self._flush, bucket)
            else:
                # Held: rides the next batch a freed slot dispatches.
                self.held_windows += 1
        bucket.items.append(item)
        bucket.futures.append(future)
        if len(bucket.items) >= self.max_batch:
            self._flush(bucket)
        return await future

    def hold(self):
        """Take a slot outside any batch; returns the callable that
        gives it back (call it once)."""
        self._busy += 1
        return self._release

    def _flush(self, bucket):
        """Dispatch ``bucket`` if it still waits (next pass, filled,
        released or drained); a bucket already dispatched is left
        alone."""
        if self._buckets.get(bucket.key) is not bucket:
            return
        del self._buckets[bucket.key]
        if not bucket.slotted:
            # A held bucket takes a slot now: a freed one, or -- full or
            # drained -- one over the slots.
            self._busy += 1
        self._start(bucket.key, bucket.items, bucket.futures)

    def _start(self, key, items, futures):
        self.batch_sizes[len(items)] = \
            self.batch_sizes.get(len(items), 0) + 1
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
            self._release()
        for future, result in zip(futures, results):
            if not future.done():
                future.set_result(result)

    def _release(self):
        """A slot came free; dispatch the oldest held buckets onto the
        free slots."""
        self._busy -= 1
        while self._busy < self.slots:
            bucket = next((b for b in self._buckets.values()
                           if not b.slotted), None)
            if bucket is None:
                return
            self._flush(bucket)

    async def drain(self):
        """Dispatch all waiting buckets and await in-flight batches."""
        for bucket in list(self._buckets.values()):
            self._flush(bucket)
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
            "queue_depth": sum(len(b.items)
                               for b in self._buckets.values()),
            "inflight_batches": len(self._running),
            "batch_size_histogram": {
                str(size): n
                for size, n in sorted(self.batch_sizes.items())},
            "mean_batch_size": (batched / dispatched if dispatched
                                else 0.0),
        }
