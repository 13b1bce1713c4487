"""Tests for the solver service: protocol, coalescer, dedup, jobs,
crash retry and graceful shutdown.

Three layers: pure-unit tests of the wire protocol and the coalescer,
in-process event-loop tests of :class:`SolverService` (thread executor,
deterministic), and end-to-end tests against a live HTTP server -- one
in a background thread, one as a real ``repro serve`` subprocess for
the SIGTERM drain contract.
"""

import asyncio
import contextlib
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.cache import ArtifactCache, configure_cache, get_cache, set_cache
from repro.core.errors import ReproError
from repro.core.pool import StepTimeoutError
from repro.experiments.common import (
    get_cached_config,
    measure_solver,
    reference_rhs,
)
from repro.parallel.faults import WorkerCrashError
from repro.service import (
    Coalescer,
    ProtocolError,
    READY_PREFIX,
    ServiceClient,
    ServiceError,
    SolverService,
    bucket_key,
    normalize_request,
    request_content_key,
)

SOLVE = {"solver": "pcsi", "precond": "diagonal", "tol": 1e-6,
         "max_iterations": 500}


@pytest.fixture()
def fresh_cache():
    saved = get_cache()
    set_cache(ArtifactCache(cache_dir=None))
    yield get_cache()
    set_cache(saved)


def _request(scale=0.5, rhs=None, **fields):
    doc = dict({"config": "test", "scale": scale}, **SOLVE)
    doc.update(fields)
    if rhs is not None:
        doc = ServiceClient.make_request(rhs=rhs, **doc)
    return doc


def _rhs_variants(count, scale=0.5):
    config = get_cached_config("test", scale=scale)
    base = np.asarray(reference_rhs(config))
    return config, [np.ascontiguousarray(base + i * 0.01 * config.mask)
                    for i in range(count)]


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_defaults_filled(self):
        req = normalize_request({"config": "test"})
        assert req["solver"] is None and req["precond"] is None
        assert req["tol"] == 1e-12 and req["max_iterations"] == 2000
        assert req["engine"] is None and req["blocks"] is None
        assert req["rhs"] is None

    @pytest.mark.parametrize("doc", [
        None,
        [],
        {},
        {"config": ""},
        {"config": "test", "solver": "gmres"},
        {"config": "test", "engine": "warp"},
        {"config": "test", "precond": "bogus"},
        {"config": "test", "precond": "cheby:4"},
        {"config": "test", "blocks": [4]},
        {"config": "test", "blocks": [0, 4]},
        {"config": "test", "tol": 0.0},
        {"config": "test", "check_freq": 0},
        {"config": "test", "max_iterations": "many"},
        {"config": "test", "rhs": {"bogus": 1}},
        {"config": "test", "inject": "crash"},
        {"config": "test", "solver": "capcg"},
        {"config": "test", "solver": "csi"},
    ])
    def test_malformed_requests_rejected(self, doc):
        with pytest.raises(ProtocolError):
            normalize_request(doc)

    def test_non_2d_rhs_rejected(self):
        doc = ServiceClient.make_request(config="test",
                                         rhs=np.zeros(7))
        with pytest.raises(ProtocolError):
            normalize_request(doc)

    def test_bucket_key_separates_incompatible(self):
        a = normalize_request(_request())
        b = normalize_request(_request(tol=1e-9))
        c = normalize_request(_request(engine="batched", blocks=[4, 4]))
        assert len({bucket_key(a), bucket_key(b), bucket_key(c)}) == 3

    def test_content_key_tracks_rhs_bytes(self, fresh_cache):
        _config, (r0, r1) = _rhs_variants(2)
        a = normalize_request(_request(rhs=r0))
        b = normalize_request(_request(rhs=np.array(r0)))
        c = normalize_request(_request(rhs=r1))
        assert request_content_key(a) == request_content_key(b)
        assert request_content_key(a) != request_content_key(c)


# ----------------------------------------------------------------------
# coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def _echo_runner(self, calls):
        async def runner(key, items):
            calls.append(list(items))
            return [f"{key}:{item}" for item in items]
        return runner

    @staticmethod
    async def _passes(count):
        """Let ``count`` event-loop passes go by (no timers)."""
        for _ in range(count):
            await asyncio.sleep(0)

    def test_dispatch_on_fill(self):
        async def main():
            calls = []
            co = Coalescer(self._echo_runner(calls), max_batch=3)
            out = await asyncio.gather(*[co.submit("k", i)
                                         for i in range(3)])
            assert out == ["k:0", "k:1", "k:2"]
            assert calls == [[0, 1, 2]]
            assert co.stats()["batch_size_histogram"] == {"3": 1}
        asyncio.run(main())

    def test_idle_key_dispatches_on_next_pass(self):
        async def main():
            calls = []
            co = Coalescer(self._echo_runner(calls), max_batch=8)
            solo = asyncio.ensure_future(co.submit("k", "solo"))
            await self._passes(3)  # submit, dispatch, runner's first step
            assert calls == [["solo"]]
            assert await solo == "k:solo"
            assert co.held_windows == 0
        asyncio.run(main())

    def test_max_batch_one_is_baseline(self):
        async def main():
            calls = []
            co = Coalescer(self._echo_runner(calls), max_batch=1)
            await asyncio.gather(co.submit("k", 1), co.submit("k", 2))
            assert sorted(len(c) for c in calls) == [1, 1]
        asyncio.run(main())

    def test_incompatible_keys_never_batch(self):
        async def main():
            calls = []
            co = Coalescer(self._echo_runner(calls), max_batch=8)
            await asyncio.gather(co.submit("a", 1), co.submit("b", 2))
            assert sorted(len(c) for c in calls) == [1, 1]
        asyncio.run(main())

    @staticmethod
    def _gated_runner(calls, gates):
        """Echo runner whose ``i``-th batch blocks until ``gates[i]`` is
        set; later batches run at once."""
        async def runner(key, items):
            calls.append(list(items))
            if len(calls) <= len(gates):
                await gates[len(calls) - 1].wait()
            return list(items)
        return runner

    def test_held_window_grows_batch_under_load(self):
        async def main():
            release = asyncio.Event()
            calls = []
            co = Coalescer(self._gated_runner(calls, [release] * 2),
                           max_batch=16, slots=2)
            first = [asyncio.ensure_future(co.submit("k", i))
                     for i in (0, 1)]
            await self._passes(3)  # dispatched: both slots are busy
            assert calls == [[0, 1]]
            second = asyncio.ensure_future(co.submit("k", 2))
            await self._passes(3)
            assert calls == [[0, 1], [2]]
            rest = [asyncio.ensure_future(co.submit("k", i))
                    for i in range(3, 7)]
            await self._passes(1)  # all four submitted: held
            assert len(calls) == 2
            assert co.held_windows == 1
            assert co.stats()["queue_depth"] == 4
            release.set()
            assert await asyncio.gather(*first, second, *rest) \
                == list(range(7))
            # everything queued behind the busy slots rode ONE batch
            assert calls == [[0, 1], [2], [3, 4, 5, 6]]
            assert co.stats()["batch_size_histogram"] \
                == {"1": 1, "2": 1, "4": 1}
        asyncio.run(main())

    def test_full_held_bucket_dispatches_without_waiting(self):
        async def main():
            release = asyncio.Event()
            calls = []
            co = Coalescer(self._gated_runner(calls, [release] * 2),
                           max_batch=3, slots=2)
            first = []
            for i in (0, 1):
                first.append(asyncio.ensure_future(co.submit("k", i)))
                await self._passes(3)  # dispatched: the batch is running
            assert calls == [[0], [1]]
            rest = [asyncio.ensure_future(co.submit("k", i))
                    for i in range(2, 5)]
            await self._passes(2)  # submitted, filled, runner started
            # the held bucket went out while both slots block
            assert calls == [[0], [1], [2, 3, 4]]
            assert co.held_windows == 1
            assert await asyncio.gather(*rest) == [2, 3, 4]
            assert not any(f.done() for f in first)
            release.set()
            assert await asyncio.gather(*first) == [0, 1]
        asyncio.run(main())

    def test_two_slots_run_one_key_twice_then_hold(self):
        """With two slots two submissions of one key both dispatch at
        once; a third is held and rides the next batch the moment
        either running batch ends."""
        async def main():
            gates = [asyncio.Event(), asyncio.Event()]
            calls = []
            co = Coalescer(self._gated_runner(calls, gates), max_batch=8,
                           slots=2)
            a = asyncio.ensure_future(co.submit("k", "a"))
            await self._passes(3)
            b = asyncio.ensure_future(co.submit("k", "b"))
            await self._passes(3)
            assert calls == [["a"], ["b"]] and co.held_windows == 0
            c = asyncio.ensure_future(co.submit("k", "c"))
            await self._passes(3)
            assert len(calls) == 2 and co.held_windows == 1
            gates[1].set()  # the second batch ends: c takes its slot
            assert await b == "b"
            await self._passes(2)
            assert calls == [["a"], ["b"], ["c"]]
            assert await c == "c" and not a.done()
            gates[0].set()
            assert await a == "a"
        asyncio.run(main())

    def test_held_keys_dispatch_in_arrival_order(self):
        """A key that arrives while every slot is busy is held too, and
        held buckets take freed slots oldest first."""
        async def main():
            gates = [asyncio.Event() for _ in range(3)]
            calls = []
            co = Coalescer(self._gated_runner(calls, gates), max_batch=8,
                           slots=2)
            busy = []
            for item in ("k0", "k1"):
                busy.append(asyncio.ensure_future(co.submit("k", item)))
                await self._passes(3)
            held = []
            for key in ("a", "b"):
                held.append(asyncio.ensure_future(co.submit(key, key)))
                await self._passes(3)
            assert calls == [["k0"], ["k1"]] and co.held_windows == 2
            gates[0].set()
            await busy[0]
            await self._passes(2)
            assert calls == [["k0"], ["k1"], ["a"]]  # b still held
            gates[1].set()
            await busy[1]
            await self._passes(2)
            assert calls == [["k0"], ["k1"], ["a"], ["b"]]
            gates[2].set()
            assert await asyncio.gather(*held) == ["a", "b"]
        asyncio.run(main())

    def test_never_oversubscribes_the_slots(self):
        """Random arrivals over several keys and run times: below
        ``max_batch`` no more batches run at once than there are slots,
        and every submission gets its own result."""
        async def main():
            rng = np.random.default_rng(5)
            running, peak = [0], [0]

            async def runner(key, items):
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                await asyncio.sleep(float(rng.uniform(0, 0.004)))
                running[0] -= 1
                return [(key, item) for item in items]

            co = Coalescer(runner, max_batch=1000, slots=2)
            subs = []
            for i in range(120):
                key = f"k{rng.integers(4)}"
                subs.append((key, i,
                             asyncio.ensure_future(co.submit(key, i))))
                if rng.random() < 0.5:
                    await asyncio.sleep(float(rng.uniform(0, 0.002)))
            for key, i, future in subs:
                assert await future == (key, i)
            assert peak[0] == 2
            assert co.held_windows > 0
            assert co.stats()["inflight_batches"] == 0
        asyncio.run(main())

    def test_held_slot_keeps_buckets_waiting(self):
        """A slot taken by :meth:`Coalescer.hold` (an abandoned attempt
        still running) is busy until its release is called."""
        async def main():
            calls = []
            co = Coalescer(self._echo_runner(calls), max_batch=8, slots=1)
            release = co.hold()
            pending = asyncio.ensure_future(co.submit("k", 1))
            await self._passes(3)
            assert calls == [] and co.held_windows == 1
            release()
            assert await pending == "k:1"
            assert calls == [[1]]
            assert co._busy == 0
        asyncio.run(main())

    def test_runner_error_fans_to_all_waiters(self):
        async def main():
            async def runner(key, items):
                raise RuntimeError("boom")

            co = Coalescer(runner, max_batch=2)
            results = await asyncio.gather(
                co.submit("k", 1), co.submit("k", 2),
                return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
        asyncio.run(main())

    def test_drain_flushes_waiting_bucket(self):
        async def main():
            calls = []
            co = Coalescer(self._echo_runner(calls), max_batch=8)
            pending = asyncio.ensure_future(co.submit("k", 9))
            await asyncio.sleep(0)
            await co.drain()
            assert await pending == "k:9"
        asyncio.run(main())


# ----------------------------------------------------------------------
# in-process service (thread executor, no HTTP)
# ----------------------------------------------------------------------
class TestServiceSolve:
    def test_coalesced_bit_identical_to_standalone(self, fresh_cache):
        config, variants = _rhs_variants(5)

        async def main():
            service = SolverService(jobs=0, max_batch=8)
            await service.start()
            docs = [_request(rhs=rhs) for rhs in variants]
            out = await asyncio.gather(*[service.handle_solve(d)
                                         for d in docs])
            await service.shutdown()
            return out

        out = asyncio.run(main())
        assert all(o["batch"] == 5 and o["coalesced"] for o in out)
        for rhs, response in zip(variants, out):
            ref = measure_solver(config, rhs=rhs, check_freq=10,
                                 raise_on_failure=False, **SOLVE)
            got = ServiceClient.solve_result(response)
            assert got.x.tobytes() == np.asarray(ref.x).tobytes()
            assert got.iterations == ref.iterations
            assert got.converged == ref.converged
            assert got.residual_norm == ref.residual_norm
            assert got.b_norm == ref.b_norm

    def test_batched_engine_coalescing_bit_identical(self, fresh_cache):
        config, variants = _rhs_variants(4)

        async def main():
            service = SolverService(jobs=0, max_batch=8,
                                    engine="batched", blocks=(4, 4))
            await service.start()
            docs = [_request(rhs=rhs) for rhs in variants]
            out = await asyncio.gather(*[service.handle_solve(d)
                                         for d in docs])
            await service.shutdown()
            return out

        out = asyncio.run(main())
        assert all(o["engine"] == "batched" for o in out)
        for rhs, response in zip(variants, out):
            ref = measure_solver(config, rhs=rhs, check_freq=10,
                                 engine="batched", blocks=(4, 4),
                                 raise_on_failure=False, **SOLVE)
            got = ServiceClient.solve_result(response)
            assert got.x.tobytes() == np.asarray(ref.x).tobytes()
            assert got.iterations == ref.iterations

    def test_single_flight_dedup(self, fresh_cache):
        _config, (rhs,) = _rhs_variants(1)

        async def main():
            service = SolverService(jobs=0, max_batch=8)
            await service.start()
            doc = _request(rhs=rhs)
            out = await asyncio.gather(*[service.handle_solve(dict(doc))
                                         for _ in range(4)])
            stats = service.stats()
            await service.shutdown()
            return out, stats

        out, stats = asyncio.run(main())
        assert stats["service"]["dedup_inflight"] == 3
        assert stats["coalescer"]["submitted"] == 1  # one real solve
        xs = {o["result"]["x"]["data"] for o in out}
        assert len(xs) == 1
        assert sum(1 for o in out if o["dedup"]) == 3

    def test_memo_answers_repeat_requests(self, fresh_cache):
        _config, (rhs,) = _rhs_variants(1)

        async def main():
            service = SolverService(jobs=0, max_batch=8)
            await service.start()
            doc = _request(rhs=rhs)
            first = await service.handle_solve(dict(doc))
            second = await service.handle_solve(dict(doc))
            stats = service.stats()
            await service.shutdown()
            return first, second, stats

        first, second, stats = asyncio.run(main())
        assert not first["dedup"] and second["dedup"]
        assert stats["service"]["dedup_memo"] == 1
        assert second["result"]["x"] == first["result"]["x"]

    def test_retained_memory_is_bounded(self, fresh_cache):
        """200 distinct requests: the memo keeps to its byte budget by
        evicting least-recently-used responses, no solve stays in the
        cache's memory tier, and a repeat still inside the budget is
        answered from the memo with the first answer's bytes."""
        _config, variants = _rhs_variants(200)
        docs = [_request(rhs=rhs) for rhs in variants]

        async def main():
            probe = SolverService(jobs=0, max_batch=8)
            await probe.start()
            first = await probe.handle_solve(dict(docs[0]))
            charged = probe.stats()["service"]["memo_bytes"]
            await probe.shutdown()
            entries_before = fresh_cache.stats()["memory_entries"]

            budget = 20 * charged
            service = SolverService(jobs=0, max_batch=8,
                                    memo_bytes=budget)
            await service.start()
            answers = []
            for start in range(0, len(docs), 8):
                answers += await asyncio.gather(*[
                    service.handle_solve(dict(doc))
                    for doc in docs[start:start + 8]])
                assert service.stats()["service"]["memo_bytes"] <= budget
            recent = await service.handle_solve(dict(docs[-1]))
            evicted = await service.handle_solve(dict(docs[0]))
            stats = service.stats()
            await service.shutdown()
            return (first, charged, entries_before, budget, answers,
                    recent, evicted, stats)

        (first, charged, entries_before, budget, answers, recent, evicted,
         stats) = asyncio.run(main())
        assert charged >= len(first["result"]["x"]["data"])
        assert stats["service"]["memo_entries"] == 20
        assert stats["service"]["memo_bytes"] == 20 * charged <= budget
        assert stats["service"]["memo_evictions"] == 181
        assert recent["dedup"] and stats["service"]["dedup_memo"] == 1
        assert recent["result"] == answers[-1]["result"]
        # Evicted long ago: solved again, to the same bytes.
        assert not evicted["dedup"]
        assert evicted["result"]["x"] == answers[0]["result"]["x"]
        assert stats["cache"]["memory_entries"] == entries_before
        assert not any(category == "solve"
                       for category, _key in fresh_cache._memory)

    def test_memo_budget_is_capped(self, fresh_cache):
        from repro.service.server import MEMO_BUDGET_BYTES

        assert MEMO_BUDGET_BYTES <= 8 * 1024 * 1024
        service = SolverService(jobs=0, memo_bytes=10 * MEMO_BUDGET_BYTES)
        assert service._memo_budget == MEMO_BUDGET_BYTES
        service.executor.shutdown()

    def test_default_solver_and_engine_filled(self, fresh_cache):
        async def main():
            service = SolverService(jobs=0, max_batch=1,
                                    engine="batched", blocks=(4, 4),
                                    tuned=False)
            await service.start()
            response = await service.handle_solve(
                {"config": "test", "scale": 0.5, "tol": 1e-6,
                 "max_iterations": 500})
            await service.shutdown()
            return response

        response = asyncio.run(main())
        assert response["solver"] == "pcsi"
        assert response["precond"] == "diagonal"
        assert response["engine"] == "batched"
        assert response["tuned"] is False

    def test_inline_crash_retried_to_success(self, fresh_cache):
        _config, (rhs,) = _rhs_variants(1)

        async def main():
            service = SolverService(jobs=0, max_batch=1, retries=2)
            await service.start()
            doc = _request(rhs=rhs, inject={"crash": 1})
            response = await service.handle_solve(doc)
            stats = service.stats()
            await service.shutdown()
            return response, stats

        response, stats = asyncio.run(main())
        assert response["status"] == "ok"
        assert stats["executor"]["retried_attempts"] == 1

    def test_crash_beyond_retries_surfaces(self, fresh_cache):
        _config, (rhs,) = _rhs_variants(1)

        async def main():
            service = SolverService(jobs=0, max_batch=1, retries=1)
            await service.start()
            try:
                with pytest.raises(WorkerCrashError):
                    await service.handle_solve(
                        _request(rhs=rhs, inject={"crash": 99}))
            finally:
                await service.shutdown()

        asyncio.run(main())

    def test_abandoned_attempt_keeps_its_slot_busy(self, fresh_cache):
        """A thread-mode attempt that timed out keeps running; its slot
        stays busy -- in the executor's count and the coalescer's --
        until the thread returns, and comes free then."""
        _config, (rhs,) = _rhs_variants(1)

        async def main():
            service = SolverService(jobs=0, retries=0, job_timeout=0.2)
            await service.start()
            executor, coalescer = service.executor, service.coalescer
            try:
                assert coalescer.slots == executor.slots >= 1
                with pytest.raises(StepTimeoutError):
                    await service.handle_solve(
                        _request(rhs=rhs, inject={"sleep": 1.5}))
                workers = service.health()["workers"]
                assert workers["slots"] == executor.slots
                assert workers["busy_slots"] == 1
                assert coalescer._busy == 1
                for _ in range(100):
                    if executor.busy_slots == 0 and coalescer._busy == 0:
                        break
                    await asyncio.sleep(0.05)
                assert service.stats()["executor"]["busy_slots"] == 0
                assert coalescer._busy == 0
            finally:
                await service.shutdown()

        asyncio.run(main())

    def test_injected_requests_never_memo_dedupe(self, fresh_cache):
        _config, (rhs,) = _rhs_variants(1)

        async def main():
            service = SolverService(jobs=0, max_batch=1, retries=2)
            await service.start()
            doc = _request(rhs=rhs, inject={"sleep": 0.01})
            first = await service.handle_solve(dict(doc))
            second = await service.handle_solve(dict(doc))
            await service.shutdown()
            return first, second

        first, second = asyncio.run(main())
        assert not first["dedup"] and not second["dedup"]


# ----------------------------------------------------------------------
# live HTTP server (background thread)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def live_service(**kwargs):
    service = SolverService(port=0, **kwargs)
    ready = queue.Queue()
    holder = {}

    def target():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        loop.run_until_complete(service.run(
            announce=lambda *a, **k: ready.put(service.port),
            install_signals=False))
        loop.close()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    port = ready.get(timeout=30)
    try:
        yield service, ServiceClient(port=port, timeout=60)
    finally:
        holder["loop"].call_soon_threadsafe(service.request_shutdown)
        thread.join(timeout=30)


class TestHttpEndpoints:
    def test_healthz_stats_and_solve(self, fresh_cache):
        _config, (rhs,) = _rhs_variants(1)
        with live_service(jobs=0, max_batch=4) as \
                (service, client):
            health = client.healthz()
            assert health["ok"] and not health["draining"]
            assert health["workers"]["alive"]
            assert health["queue_depth"] == 0
            assert health["resilience"]["resilient_solves"] == 0
            response = client.solve(_request(rhs=rhs))
            assert response["status"] == "ok"
            result = ServiceClient.solve_result(response)
            assert result.converged
            stats = client.stats()
            assert stats["service"]["requests"] == 1
            assert stats["cache"]["memory_entries"] >= 1

    def test_protocol_error_is_400(self, fresh_cache):
        with live_service(jobs=0) as (_service, client):
            with pytest.raises(ServiceError) as err:
                client.solve({"config": "test", "solver": "gmres"})
            assert err.value.status == 400

    def test_unknown_precond_is_400(self, fresh_cache):
        with live_service(jobs=0) as (_service, client):
            with pytest.raises(ServiceError) as err:
                client.solve({"config": "test", "precond": "cheby:4"})
            assert err.value.status == 400
            assert "unknown preconditioner" in str(err.value)
            assert client.stats()["service"]["errors"] == 1
            assert client.healthz()["ok"]

    def test_oversized_body_is_413_before_it_is_read(self, fresh_cache):
        import json
        import socket

        from repro.service.server import MAX_BODY_BYTES

        def exchange(port, content_length):
            # Headers only: a server that tried to read the body would
            # hang until the socket timeout instead of answering.
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                sock.sendall(
                    f"POST /solve HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {content_length}\r\n\r\n".encode())
                raw = b""
                while chunk := sock.recv(65536):
                    raw += chunk
            head, _, body = raw.partition(b"\r\n\r\n")
            return int(head.split()[1]), json.loads(body)

        with live_service(jobs=0) as (service, client):
            status, doc = exchange(service.port, MAX_BODY_BYTES + 1)
            assert status == 413
            assert doc["limit"] == MAX_BODY_BYTES
            assert doc["content_length"] == MAX_BODY_BYTES + 1
            assert "too large" in doc["error"]
            for bad in ("-5", "lots"):
                status, doc = exchange(service.port, bad)
                assert status == 400 and "Content-Length" in doc["error"]
            assert client.stats()["service"]["errors"] == 1
            assert client.healthz()["ok"]

    def test_unknown_route_is_404(self, fresh_cache):
        with live_service(jobs=0) as (_service, client):
            with pytest.raises(ServiceError) as err:
                client.job_status("job-999")
            assert err.value.status == 404

    def test_job_submit_stream_result(self, fresh_cache):
        _config, (rhs,) = _rhs_variants(1)
        with live_service(jobs=0, max_batch=1) as (_service, client):
            job = client.submit(_request(rhs=rhs))
            assert job["status"] in ("queued", "running")
            events = [e["event"] for e in client.stream(job["job"])]
            assert events[0] == "queued"
            assert events[-1] == "done"
            assert "scheduled" in events
            status = client.job_status(job["job"])
            assert status["status"] == "done"
            response = client.job_result(job["job"])
            assert response["status"] == "ok"
            assert ServiceClient.solve_result(response).converged

    def test_job_result_while_running_is_409(self, fresh_cache):
        _config, (rhs,) = _rhs_variants(1)
        with live_service(jobs=0, max_batch=1) as (_service, client):
            job = client.submit(_request(rhs=rhs,
                                         inject={"sleep": 0.4}))
            with pytest.raises(ServiceError) as err:
                client.job_result(job["job"])
            assert err.value.status == 409
            deadline = time.time() + 30
            while time.time() < deadline:
                if client.job_status(job["job"])["status"] == "done":
                    break
                time.sleep(0.05)
            assert client.job_result(job["job"])["status"] == "ok"

    def test_draining_rejects_new_requests(self, fresh_cache):
        with live_service(jobs=0) as (service, client):
            service.draining = True
            with pytest.raises(ServiceError) as err:
                client.solve(_request())
            assert err.value.status == 503
            service.draining = False


class TestWorkerCrashRetry:
    def test_process_worker_crash_retried_to_success(self, tmp_path):
        saved = get_cache()
        configure_cache(cache_dir=str(tmp_path), shards=4)
        try:
            _config, (rhs,) = _rhs_variants(1)
            with live_service(jobs=1, max_batch=1, retries=2) as \
                    (service, client):
                doc = _request(rhs=rhs, inject={"crash": 1})
                response = client.solve(doc)
                assert response["status"] == "ok"
                assert ServiceClient.solve_result(response).converged
                stats = client.stats()
                assert stats["executor"]["mode"] == "process"
                assert stats["executor"]["retried_attempts"] >= 1
                assert stats["executor"]["pool_rebuilds"] >= 1
                # regression: the NDJSON stream must terminate even
                # though pool workers forked while connections were
                # open hold dups of the sockets (the stream is chunked
                # and zero-chunk terminated, not close-delimited)
                job = client.submit(_request(rhs=rhs, tol=2e-6))
                events = [e["event"]
                          for e in client.stream(job["job"])]
                assert events[-1] == "done"
        finally:
            set_cache(saved)


# ----------------------------------------------------------------------
# repro serve subprocess: SIGTERM graceful drain
# ----------------------------------------------------------------------
class TestServeCliDrain:
    def _spawn(self, tmp_path, *extra):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache"), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        line = proc.stdout.readline().strip()
        assert line.startswith(READY_PREFIX), line
        return proc, int(line.rsplit("port=", 1)[1])

    def test_sigterm_exits_cleanly_when_idle(self, tmp_path):
        proc, port = self._spawn(tmp_path)
        client = ServiceClient(port=port, timeout=30)
        assert client.healthz()["ok"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

    def test_sigterm_drains_inflight_request(self, tmp_path):
        proc, port = self._spawn(tmp_path)
        client = ServiceClient(port=port, timeout=60)
        box = {}

        def solve():
            box["response"] = client.solve(
                _request(inject={"sleep": 0.6}))

        thread = threading.Thread(target=solve)
        thread.start()
        time.sleep(0.2)  # request is in flight (sleeping in worker)
        proc.send_signal(signal.SIGTERM)
        thread.join(timeout=60)
        assert proc.wait(timeout=30) == 0
        # the accepted request was served to completion, not dropped
        assert box["response"]["status"] == "ok"


# ----------------------------------------------------------------------
# in-solve resilience through the service
# ----------------------------------------------------------------------
class TestServiceResilience:
    def test_resilience_normalized_and_bucketed(self):
        req = normalize_request(_request(resilience=True))
        assert req["resilience"]["abft"] is True
        assert req["resilience"]["replicate_every"] > 0
        # equivalent spellings coalesce; armed vs unarmed never do
        assert normalize_request(
            _request(resilience={}))["resilience"] == req["resilience"]
        plain = dict(normalize_request(_request()),
                     solver="pcsi", engine="perrank", blocks=(4, 4))
        armed = dict(req, solver="pcsi", engine="perrank",
                     blocks=(4, 4))
        assert bucket_key(plain) != bucket_key(armed)
        with pytest.raises(ProtocolError):
            normalize_request(_request(resilience={"bogus_knob": 1}))
        with pytest.raises(ProtocolError):
            normalize_request(_request(resilience="yes"))

    def test_resilient_solve_counted_in_health_and_stats(
            self, fresh_cache):
        async def main():
            service = SolverService(jobs=0, max_batch=8,
                                    blocks=(4, 4))
            await service.start()
            out = await service.handle_solve(
                _request(resilience={"replicate_every": 10}))
            health = service.health()
            stats = service.stats()
            await service.shutdown()
            return out, health, stats

        out, health, stats = asyncio.run(main())
        assert out["status"] == "ok"
        assert out["result"]["converged"]
        # a serial/default engine request was auto-routed to a VM engine
        assert out["engine"] in ("perrank", "batched")
        assert health["ok"] and health["workers"]["alive"]
        assert health["queue_depth"] == 0
        assert health["resilience"]["resilient_solves"] == 1
        assert health["resilience"]["replications"] > 0
        assert stats["resilience"] == health["resilience"]
        assert 0.0 <= stats["cache"]["hit_ratio"] <= 1.0
        assert "queue_depth" in stats["coalescer"]
