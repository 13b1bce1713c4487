"""``service_closed2``: the HTTP solver service under a closed loop.

A ``python -m repro.cli serve`` subprocess with the server defaults
(serial engine, ``--max-batch 8``, ``--max-wait-ms 25``) and a fresh
cache directory; two client threads each send ``POST /solve`` (P-CSI +
diagonal on ``pop_1deg`` x0.375, base64 RHS of about 184 kB) and wait
for the reply before sending the next.  Closed loop because callers
wait for their answer; two connections because the box has two cores.
Every fourth request of a client is byte-identical to an earlier one of
the other client, so the response memo and single-flight dedup see
traffic.  An op is one request.

The traced run swaps the subprocess for a :class:`SolverService` inside
this process (its own event-loop thread) so the harness can put spans
on ``handle_solve``, ``coalescer.submit`` and ``executor.run``.
"""

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import threading

import numpy as np

from common import (
    CHECK_FREQ,
    OP_STREAM,
    TOL,
    WARMUP_STREAM,
    OpLog,
    Workload,
    clock,
    digest_arrays,
    make_rhs,
    residual_problems,
    rng_for,
    time_call,
    time_each,
)

SCALE = 0.375
CLIENTS = 2
REPEAT_EVERY = 4
REQUEST_FIELDS = dict(scale=SCALE, solver="pcsi", precond="diagonal",
                      tol=TOL, check_freq=CHECK_FREQ)
SERVER_TIMEOUT_S = 60.0


class _SubprocessServer:
    """``repro serve`` on an OS-assigned port with its own cache."""

    def __init__(self, cache_dir):
        from repro.service import READY_PREFIX

        t0 = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--no-tuned", "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, text=True, env=os.environ)
        line = self.proc.stdout.readline()
        self.ready_s = clock() - t0
        if not line.startswith(READY_PREFIX):
            self.close()
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.rsplit("port=", 1)[1])

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class _InProcessServer:
    """A :class:`SolverService` on a thread of this process."""

    def __init__(self, cache_dir):
        from repro.core.cache import configure_cache
        from repro.service.server import SolverService

        configure_cache(cache_dir=str(cache_dir))
        self.service = SolverService(port=0, tuned=False)
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self._run, args=(ready,), name="bench-service")
        self.thread.start()
        if not ready.wait(SERVER_TIMEOUT_S):
            raise RuntimeError("in-process service did not come up")
        self.port = self.service.port

    def _run(self, ready):
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.service.run(
                announce=lambda *_a, **_k: ready.set(),
                install_signals=False))
        finally:
            self.loop.close()

    def close(self):
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.service.request_shutdown)
            self.thread.join(SERVER_TIMEOUT_S)


class ServiceWorkload(Workload):
    name = "service_closed2"
    server = None

    def prepare_requests(self):
        """Everything the load generator needs short of a server."""
        from repro.grid import pop_1deg
        from repro.service import ServiceClient

        self.config = pop_1deg(scale=SCALE)
        self.client_cls = ServiceClient
        self._requests = {}
        self._requests_lock = threading.RLock()  # both clients fill it
        #: Added to the index of every fresh request, so a second
        #: window can draw requests the first one has not memoized.
        self.stream_offset = 0

    def setup(self):
        self.prepare_requests()
        spawned = clock()
        self.server = _SubprocessServer(self.tmp_dir / "server-cache")
        self.setup_layers = {"service.ready_s": self.server.ready_s}
        if not self.smoke:
            doc, b = self._fresh_request(WARMUP_STREAM, 0)
            response = self.client_cls(port=self.server.port).solve(doc)
            problems = self._response_problems(b, response)
            if problems:
                raise RuntimeError(f"warm-up request failed: {problems}")
        #: Spawn -> READY -> warm-up answered: the service's set-up,
        #: not what this harness process spent importing.
        self.setup_s = clock() - spawned

    # -- requests ------------------------------------------------------
    def _fresh_request(self, stream, index):
        b = make_rhs(self.config, rng_for(self.seed, stream, index))
        doc = self.client_cls.make_request(config="pop_1deg", rhs=b,
                                           **REQUEST_FIELDS)
        return doc, b

    def request_for(self, client, index):
        """Request ``index`` of ``client``: a fresh RHS, or -- every
        fourth -- the other client's request two places back."""
        key = (client, index)
        with self._requests_lock:
            if key not in self._requests:
                if index % REPEAT_EVERY == REPEAT_EVERY - 1:
                    self._requests[key] = self.request_for(
                        CLIENTS - 1 - client, index - 2)
                else:
                    self._requests[key] = self._fresh_request(
                        OP_STREAM,
                        client * 1_000_000 + self.stream_offset + index)
            return self._requests[key]

    def _response_problems(self, b, response):
        if response.get("status") != "ok":
            return [f"status {response.get('status')!r}"]
        result = self.client_cls.solve_result(response)
        if not result.converged:
            return ["response says converged=False"]
        return residual_problems(self.config, b, result.x)

    # -- the closed loop -----------------------------------------------
    def measure(self, seconds, tracer=None, port=None):
        """Two clients, each sending its next request when the last one
        is answered, until ``seconds`` have passed.  Responses are
        checked after the window so the clients do nothing but wait."""
        port = self.server.port if port is None else port
        records = [[] for _ in range(CLIENTS)]
        start = clock()

        def client_loop(client):
            http = self.client_cls(port=port)
            index = 0
            while index < 1 or (not self.smoke
                                and clock() - start < seconds):
                doc, b = self.request_for(client, index)
                t0 = clock()
                try:
                    if tracer is not None:
                        with tracer.span("client.request", "service.client"):
                            response = http.solve(doc)
                    else:
                        response = http.solve(doc)
                    error = None
                except Exception as exc:  # refused or failed: counted
                    response = None
                    error = f"{type(exc).__name__}: {exc}"
                records[client].append(
                    (index, clock() - t0, b, response, error))
                index += 1

        threads = [threading.Thread(target=client_loop, args=(c,),
                                    name=f"bench-client-{c}")
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window_s = clock() - start
        return self._log_from(records, window_s, traced=tracer is not None)

    def _log_from(self, records, window_s, traced):
        log = OpLog()
        log.busy_s = window_s
        first_answer = {}
        for client, rows in enumerate(records):
            for index, latency, b, response, error in rows:
                log.attempted += 1
                log.digests.append(digest_arrays(b))
                problems = ([error] if error
                            else self._response_problems(b, response))
                if not problems:
                    # A repeated request must get the first answer's
                    # bytes back, whoever asked first.
                    data = response["result"]["x"]["data"]
                    if first_answer.setdefault(log.digests[-1], data) != data:
                        problems = ["repeat answered with different bytes"]
                if problems:
                    log.failures.append(
                        f"client {client} request {index}: "
                        + "; ".join(problems))
                    continue
                log.durations.append(latency)
                log.traced.append(traced)
                log.rhs += 1
                log.iterations.append(int(response["result"]["iterations"]))
                log.outputs.append({"dedup": bool(response["dedup"]),
                                    "batch": int(response["batch"])})
        return log

    def describe(self):
        return {"config": self.config.describe(), "solver": "pcsi",
                "precond": "diagonal", "engine": "serial (server default)",
                "clients": CLIENTS, "loop": "closed",
                "server": "repro.cli serve --max-batch 8 --max-wait-ms 25"}

    def peak_rss_mb(self):
        """Peak RSS of the *server* process (this one only waits)."""
        import resource

        self.close()
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        if self.server is not None:
            self.server.close()

    # -- traced run ----------------------------------------------------
    def traced_measure(self, seconds, tracer):
        """Bare then traced window against an in-process service; the
        returned log holds the traced window plus the bare window's
        samples and failures."""
        server = _InProcessServer(self.tmp_dir / "inproc-cache")
        try:
            service = server.service
            bare = self.measure(seconds / 2.0, port=server.port)
            # The traced window must not be answered from the memo the
            # bare window filled: it draws a disjoint request stream.
            self._requests = {}
            self.stream_offset = 500_000
            before = service.stats()
            tracer.wrap(service, "handle_solve", "service.handle",
                        name="service.handle_solve")
            tracer.wrap(service.coalescer, "submit", "service.window",
                        name="coalescer.submit")
            tracer.wrap(service.executor, "run", "service.executor",
                        name="executor.run")
            try:
                traced = self.measure(seconds / 2.0, tracer=tracer,
                                      port=server.port)
            finally:
                tracer.unwrap_all()
            after = service.stats()
        finally:
            server.close()
        metrics = dict(self.setup_layers)
        metrics.update(_span_metrics(tracer))
        metrics.update(_stats_delta(before, after))
        metrics.update(self._micro(traced))
        if traced.durations:
            p50 = statistics.median(traced.durations)
            metrics["service.request_p50_ms"] = 1e3 * p50
            metrics["service.overhead_frac"] = (
                1.0 - metrics["service.executor_ms"] / (1e3 * p50))
        traced.durations += bare.durations
        traced.traced += bare.traced
        traced.attempted += bare.attempted
        traced.failures += bare.failures
        return traced, metrics

    def _micro(self, log):
        """Isolated calls on this workload's own documents."""
        from repro.reporting.serialize import (
            solve_result_from_doc,
            solve_result_to_doc,
        )
        from repro.service.executor import run_service_task_inline
        from repro.service.protocol import (
            normalize_request,
            request_content_key,
        )

        doc, _b = self.request_for(0, 0)
        body = json.dumps(doc)
        req = normalize_request(json.loads(body))

        def task(columns, offset):
            rhs = [make_rhs(self.config,
                            rng_for(self.seed, WARMUP_STREAM, offset + k))
                   for k in range(columns)]
            return {**{k: req[k] for k in (
                "config", "scale", "seed", "solver", "precond", "tol",
                "check_freq", "max_iterations", "engine", "blocks",
                "resilience")},
                "rhs": rhs[0] if columns == 1 else np.stack(rhs, axis=-1),
                "inject": None}

        # A fresh RHS per call: the executor content-addresses solves,
        # and a repeat would time the cache, not the solve.
        def median_task_s(columns, base):
            tasks = [task(columns, base + 10 * k) for k in range(3)]
            return statistics.median(time_each(
                lambda k: run_service_task_inline(tasks[k]), 3))

        pair_s = median_task_s(2, 100)
        solo_s = median_task_s(1, 200)
        solo = run_service_task_inline(task(1, 300))
        result_doc = solve_result_to_doc(solo)
        encoded = json.dumps(result_doc)
        return {
            "service.request_bytes": len(body),
            "reporting.response_bytes": len(encoded),
            "service.decode_ms": 1e3 * time_call(
                lambda: normalize_request(json.loads(body)), 10),
            "service.content_key_ms": 1e3 * time_call(
                lambda: request_content_key(req), 10),
            "reporting.encode_ms": 1e3 * time_call(
                lambda: json.dumps(solve_result_to_doc(solo)), 10),
            "reporting.decode_ms": 1e3 * time_call(
                lambda: solve_result_from_doc(json.loads(encoded)), 10),
            "service.executor_ms": 1e3 * pair_s,
            "service.solo_solve_ms": 1e3 * solo_s,
        }


def _span_metrics(tracer):
    """Where a request's time went inside the traced service."""
    handles = tracer.indices(name="service.handle_solve")
    submits = tracer.indices(name="coalescer.submit")
    runs = tracer.indices(name="executor.run")
    clients = tracer.indices(name="client.request")
    out = {}
    scheduled = {tracer.parents[i] for i in submits}
    self_ms = [1e3 * tracer.self_time(i) for i in handles if i in scheduled]
    if self_ms:
        out["service.handle_self_ms"] = statistics.median(self_ms)
    waits = []
    for s in submits:
        inside = [r for r in runs
                  if tracer.starts[s] <= tracer.starts[r]
                  and tracer.ends[r] <= tracer.ends[s]]
        if inside:
            # The batch that answered this submission is the last one
            # that ran inside it; everything before was the window.
            waits.append(1e3 * (tracer.starts[inside[-1]]
                                - tracer.starts[s]))
    if waits:
        out["service.window_wait_ms"] = statistics.median(waits)
    if handles and len(handles) == len(clients):
        # k-th request sent is the k-th handled: pair by start order.
        by_start = lambda idx: sorted(idx, key=tracer.starts.__getitem__)
        out["service.http_json_ms"] = statistics.median(
            1e3 * (tracer.duration(c) - tracer.duration(h))
            for c, h in zip(by_start(clients), by_start(handles)))
    return out


def _stats_delta(before, after):
    """*Count* metrics from the service's own ``/stats`` counters."""
    def delta(section, field):
        return after[section][field] - before[section][field]

    requests = delta("service", "requests")
    batches = delta("coalescer", "dispatched_batches")
    lookups = sum(delta("cache", f)
                  for f in ("memory_hits", "disk_hits", "misses"))
    hits = delta("cache", "memory_hits") + delta("cache", "disk_hits")
    return {
        "service.dispatched_batches": batches,
        "service.mean_batch_size": (
            delta("coalescer", "batched_requests") / batches
            if batches else 0.0),
        "service.held_windows": delta("coalescer", "held_windows"),
        "service.memo_hit_ratio": (
            delta("service", "dedup_memo") / requests if requests else 0.0),
        "service.inflight_dedup": delta("service", "dedup_inflight"),
        "service.errors": delta("service", "errors"),
        "core.cache_hit_ratio": hits / lookups if lookups else 0.0,
    }
