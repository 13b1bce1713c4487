"""The asyncio solver service: JSON over HTTP, stdlib only.

One process, one event loop, three moving parts wired together here:
the :class:`~repro.service.batching.Coalescer` dispatches a request at
once while one of the executor's solver slots is free and batches the
compatible requests that queue while every slot is busy into one
multi-RHS solve, the
:class:`~repro.service.executor.ServiceExecutor` runs each batch on its
slots -- one solver thread per usable core, or a rebuildable worker
pool with ``--jobs N`` -- with retry, and the
:class:`~repro.service.jobs.JobTable` gives asynchronous clients
submit/status/result/stream semantics.  Single-flight dedup sits in
front of the coalescer: byte-identical concurrent requests share one
solve, and a byte-budgeted response memo answers byte-identical
*repeat* requests without re-entering the scheduler.

Memory bounds
-------------
What the process retains per request is bounded, so a long-lived server
has a flat footprint: the response memo evicts least-recently-used
documents beyond :data:`MEMO_BUDGET_BYTES`; solves are *not* kept in
the artifact cache's memory tier (the memo answers repeats, the disk
tier answers restarts -- only grids, preconditioners and eigenbounds
stay live); and a request body above :data:`MAX_BODY_BYTES` is refused
with 413 before it is read.

Endpoints
---------
====== ======================= =======================================
POST   /solve                  solve synchronously (coalesced)
POST   /jobs                   submit an async job; returns its id
GET    /jobs/<id>              job status
GET    /jobs/<id>/result       job response (409 while running)
GET    /jobs/<id>/stream       NDJSON lifecycle events until terminal
GET    /stats                  coalescer + cache + pool + job counters
GET    /healthz                liveness (+ draining flag, kernels in use)
====== ======================= =======================================

Shutdown: SIGTERM/SIGINT stop accepting connections, flush every
waiting batch, await all running solves and jobs, then exit -- no
accepted request is dropped (covered by the drain test).
"""

import asyncio
import ctypes
import json
import signal
import tempfile

import numpy as np

from repro.core.cache import get_cache
from repro.core.errors import ReproError
from repro.core.pool import FailurePolicy
from repro.experiments.common import FULL_SHAPES
from repro.kernels import resolve_kernels
from repro.reporting.serialize import solve_result_to_doc
from repro.service.batching import Coalescer
from repro.service.executor import ServiceExecutor
from repro.service.jobs import DONE, FAILED, JobTable
from repro.service.protocol import (
    DEFAULT_PRECOND,
    DEFAULT_SOLVER,
    ProtocolError,
    bucket_key,
    normalize_request,
    request_content_key,
    split_result,
)

#: stdout line announcing the bound address; the benchmark harness and
#: the subprocess tests wait for it.
READY_PREFIX = "repro-service ready"

#: Response-memo budget.  An entry is charged the length of its encoded
#: solution (the base64 text is all but a few hundred bytes of a
#: response) plus :data:`_MEMO_ENTRY_OVERHEAD`.
MEMO_BUDGET_BYTES = 8 * 1024 * 1024
_MEMO_ENTRY_OVERHEAD = 2048

#: Largest request body read: one float64 field of the largest named
#: grid, base64-encoded, plus room for the scalar fields.  A request
#: carries exactly one 2-D right-hand side, so nothing legitimate is
#: larger.
_LARGEST_FIELD_BYTES = 8 * max(ny * nx for ny, nx in FULL_SHAPES.values())
MAX_BODY_BYTES = 4 * ((_LARGEST_FIELD_BYTES + 2) // 3) + 64 * 1024


class SolverService:
    """One solver-service process (construct, then ``await run()``)."""

    def __init__(self, host="127.0.0.1", port=0, jobs=0, max_batch=8,
                 blocks=(4, 4), engine=None, tuned=True, retries=2,
                 backoff=0.25, job_timeout=None,
                 memo_bytes=MEMO_BUDGET_BYTES):
        self.host = host
        self.port = int(port)
        self.blocks = (int(blocks[0]), int(blocks[1]))
        self.engine = engine
        self.tuned = bool(tuned)
        cache = get_cache()
        cache_dir = cache.cache_dir
        if jobs and cache_dir is None:
            # Worker processes can only share solves through the disk
            # tier; give a memory-only cache an ephemeral directory.
            cache_dir = tempfile.mkdtemp(prefix="repro-service-cache-")
            cache.cache_dir = cache_dir
        self.executor = ServiceExecutor(
            jobs=jobs, cache_dir=cache_dir, shards=cache.shards or None,
            max_bytes=cache.max_bytes,
            policy=FailurePolicy(mode="retry", retries=int(retries),
                                 backoff=float(backoff)),
            timeout=job_timeout)
        self.coalescer = Coalescer(self._run_batch, max_batch=max_batch,
                                   slots=self.executor.slots)
        self.executor.on_abandon = self.coalescer.hold
        self.jobs = JobTable()
        self.draining = False
        #: Which kernels solves run on (resolved here, not per request:
        #: the first use loads -- once per machine, builds -- native.c).
        self.kernels = resolve_kernels(None).describe()
        self.server = None
        self._stop = None
        self._inflight = {}
        #: content key -> (response doc, charged bytes), least
        #: recently used first.
        self._memo = {}
        self._memo_budget = min(int(memo_bytes), MEMO_BUDGET_BYTES)
        self._memo_bytes = 0
        self._tuned_memo = {}
        self._handlers = set()
        self.counters = {"requests": 0, "errors": 0,
                         "dedup_inflight": 0, "dedup_memo": 0,
                         "memo_evictions": 0, "tuned_applied": 0}
        self.resilience_counters = {
            "resilient_solves": 0, "replications": 0, "rollbacks": 0,
            "rank_deaths": 0, "sdc_detected": 0, "recoveries": 0}

    # ------------------------------------------------------------------
    # request pipeline: dedup -> coalesce -> execute -> split
    # ------------------------------------------------------------------
    async def handle_solve(self, doc, job=None):
        """Serve one solve request document; returns the response doc."""
        self.counters["requests"] += 1
        req = normalize_request(doc)
        self._resolve_choice(req)
        content_key = request_content_key(req)
        memo = self._memo.pop(content_key, None)
        if memo is not None:
            self._memo[content_key] = memo  # most recently used last
            self.counters["dedup_memo"] += 1
            return dict(memo[0], dedup=True)
        shared = self._inflight.get(content_key)
        if shared is not None:
            self.counters["dedup_inflight"] += 1
            if job is not None:
                job.add_event("deduplicated")
            response = await asyncio.shield(shared)
            return dict(response, dedup=True)
        future = asyncio.get_running_loop().create_future()
        self._inflight[content_key] = future
        try:
            if job is not None:
                job.add_event("scheduled")
            response = await self.coalescer.submit(bucket_key(req), req)
            if req["inject"] is None:
                self._memoize(content_key, response)
            future.set_result(response)
            return response
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # consumed: waiters get their own copy
            raise
        finally:
            self._inflight.pop(content_key, None)

    async def _run_batch(self, key, reqs):
        """Coalescer runner: one bucket's requests -> one solve."""
        config = self._config_for(reqs[0])
        rhs_list = []
        for req in reqs:
            if req["rhs"] is None:
                from repro.experiments.common import reference_rhs

                req["rhs"] = reference_rhs(config)
            rhs_list.append(np.asarray(req["rhs"], dtype=np.float64))
        rhs = (rhs_list[0] if len(rhs_list) == 1
               else np.stack(rhs_list, axis=-1))
        inject = next((r["inject"] for r in reqs if r["inject"]), None)
        template = reqs[0]
        task = {
            "config": template["config"], "scale": template["scale"],
            "seed": template["seed"], "solver": template["solver"],
            "precond": template["precond"], "tol": template["tol"],
            "check_freq": template["check_freq"],
            "max_iterations": template["max_iterations"],
            "engine": template["engine"], "blocks": template["blocks"],
            "rhs": rhs, "inject": inject,
            "resilience": template["resilience"],
        }
        batch_result = await self.executor.run(task)
        self._count_resilience(batch_result)
        if len(reqs) == 1:
            results = [batch_result]
        else:
            results = [split_result(batch_result, j)
                       for j in range(len(reqs))]
        return [self._response_doc(req, res, len(reqs))
                for req, res in zip(reqs, results)]

    def _response_doc(self, req, result, batch):
        return {
            "status": "ok",
            "result": solve_result_to_doc(result),
            "solver": req["solver"],
            "precond": req["precond"],
            "engine": req["engine"],
            "tuned": bool(req.get("_tuned")),
            "batch": int(batch),
            "coalesced": batch > 1,
            "dedup": False,
        }

    def _count_resilience(self, batch_result):
        """Fold one solve's resilience summary into the service totals."""
        summary = (batch_result.extra or {}).get("resilience")
        if summary is None:
            return
        totals = self.resilience_counters
        totals["resilient_solves"] += 1
        totals["recoveries"] += len(summary.get("recoveries", []))
        for name in ("replications", "rollbacks", "rank_deaths",
                     "sdc_detected"):
            totals[name] += int(summary["counters"].get(name, 0))

    def _memoize(self, content_key, response):
        """Remember ``response`` within the byte budget (LRU eviction;
        a document larger than the whole budget is not kept)."""
        size = (len(response["result"]["x"]["data"])
                + _MEMO_ENTRY_OVERHEAD)
        if size > self._memo_budget:
            return
        self._memo_bytes += size - self._memo.pop(content_key, (None, 0))[1]
        self._memo[content_key] = (response, size)
        while self._memo_bytes > self._memo_budget:
            _, evicted = self._memo.pop(next(iter(self._memo)))
            self._memo_bytes -= evicted
            self.counters["memo_evictions"] += 1

    # ------------------------------------------------------------------
    # tuned-choice auto-apply
    # ------------------------------------------------------------------
    def _config_for(self, req):
        from repro.experiments.common import get_cached_config

        return get_cached_config(req["config"], scale=req["scale"],
                                 seed=req["seed"])

    def _tuned_choice(self, req):
        """The persisted ``repro tune`` winner for the request's grid
        (memoized per grid; ``None`` when nothing was tuned)."""
        memo_key = (req["config"], req["scale"], req["seed"])
        if memo_key in self._tuned_memo:
            return self._tuned_memo[memo_key]
        choice = None
        try:
            from repro.parallel import decompose
            from repro.tuning import load_tuned_choice

            config = self._config_for(req)
            decomp = decompose(config.ny, config.nx, self.blocks[0],
                               self.blocks[1], mask=config.mask)
            choice = load_tuned_choice(config, decomp)
        except ReproError:
            choice = None
        self._tuned_memo[memo_key] = choice
        return choice

    def _resolve_choice(self, req):
        """Fill omitted solver/precond/engine from the tuned choice,
        the server defaults, or the documented fallbacks.

        Resolution order per field: explicit request value > the
        persisted ``repro tune`` winner (when the request left solver
        or precond open) > the server default.  ``blocks`` defaults to
        the server's ``--blocks`` whenever a decomposed engine ends up
        selected; with no engine it is cleared so the bucket and
        content keys stay canonical.
        """
        open_choice = req["solver"] is None or req["precond"] is None
        choice = (self._tuned_choice(req)
                  if self.tuned and open_choice else None)
        applied = False
        if req["solver"] is None:
            req["solver"] = ((choice or {}).get("solver")
                             or DEFAULT_SOLVER)
            applied = applied or bool(choice)
        if req["precond"] is None:
            req["precond"] = ((choice or {}).get("precond")
                              or DEFAULT_PRECOND)
            applied = applied or bool(choice)
        if req["engine"] is None:
            req["engine"] = ((choice or {}).get("engine")
                             if applied else None) or self.engine
        if req.get("resilience") is not None \
                and req["engine"] in (None, "serial"):
            # Buddy replication and ABFT live in the virtual machine,
            # which the serial context bypasses.
            req["engine"] = "batched"
        if req["engine"] is None:
            req["blocks"] = None
        elif req["blocks"] is None:
            req["blocks"] = tuple((choice or {}).get("blocks")
                                  or self.blocks)
        req["_tuned"] = applied
        if applied:
            self.counters["tuned_applied"] += 1

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self):
        cache = get_cache()
        return {
            "service": dict(self.counters, draining=self.draining,
                            memo_entries=len(self._memo),
                            memo_bytes=self._memo_bytes),
            "coalescer": self.coalescer.stats(),
            "executor": self.executor.stats(),
            "jobs": self.jobs.stats(),
            "cache": dict(cache.stats(), hit_ratio=cache.hit_ratio),
            "resilience": dict(self.resilience_counters),
        }

    def health(self):
        """Liveness document: worker-pool state + resilience tallies."""
        executor = self.executor.stats()
        pool = self.executor.handle
        workers_ok = True
        if pool is not None:
            workers_ok = not getattr(
                getattr(pool, "pool", None), "_broken", False)
        return {
            "ok": bool(workers_ok),
            "draining": self.draining,
            "workers": dict(executor, alive=bool(workers_ok)),
            "queue_depth": self.coalescer.stats()["queue_depth"],
            "resilience": dict(self.resilience_counters),
            "kernels": self.kernels,
        }

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def start(self):
        self.server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def run(self, announce=print, install_signals=True):
        """Start, announce readiness, serve until SIGTERM, drain."""
        self._stop = asyncio.Event()
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_shutdown)
        if announce is not None:
            announce(f"{READY_PREFIX} host={self.host} "
                     f"port={self.port}", flush=True)
        await self._stop.wait()
        await self.shutdown()

    def request_shutdown(self):
        """Begin the graceful drain (signal handler entry point)."""
        self.draining = True
        if self._stop is not None:
            self._stop.set()

    async def shutdown(self):
        """Stop accepting, flush batches, await jobs, release workers."""
        self.draining = True
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        await self.coalescer.drain()
        await self.jobs.drain()
        while self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)
        self.executor.shutdown()

    async def _serve_connection(self, reader, writer):
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._handle_http(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_http(self, reader, writer):
        request_line = (await reader.readline()).decode(
            "latin-1").strip()
        if not request_line:
            return
        try:
            method, target, _version = request_line.split(None, 2)
        except ValueError:
            await _respond(writer, 400, {"error": "bad request line"})
            return
        headers = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            await _respond(writer, 400, {"error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            # Refused unread: the connection closes with the response.
            self.counters["errors"] += 1
            await _respond(writer, 413, {
                "error": "request body too large",
                "content_length": length, "limit": MAX_BODY_BYTES})
            return
        body = await reader.readexactly(length) if length else b""
        await self._route(writer, method.upper(), target, body)

    async def _route(self, writer, method, target, body):
        if method == "GET" and target == "/healthz":
            await _respond(writer, 200, self.health())
            return
        if method == "GET" and target == "/stats":
            await _respond(writer, 200, self.stats())
            return
        if method == "POST" and target in ("/solve", "/jobs"):
            if self.draining:
                await _respond(writer, 503, {"error": "draining"})
                return
            try:
                doc = json.loads(body.decode("utf-8") or "null")
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                await _respond(writer, 400,
                               {"error": f"invalid JSON: {err}"})
                return
            if target == "/solve":
                await self._route_solve(writer, doc)
            else:
                job = self.jobs.submit(
                    lambda j, d=doc: self.handle_solve(d, job=j))
                await _respond(writer, 202, job.describe())
            return
        if method == "GET" and target.startswith("/jobs/"):
            await self._route_job(writer, target)
            return
        await _respond(writer, 404,
                       {"error": f"no route {method} {target}"})

    async def _route_solve(self, writer, doc):
        try:
            response = await self.handle_solve(doc)
        except ProtocolError as err:
            self.counters["errors"] += 1
            await _respond(writer, 400, {"error": str(err)})
            return
        except ReproError as err:
            self.counters["errors"] += 1
            await _respond(writer, 500, {
                "error": f"{type(err).__name__}: {err}"})
            return
        await _respond(writer, 200, response)

    async def _route_job(self, writer, target):
        parts = target.strip("/").split("/")
        job = self.jobs.get(parts[1]) if len(parts) >= 2 else None
        if job is None:
            await _respond(writer, 404, {"error": "no such job"})
            return
        tail = parts[2] if len(parts) >= 3 else None
        if tail is None:
            await _respond(writer, 200, job.describe())
        elif tail == "result":
            if job.status == DONE:
                await _respond(writer, 200, job.response)
            elif job.status == FAILED:
                await _respond(writer, 500, job.describe())
            else:
                await _respond(writer, 409, job.describe())
        elif tail == "stream":
            # Chunked, zero-chunk terminated: the client must learn the
            # stream ended without waiting for a FIN -- worker processes
            # forked while this connection is open inherit a dup of its
            # fd, so closing the server-side socket alone does not
            # reliably reach the client.
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n")
            await writer.drain()
            async for event in self.jobs.stream(job):
                payload = json.dumps(event, sort_keys=True) \
                    .encode("utf-8") + b"\n"
                writer.write(f"{len(payload):x}\r\n".encode("latin-1")
                             + payload + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        else:
            await _respond(writer, 404, {"error": f"no route {tail!r}"})


async def _respond(writer, status, doc):
    reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
              404: "Not Found", 409: "Conflict",
              413: "Payload Too Large", 500: "Internal Server Error",
              503: "Service Unavailable"}.get(status, "OK")
    body = json.dumps(doc, sort_keys=True).encode("utf-8")
    writer.write(
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode("latin-1") + body)
    await writer.drain()


#: glibc's ``mallopt`` parameter for the malloc arena cap.
_M_ARENA_MAX = -8


def _one_malloc_arena():
    """Cap glibc at one malloc arena; off glibc there is no ``mallopt``
    and nothing to do."""
    try:
        ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1)
    except (OSError, AttributeError, TypeError):
        pass


def serve(host="127.0.0.1", port=0, jobs=0, max_batch=8, blocks=(4, 4),
          engine=None, tuned=True, retries=2, job_timeout=None,
          announce=print):
    """Blocking entry point: run a service until SIGTERM/SIGINT.

    The process is the server's, so with more than one solver thread it
    caps glibc at one malloc arena: the threads allocate while holding
    the GIL, so the per-thread arenas glibc would give them buy no
    concurrency and only keep freed memory (a second solver thread's
    arena raised the server's peak RSS by 3-4 %).  A
    :class:`SolverService` embedded in another process leaves its
    allocator alone.
    """
    service = SolverService(host=host, port=port, jobs=jobs,
                            max_batch=max_batch, blocks=blocks,
                            engine=engine, tuned=tuned, retries=retries,
                            job_timeout=job_timeout)
    if service.executor.handle is None and service.executor.slots > 1:
        _one_malloc_arena()
    asyncio.run(service.run(announce=announce))
    return service
