"""The four solve workloads: one ``solver.solve(b)`` per op.

=========================  ==========================================
``serial_pcsi_evp``        full ``pop_1deg``, ``SerialContext``,
                           P-CSI + EVP: the ``repro solve`` default and
                           the plain single-process baseline.
``dist_land_pcsi_evp``     ``pop_1deg`` x0.375 on 48 cores with land
                           elimination (46 active): the paper's real
                           decomposition, which ``engine="auto"`` runs
                           rank by rank.
``dist_batched_multirhs``  same lattice without land elimination
                           (batched engine), ChronGear + EVP, 8 RHS per
                           solve: the ``_solve_multi`` loop.
``dist_batched_guarded``   same context, P-CSI + EVP, one RHS, with a
                           checkpoint policy and buddy replication +
                           ABFT: the guarded loop's hooks.
=========================  ==========================================
"""

import statistics

import numpy as np

from common import (
    CHECK_FREQ,
    OP_STREAM,
    TOL,
    WARMUP_STREAM,
    Workload,
    clock,
    digest_arrays,
    event_metrics,
    layer_metrics,
    make_rhs,
    perfmodel_metrics,
    residual_problems,
    rng_for,
    time_call,
    time_each,
)

SPECS = {
    "serial_pcsi_evp": dict(
        scale=1.0, cores=None, eliminate_land=False, solver="pcsi",
        nrhs=1, guarded=False, warmups=1),
    "dist_land_pcsi_evp": dict(
        scale=0.375, cores=48, eliminate_land=True, solver="pcsi",
        nrhs=1, guarded=False, warmups=1),
    "dist_batched_multirhs": dict(
        scale=0.375, cores=48, eliminate_land=False, solver="chrongear",
        nrhs=8, guarded=False, warmups=1),
    "dist_batched_guarded": dict(
        scale=0.375, cores=48, eliminate_land=False, solver="pcsi",
        nrhs=1, guarded=True, warmups=3),
}

CHECKPOINT_EVERY = 50
RESILIENCE = {"replicate_every": 10, "abft": True}

#: Traced layer -> (seconds metric, calls metric).
LAYERS = {
    "precond.apply": ("precond.apply_s", "precond.apply_calls"),
    "operators.matvec": ("operators.matvec_s", "operators.matvec_calls"),
    "parallel.exchange": ("parallel.exchange_s", "parallel.exchange_calls"),
    "parallel.reduce": ("parallel.reduce_s", "parallel.reduce_calls"),
    "parallel.scatter_gather": ("parallel.scatter_gather_s", None),
    "parallel.zeros": ("parallel.zeros_s", "parallel.zeros_calls"),
    "solvers.loop": ("solvers.loop_self_s", None),
    "solvers.vector_ops": ("solvers.vector_ops_s",
                           "solvers.vector_ops_calls"),
    "solvers.compact": ("solvers.compact_s", "solvers.compactions"),
    "core.checkpoint": ("core.checkpoint_write_s",
                        "core.checkpoint_writes"),
}

CONTEXT_WRAPS = (
    ("matvec", "operators.matvec"), ("residual", "operators.matvec"),
    ("dot", "parallel.reduce"), ("dot_pair", "parallel.reduce"),
    ("dot_block", "parallel.reduce"), ("norm2", "parallel.reduce"),
    ("axpy", "solvers.vector_ops"), ("xpay", "solvers.vector_ops"),
    ("combine", "solvers.vector_ops"), ("scale", "solvers.vector_ops"),
    ("copy", "solvers.vector_ops"), ("new_vector", "solvers.vector_ops"),
    ("from_global", "parallel.scatter_gather"),
    ("to_global", "parallel.scatter_gather"),
    ("compact", "solvers.compact"),
)
VM_WRAPS = (
    ("exchange", "parallel.exchange"),
    ("global_dot", "parallel.reduce"),
    ("global_dot_pair", "parallel.reduce"),
    ("global_dot_block", "parallel.reduce"),
    ("scatter", "parallel.scatter_gather"),
    ("gather", "parallel.scatter_gather"),
    ("zeros", "parallel.zeros"),
)
PRECOND_WRAPS = ("apply_global", "apply_block", "apply_stack")


def wrap_solver_stack(tracer, solver, ctx, pre, vm=None):
    """Span wrappers on one solver and everything it drives."""
    tracer.wrap(solver, "solve", "solvers.loop", name="solver.solve")
    for attr, layer in CONTEXT_WRAPS:
        tracer.wrap(ctx, attr, layer, name=f"ctx.{attr}")
    for attr in PRECOND_WRAPS:
        tracer.wrap(pre, attr, "precond.apply", name=f"precond.{attr}")
    if vm is not None:
        for attr, layer in VM_WRAPS:
            tracer.wrap(vm, attr, layer, name=f"vm.{attr}")


class SolveWorkload(Workload):
    """One of :data:`SPECS`; ``config`` overrides the grid (tests)."""

    config_base = "pop_1deg"

    def __init__(self, name, seed, tmp_dir, smoke=False, config=None):
        super().__init__(seed, tmp_dir, smoke=smoke)
        self.name = name
        self.spec = SPECS[name]
        self._config_override = config
        self.last_policy = None
        self.single_column_s = []

    # -- set-up --------------------------------------------------------
    def setup(self):
        from repro.grid import pop_1deg
        from repro.parallel import (
            VirtualMachine,
            decomposition_for_core_count,
        )
        from repro.precond.evp import evp_for_config
        from repro.solvers import (
            DistributedContext,
            SerialContext,
            make_solver,
        )

        spec = self.spec
        t0 = clock()
        self.config = (self._config_override if self._config_override
                       is not None else pop_1deg(scale=spec["scale"]))
        t1 = clock()
        cfg = self.config
        self.decomp = self.vm = None
        if spec["cores"] is not None:
            self.decomp = decomposition_for_core_count(
                cfg.ny, cfg.nx, spec["cores"], mask=cfg.mask,
                eliminate_land=spec["eliminate_land"])
            self.vm = VirtualMachine(self.decomp, mask=cfg.mask,
                                     engine="auto")
        t2 = clock()
        self.pre = evp_for_config(cfg, decomp=self.decomp)
        t3 = clock()
        if self.vm is None:
            self.ctx = SerialContext(cfg.stencil, self.pre)
        else:
            self.ctx = DistributedContext(cfg.stencil, self.pre, self.vm)
        self.solver = make_solver(spec["solver"], self.ctx, tol=TOL,
                                  check_freq=CHECK_FREQ)
        self.setup_layers = {"grid.build_s": t1 - t0,
                             "parallel.decompose_s": t2 - t1,
                             "precond.setup_s": t3 - t2}
        self.checkpoint_dir = self.tmp_dir / "checkpoints"
        if spec["guarded"]:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        warm = []
        for k in range(0 if self.smoke else spec["warmups"]):
            b = self._rhs(rng_for(self.seed, WARMUP_STREAM, k))
            t = clock()
            self.run_op(b)
            warm.append(clock() - t)
        self.first_solve_s = warm[0] if warm else None

    def _rhs(self, rng):
        nrhs = self.spec["nrhs"]
        if nrhs == 1:
            return make_rhs(self.config, rng)
        return np.stack([make_rhs(self.config, rng) for _ in range(nrhs)],
                        axis=-1)

    # -- one op --------------------------------------------------------
    def make_inputs(self, index):
        return self._rhs(rng_for(self.seed, OP_STREAM, index))

    def digest(self, inputs):
        return digest_arrays(inputs)

    def run_op(self, b):
        if not self.spec["guarded"]:
            return self.solver.solve(b)
        from repro.core.checkpoint import CheckpointPolicy

        policy = CheckpointPolicy(str(self.checkpoint_dir),
                                  every=CHECKPOINT_EVERY)
        if self.tracer is not None:
            self.tracer.wrap(policy, "write", "core.checkpoint",
                             name="checkpoint.write")
        self.last_policy = policy
        return self.solver.solve(b, checkpoint=policy,
                                 resilience=dict(RESILIENCE))

    def check(self, b, result):
        if not result.converged:
            return ["solver returned converged=False"]
        if self.spec["nrhs"] == 1:
            return residual_problems(self.config, b, result.x)
        problems = []
        for j in range(b.shape[2]):
            problems += residual_problems(self.config, b[..., j],
                                          result.x[..., j], f"column {j}")
        # The multi-RHS contract: a column of the batch is bit-identical
        # to its standalone solve on the same context.
        t0 = clock()
        alone = self.solver.solve(np.ascontiguousarray(b[..., 0]))
        self.single_column_s.append(clock() - t0)
        if not np.array_equal(alone.x, result.x[..., 0]):
            problems.append("column 0 differs from its standalone solve")
        return problems

    def summarize(self, result):
        per_rhs = result.extra.get("per_rhs_iterations")
        iterations = ([int(v) for v in per_rhs] if per_rhs is not None
                      else [int(result.iterations)])
        return {"iterations": iterations, "events": result.events,
                "setup_events": result.setup_events, "extra": result.extra}

    # -- tracing -------------------------------------------------------
    def install_wrappers(self, tracer):
        super().install_wrappers(tracer)
        wrap_solver_stack(tracer, self.solver, self.ctx, self.pre, self.vm)

    def describe(self):
        doc = {"config": self.config.describe(),
               "solver": self.spec["solver"], "precond": self.pre.name,
               "nrhs": self.spec["nrhs"],
               "engine": "serial" if self.vm is None else self.vm.engine}
        if self.decomp is not None:
            doc["decomposition"] = self.decomp.describe()
        return doc

    def per_layer(self, log, tracer):
        out = dict(self.setup_layers)
        out.update(layer_metrics(tracer, tracer.op_ids(), LAYERS))
        solve_span = statistics.median(
            tracer.duration(i) for i in tracer.indices(name="solver.solve")
            if tracer.ops[i] >= 0)
        out["trace.solve_span_s"] = solve_span
        # Every span inside a solve belongs to one of LAYERS, so their
        # self times must add up to the solve span; a shortfall means a
        # call path escaped the wrappers.
        layer_sum = sum(out[seconds] for seconds, _calls in LAYERS.values())
        out["trace.layer_sum_frac"] = layer_sum / solve_span
        first = log.outputs[0]
        out.update(event_metrics(first["events"], first["setup_events"]))
        out.update(perfmodel_metrics(self.config, self.config_base,
                                     first["events"], self.decomp,
                                     per_day=self.config.steps_per_day))
        out["solvers.lanczos_steps"] = first["extra"].get("lanczos_steps", 0)
        bare = log.samples(traced=False)
        if self.first_solve_s is not None and bare:
            out["solvers.first_solve_extra_s"] = (
                self.first_solve_s - statistics.median(bare))
        out["parallel.engine_batched"] = int(
            self.vm is not None and self.vm.is_batched)
        out.update(self._kernel_micro())
        if self.vm is not None and bare:
            out["parallel.engine_overhead_ratio"] = (
                statistics.median(bare) / self._serial_twin_s())
        if self.spec["nrhs"] > 1 and self.single_column_s and bare:
            out["solvers.multirhs_cost_ratio"] = statistics.median(bare) / (
                self.spec["nrhs"] * statistics.median(self.single_column_s))
        if self.spec["guarded"]:
            out.update(self._guard_metrics(log, bare))
        if self.name == "serial_pcsi_evp":
            out.update(self._cache_metrics())
            out.update(self._cli_metrics())
        return out

    def _kernel_micro(self):
        """Isolated calls on this workload's own arrays.  Bytes are
        computed from array sizes (nine coefficient planes, ``x`` read,
        ``out`` written), not measured, so no roofline ratio is given."""
        from repro.operators import apply_stencil
        from repro.operators.stencil_op import MATVEC_FLOPS_PER_POINT

        cfg = self.config
        x = rng_for(self.seed, WARMUP_STREAM, 99).standard_normal(cfg.shape)
        out = np.empty_like(x)
        z = np.empty_like(x)
        points = cfg.ny * cfg.nx
        flops = MATVEC_FLOPS_PER_POINT * points
        nbytes = 11 * points * x.itemsize
        return {
            "kernels.stencil_us": 1e6 * time_call(
                lambda: apply_stencil(cfg.stencil, x, out=out), 20),
            "kernels.stencil_flops": flops,
            "kernels.stencil_bytes_computed": nbytes,
            "kernels.stencil_flops_per_byte": flops / nbytes,
            "kernels.evp_apply_us": 1e6 * time_call(
                lambda: self.pre.apply_global(x, out=z), 10),
        }

    def _serial_twin_s(self):
        """Median solve time of the same problem (same preconditioner,
        same decomposition-derived ledger) on a ``SerialContext``."""
        from repro.solvers import SerialContext, make_solver

        ctx = SerialContext(self.config.stencil, self.pre,
                            decomp=self.decomp)
        solver = make_solver(self.spec["solver"], ctx, tol=TOL,
                             check_freq=CHECK_FREQ)
        times = time_each(lambda k: solver.solve(self.make_inputs(k)), 4)
        return statistics.median(times[1:])

    def _cache_metrics(self):
        """Does ``core.cache`` pay?  The EVP build against an empty
        disk tier, then against the tier it just filled (fresh memory
        tier), plus the bare store/load of that payload."""
        from repro.core.cache import ArtifactCache
        from repro.precond.evp import evp_for_config

        cache_dir = self.tmp_dir / "evp-cache"
        evp_for_config(self.config, cache=ArtifactCache(str(cache_dir)))
        t0 = clock()
        evp_for_config(self.config, cache=ArtifactCache(str(cache_dir)))
        cached_s = clock() - t0
        arrays = self.pre.influence_state()
        cache = ArtifactCache(str(self.tmp_dir / "micro-cache"),
                              memory=False)
        store_s = time_call(
            lambda: cache.store("bench", "payload", arrays=arrays,
                                meta={"n": len(arrays)}), 5)
        load_s = time_call(lambda: cache.load("bench", "payload"), 5)
        return {"precond.setup_cached_s": cached_s,
                "core.cache_store_ms": 1e3 * store_s,
                "core.cache_load_ms": 1e3 * load_s}

    def _cli_metrics(self):
        """The cold ``repro solve`` a user types, and what of it is
        interpreter start and ``import repro.cli``."""
        import os
        import subprocess
        import sys

        def run(args):
            t0 = clock()
            done = subprocess.run([sys.executable] + args, env=os.environ,
                                  stdout=subprocess.DEVNULL, timeout=120)
            return clock() - t0, done.returncode

        bare_s = min(run(["-c", "pass"])[0] for _ in range(3))
        import_s = min(run(["-c", "import repro.cli"])[0] for _ in range(3))
        solves = []
        for k in range(1 if self.smoke else 2):
            seconds, code = run([
                "-m", "repro", "solve", "--config", "pop_1deg",
                "--no-tuned", "--seed", str(self.seed + k), "--cache-dir",
                str(self.tmp_dir / f"cli-cache-{k}")])
            if code != 0:
                raise RuntimeError(f"repro solve exited with {code}")
            solves.append(seconds)
        return {"cli.import_s": import_s - bare_s,
                "cli.solve_s": statistics.median(solves)}

    def _guard_metrics(self, log, bare):
        import os

        plain = time_each(
            lambda k: self.solver.solve(self.make_inputs(k)), 6)
        summary = log.outputs[0]["extra"]["resilience"]
        counters = summary["counters"]
        written = self.last_policy.written if self.last_policy else []
        out = {
            "parallel.resilience_s": summary["seconds"],
            "parallel.resilience_replications": counters["replications"],
            "parallel.resilience_checks": (
                counters["halo_checks"] + counters["rowsum_checks"]
                + counters["residual_crosschecks"]),
            "core.checkpoint_bytes": sum(
                os.path.getsize(p) for p in written if os.path.exists(p)),
        }
        if bare:
            out["solvers.guard_overhead_frac"] = (
                statistics.median(bare) / statistics.median(plain[1:]) - 1.0)
        return out
