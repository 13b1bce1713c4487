"""Fault-injection smoke: the injector x engine matrix, end to end.

Runs every fault injector against every execution engine and asserts the
guardrail contract from the outside, the way CI consumes it: each
injected corruption must surface as a structured
:class:`~repro.solvers.health.SolverDiagnosis` (or, for the eigenbound
skew with recovery enabled, as a converged solve whose retry cost sits
in the ``"recovery"`` phase) -- never a silent wrong answer, never an
unhandled exception.

Further sections extend the contract to the resilience layer:

* **in-solve resilience** -- the chaos injectors (``rank_death``,
  ``bitflip``) run against solves armed with a
  :class:`~repro.parallel.resilience.ResiliencePolicy`, which must
  recover *bit-identically* to an undisturbed solve on both engines;
* **replication_overhead** -- buddy replication at the default
  interval on a 16x16-block P-CSI+EVP solve on the per-rank engine must
  cost < 5 % of the solve wall clock (self-timed by the runtime); the
  batched engine's fraction of the same solve is recorded beside it,
  not gated;
* **pipeline** -- the infrastructure injectors (``worker_crash``,
  ``slow_rank``, ``cache_corrupt``) run against a live ``run_all``
  pipeline, which must complete with zero failed steps (retry, pool
  rebuild, quarantine + rebuild);
* **checkpoint_overhead** -- a checkpointed distributed solve at the
  default snapshot interval (every 50 iterations) must spend < 2 % of
  its wall clock in its checkpoint policy: handing snapshots to the
  writer thread and waiting for them (the writing itself runs beside
  the solve).

Writes one JSON document per run with the diagnosis of every scenario
(uploaded as a CI artifact), and exits non-zero if any scenario breaks
the contract.

Usage::

    PYTHONPATH=src python benchmarks/fault_smoke.py --out fault_diagnoses.json
"""

import argparse
import json
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import CheckpointPolicy  # noqa: E402
from repro.core.cache import ArtifactCache, get_cache, set_cache  # noqa: E402
from repro.core.errors import ConvergenceError  # noqa: E402
from repro.grid import test_config as make_test_config  # noqa: E402
from repro.operators import apply_stencil  # noqa: E402
from repro.parallel import (  # noqa: E402
    CacheCorruptFault,
    SlowRankFault,
    VirtualMachine,
    WorkerCrashFault,
    decompose,
    make_fault,
)
from repro.precond import make_preconditioner  # noqa: E402
from repro.precond.evp import evp_for_config  # noqa: E402
from repro.reporting import FailurePolicy, run_all  # noqa: E402
from repro.solvers import (  # noqa: E402
    RECOVERABLE_KINDS,
    ChronGearSolver,
    DistributedContext,
    PCGSolver,
    PCSISolver,
    PipeCGSolver,
)

ENGINES = ("perrank", "batched")

SOLVERS = {
    "chrongear": ChronGearSolver,
    "pcsi": PCSISolver,
    "pcg": PCGSolver,
    "pipecg": PipeCGSolver,
}

#: The matrix: (scenario name, solver, fault spec, solver kwargs,
#: expected outcome).  ``diagnosed`` = the solve must fail with a
#: structured diagnosis; ``recovered`` = the solve must converge with
#: recovery cost in the ledger's "recovery" phase; ``entry_refused`` =
#: the entry guard must refuse before iterating.
SCENARIOS = [
    ("halo-chrongear", "chrongear",
     ("halo", {"rank": 2, "at": 6}), {}, "diagnosed"),
    ("halo-pcg", "pcg",
     ("halo", {"rank": 2, "at": 6}), {}, "diagnosed"),
    ("halo-pipecg", "pipecg",
     ("halo", {"rank": 2, "at": 6}), {}, "diagnosed"),
    ("halo-pcsi", "pcsi",
     ("halo", {"rank": 1, "at": 40}),
     {"eig_bounds": (0.05, 2.5), "max_recoveries": 0}, "diagnosed"),
    ("reduction-chrongear", "chrongear",
     ("reduction", {"rank": 3, "at": 4}), {}, "diagnosed"),
    ("reduction-pcg", "pcg",
     ("reduction", {"rank": 3, "at": 4}), {}, "diagnosed"),
    ("reduction-pipecg", "pipecg",
     ("reduction", {"rank": 3, "at": 4}), {}, "diagnosed"),
    ("eigenbounds-pcsi-bare", "pcsi",
     ("eigenbounds", {"mu_factor": 0.3}),
     {"max_recoveries": 0}, "diagnosed"),
    ("eigenbounds-pcsi-recovered", "pcsi",
     ("eigenbounds", {"mu_factor": 0.3}),
     {"max_recoveries": 2}, "recovered"),
    ("eigenbounds-pcsi-fallback", "pcsi",
     ("eigenbounds", {"mu_factor": 0.1, "persistent": True}),
     {"max_recoveries": 1, "fallback": "chrongear"}, "recovered"),
    ("nan-rhs-chrongear", "chrongear",
     ("nan_rhs", {"seed": 11}), {}, "entry_refused"),
    ("nan-rhs-pcsi", "pcsi",
     ("nan_rhs", {"seed": 11}),
     {"eig_bounds": (0.05, 2.5), "max_recoveries": 0}, "entry_refused"),
]


def _run_scenario(config, decomp, engine, solver_key, fault_spec,
                  kwargs, expected):
    kind, params = fault_spec
    fault = make_fault(kind, **params)
    vm_faults = [] if kind == "nan_rhs" else [fault]
    vm = VirtualMachine(decomp, mask=config.mask, engine=engine,
                        faults=vm_faults)
    pre = make_preconditioner("diagonal", config.stencil, decomp=decomp)
    ctx = DistributedContext(config.stencil, pre, vm)
    solver = SOLVERS[solver_key](ctx, tol=1e-10, max_iterations=3000,
                                 **kwargs)

    rng = np.random.default_rng(1)
    b = apply_stencil(config.stencil,
                      rng.standard_normal(config.shape) * config.mask)
    if kind == "nan_rhs":
        b = fault.on_rhs(b, config.mask)

    record = {"fault": fault.describe(), "expected": expected}
    try:
        result = solver.solve(b)
    except ConvergenceError as err:
        record["outcome"] = "diagnosed"
        record["diagnosis"] = err.diagnosis.to_dict() if err.diagnosis \
            else None
        record["iterations"] = err.iterations
        if err.diagnosis is None:
            record["violation"] = "ConvergenceError without a diagnosis"
        elif expected == "entry_refused" and err.iterations != 0:
            record["violation"] = (
                f"entry guard missed the bad input: "
                f"{err.iterations} iterations ran")
        elif expected == "recovered":
            record["violation"] = "expected recovery, got failure"
        elif expected == "entry_refused" and \
                err.diagnosis.kind != "nonfinite_input":
            record["violation"] = (
                f"expected nonfinite_input, got {err.diagnosis.kind}")
    except Exception as exc:  # noqa: BLE001 -- the contract under test
        record["outcome"] = "unhandled_exception"
        record["violation"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc()
    else:
        record["outcome"] = "converged" if result.converged else "returned"
        record["iterations"] = result.iterations
        record["recoveries"] = result.extra.get("recoveries", 0)
        if expected == "recovered":
            recovery = result.setup_events.get("recovery")
            if not result.converged:
                record["violation"] = "recovery did not converge"
            elif record["recoveries"] < 1:
                record["violation"] = "converged without any recovery"
            elif recovery is None or recovery.flops == 0:
                record["violation"] = \
                    "no cost charged to the 'recovery' phase"
            else:
                record["recovery_flops"] = recovery.flops
                record["recovery_diagnoses"] = \
                    result.extra["recovery_diagnoses"]
        else:
            # A fault was injected and the solve "succeeded": only a
            # *true* solution is not a silent wrong answer.
            true_res = b - apply_stencil(config.stencil,
                                         result.x * config.mask)
            true_norm = float(np.linalg.norm(true_res[config.mask]))
            record["true_residual_norm"] = true_norm
            if not (np.isfinite(true_norm)
                    and true_norm <= 10 * solver.tol * result.b_norm):
                record["violation"] = (
                    f"silent wrong answer: true |b - A x| = {true_norm:.3e}")

    if expected == "diagnosed" and record["outcome"] not in (
            "diagnosed",) and "violation" not in record:
        # Converged despite the fault, but the true-residual check above
        # proved the answer honest -- acceptable (e.g. a transient
        # factor-type perturbation), record it as such.
        record["note"] = "fault absorbed; answer verified against A"
    if expected == "recovered" and record["outcome"] == "diagnosed" \
            and "violation" not in record:
        record["violation"] = "expected recovery, got failure"
    return record


#: In-solve resilience matrix: each chaos fault must be survived
#: bit-identically under the default policy, on both engines.
RESILIENCE_SCENARIOS = [
    ("resilience-rank-death", ("rank_death", {"rank": 5, "at": 9})),
    ("resilience-bitflip-halo",
     ("bitflip", {"target": "halo", "rank": 1, "at": 9})),
    ("resilience-bitflip-iterate",
     ("bitflip", {"target": "iterate", "rank": 2, "at": 16})),
]


def _run_resilient_scenario(config, decomp, engine, fault_spec):
    """A chaos fault under the default policy: detect, roll back,
    re-converge to the undisturbed solve's exact bits."""
    kind, params = fault_spec

    def build(faults):
        vm = VirtualMachine(decomp, mask=config.mask, engine=engine,
                            faults=faults)
        pre = make_preconditioner("diagonal", config.stencil,
                                  decomp=decomp)
        ctx = DistributedContext(config.stencil, pre, vm)
        return ChronGearSolver(ctx, tol=1e-10, max_iterations=3000)

    rng = np.random.default_rng(1)
    b = apply_stencil(config.stencil,
                      rng.standard_normal(config.shape) * config.mask)
    reference = build([]).solve(b)
    fault = make_fault(kind, **params)
    record = {"fault": fault.describe(), "expected": "resilient"}
    try:
        result = build([fault]).solve(b, resilience=True)
    except Exception as exc:  # noqa: BLE001 -- the contract under test
        record["outcome"] = "unhandled_exception"
        record["violation"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc()
        return record
    summary = result.extra.get("resilience", {})
    record["outcome"] = "recovered" if summary.get("recoveries") \
        else "converged"
    record["iterations"] = result.iterations
    record["counters"] = summary.get("counters")
    record["recoveries"] = summary.get("recoveries")
    if not result.converged:
        record["violation"] = "resilient solve did not converge"
    elif fault.fired < 1:
        record["violation"] = "fault never fired"
    elif summary.get("counters", {}).get("rollbacks", 0) < 1:
        record["violation"] = "fault fired but no rollback recorded"
    elif not np.array_equal(np.asarray(result.x),
                            np.asarray(reference.x)):
        record["violation"] = (
            "recovered solution differs from the undisturbed solve")
    return record


#: Replication + ABFT may cost at most this fraction of solve wall
#: clock at the default knobs (the tentpole's overhead budget).
REPLICATION_BUDGET = 0.05


def _replication_overhead(config):
    """Measure resilience cost on the 16x16-block P-CSI+EVP solve.

    Two self-timed fractions on the per-rank engine, both held under
    ``REPLICATION_BUDGET``: replication alone (``abft: False`` -- deep
    copies of the loop state every ``replicate_every`` iterations) and
    the full default policy (replication + halo checksums + row-sum
    matvec checks + residual cross-checks).  The runtime self-times its
    own work, so the fraction does not compare two noisy wall clocks;
    each policy still runs twice and keeps the lower fraction to damp
    scheduler jitter in the denominator.

    The full policy's fraction on the batched engine is recorded too
    (``batched_abft_overhead``) but not gated: there the iterations run
    as fused spans, a far smaller denominator for the same checks.
    """
    decomp = decompose(config.ny, config.nx, 16, 16, mask=config.mask)
    rng = np.random.default_rng(1)
    b = apply_stencil(config.stencil,
                      rng.standard_normal(config.shape) * config.mask)

    def run(resilience, engine):
        vm = VirtualMachine(decomp, mask=config.mask, engine=engine)
        pre = evp_for_config(config, decomp=decomp)
        ctx = DistributedContext(config.stencil, pre, vm)
        solver = PCSISolver(ctx, tol=1e-12, max_iterations=3000)
        start = time.perf_counter()
        result = solver.solve(b, resilience=resilience)
        return result, time.perf_counter() - start

    def best_of_two(resilience, engine="perrank"):
        best = None
        for _ in range(2):
            result, total = run(resilience, engine)
            summary = result.extra["resilience"]
            frac = (summary["seconds"] / total
                    if total > 0 else float("inf"))
            if best is None or frac < best[2]:
                best = (result, summary, frac, total)
        return best

    result, summary, overhead, total = best_of_two({"abft": False})
    abft_result, abft_summary, abft_overhead, _ = best_of_two(True)
    batched_result, _, batched_overhead, _ = best_of_two(True, "batched")
    record = {
        "engine": "perrank",
        "blocks": "16x16",
        "iterations": result.iterations,
        "replications": summary["counters"]["replications"],
        "solve_seconds": total,
        "resilience_seconds": summary["seconds"],
        "overhead": overhead,
        "budget": REPLICATION_BUDGET,
        "abft_overhead": abft_overhead,
        "abft_counters": dict(abft_summary["counters"]),
        "batched_abft_overhead": batched_overhead,
    }
    if not (result.converged and abft_result.converged
            and batched_result.converged):
        record["violation"] = "replicated solve did not converge"
    elif summary["counters"]["replications"] < 1:
        record["violation"] = \
            "no replica captured at the default interval"
    elif overhead >= REPLICATION_BUDGET:
        record["violation"] = (
            f"replication overhead {overhead:.1%} exceeds the "
            f"{REPLICATION_BUDGET:.0%} budget")
    elif abft_overhead >= REPLICATION_BUDGET:
        record["violation"] = (
            f"replication+ABFT overhead {abft_overhead:.1%} exceeds "
            f"the {REPLICATION_BUDGET:.0%} budget")
    return record


#: Tiny two-step plan for the pipeline injector scenarios.
PIPELINE_PLAN = [
    ("repro.experiments.fig05_evp_marching",
     {"sizes": (4, 8), "trials": 2}, None),
    ("repro.experiments.fig06_iterations", {}, None),
]


def _pipeline_worker_crash():
    """A killed worker must cost a retry, never the step."""
    with tempfile.TemporaryDirectory() as out:
        rep = run_all(
            output_dir=out, plan=PIPELINE_PLAN, jobs=2,
            failure_policy=FailurePolicy(mode="retry", retries=2,
                                         backoff=0.05),
            pipeline_faults=[WorkerCrashFault(step=0, attempts=1)])
    record = {"fault": "worker_crash(step=0, attempts=1)",
              "failures": len(rep["failures"]),
              "pool_rebuilds": rep["pool_rebuilds"]}
    if rep["failures"]:
        record["violation"] = \
            f"steps lost to an injected crash: {rep['failures']}"
    elif rep["pool_rebuilds"] < 1:
        record["violation"] = "crash injected but no pool rebuild seen"
    return record


def _pipeline_slow_rank():
    """A wedged step must hit its timeout and succeed on retry."""
    with tempfile.TemporaryDirectory() as out:
        rep = run_all(
            output_dir=out, plan=PIPELINE_PLAN[:1], jobs=2,
            step_timeout=15,
            failure_policy=FailurePolicy(mode="retry", retries=1,
                                         backoff=0.05),
            pipeline_faults=[SlowRankFault(step=0, sleep=120,
                                           attempts=1)])
    record = {"fault": "slow_rank(step=0, sleep=120)",
              "failures": len(rep["failures"]),
              "attempts": rep["timings"][0].get("attempts", 1)}
    if rep["failures"]:
        record["violation"] = \
            f"step lost to an injected stall: {rep['failures']}"
    elif record["attempts"] < 2:
        record["violation"] = "stall injected but no retry recorded"
    return record


def _pipeline_cache_corrupt():
    """Corrupted cache entries must be quarantined and rebuilt.

    Which damaged entries the run itself reads (quarantine + rebuild)
    depends on worker scheduling; the rest must still be damaged on
    disk for ``verify(repair=True)`` to catch -- together the two
    channels must account for every injected corruption.
    """
    saved = get_cache()
    fault = CacheCorruptFault(count=2, seed=3)
    try:
        with tempfile.TemporaryDirectory() as cache_dir, \
                tempfile.TemporaryDirectory() as out:
            set_cache(ArtifactCache(cache_dir=cache_dir))
            warm = run_all(output_dir=out, plan=PIPELINE_PLAN, jobs=2)
            set_cache(ArtifactCache(cache_dir=cache_dir))
            rep = run_all(output_dir=out, plan=PIPELINE_PLAN, jobs=2,
                          pipeline_faults=[fault])
            audit = get_cache().verify(repair=True)
    finally:
        set_cache(saved)
    run_quarantined = rep["cache"].get("quarantine_entries", 0)
    record = {"fault": "cache_corrupt(count=2)",
              "corrupted": fault.corrupted,
              "failures": len(warm["failures"]) + len(rep["failures"]),
              "quarantined_by_run": run_quarantined,
              "quarantined_by_audit": len(audit["corrupt"])}
    if warm["failures"] or rep["failures"]:
        record["violation"] = "pipeline failed under cache corruption"
    elif not fault.corrupted:
        record["violation"] = "injector found nothing to corrupt"
    elif run_quarantined + len(audit["corrupt"]) != len(fault.corrupted):
        record["violation"] = (
            "quarantine accounting mismatch: "
            f"{run_quarantined} during the run + {len(audit['corrupt'])} "
            f"by audit != {len(fault.corrupted)} injected")
    return record


PIPELINE_SCENARIOS = [
    ("pipeline-worker-crash", _pipeline_worker_crash),
    ("pipeline-slow-rank", _pipeline_slow_rank),
    ("pipeline-cache-corrupt", _pipeline_cache_corrupt),
]


class _TimedPolicy(CheckpointPolicy):
    """Checkpoint policy that accounts the wall clock its caller -- the
    solve -- spends in it: handing a snapshot to the writer thread
    (``begin``), waiting for one (``wait``) and stopping the writer
    (``close``), each timed on the solve thread, a call made inside
    another once.  ``write`` runs on the writer thread, beside the
    solve: its clock is kept apart (``write_seconds``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.solve_seconds = self.write_seconds = 0.0
        self._depth = 0

    def write(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().write(*args, **kwargs)
        finally:
            self.write_seconds += time.perf_counter() - start

    def _timed(self, method, *args, **kwargs):
        self._depth += 1
        start = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            self._depth -= 1
            if not self._depth:
                self.solve_seconds += time.perf_counter() - start

    def begin(self, *args, **kwargs):
        return self._timed(super().begin, *args, **kwargs)

    def wait(self):
        return self._timed(super().wait)

    def close(self):
        return self._timed(super().close)


#: Snapshot writing may cost at most this fraction of solve wall clock
#: at the default interval (the tentpole's overhead budget).
OVERHEAD_BUDGET = 0.02


def _checkpoint_overhead(config, decomp):
    """Measure snapshot cost inside a distributed P-CSI+EVP solve.

    Uses the per-rank engine (realistic per-iteration cost relative to
    the tiny test grid) and the default ``every=50`` interval; the
    overhead is the time the solve spends in its policy -- handing
    snapshots over and waiting for them (:class:`_TimedPolicy`) -- over
    total solve time, so the measurement does not depend on comparing
    two noisy runs.  The writer thread's own clock (``write_seconds``:
    it stretches while the solve holds the GIL) is recorded beside it.
    """
    vm = VirtualMachine(decomp, mask=config.mask, engine="perrank")
    pre = evp_for_config(config, decomp=decomp)
    ctx = DistributedContext(config.stencil, pre, vm)
    solver = PCSISolver(ctx, tol=1e-12, max_iterations=3000)
    rng = np.random.default_rng(1)
    b = apply_stencil(config.stencil,
                      rng.standard_normal(config.shape) * config.mask)
    with tempfile.TemporaryDirectory() as ckdir:
        policy = _TimedPolicy(ckdir)  # defaults: every=50, keep=3
        start = time.perf_counter()
        result = solver.solve(b, checkpoint=policy)
        total = time.perf_counter() - start
        writes = len(policy.written)
        waited, write_seconds = policy.solve_seconds, policy.write_seconds
    overhead = waited / total if total > 0 else float("inf")
    record = {
        "engine": "perrank",
        "interval": policy.every,
        "iterations": result.iterations,
        "snapshots": writes,
        "solve_seconds": total,
        "policy_seconds": waited,
        "write_seconds": write_seconds,
        "overhead": overhead,
        "budget": OVERHEAD_BUDGET,
    }
    if not result.converged:
        record["violation"] = "checkpointed solve did not converge"
    elif writes < 1:
        record["violation"] = \
            "no snapshot written at the default interval"
    elif overhead >= OVERHEAD_BUDGET:
        record["violation"] = (
            f"checkpoint overhead {overhead:.1%} exceeds the "
            f"{OVERHEAD_BUDGET:.0%} budget")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="fault_diagnoses.json",
                        help="path for the diagnosis JSON report")
    parser.add_argument("--solver-only", action="store_true",
                        help="skip the pipeline and checkpoint-overhead "
                             "sections (solver injector matrix only)")
    args = parser.parse_args(argv)

    config = make_test_config(32, 48, seed=7)
    decomp = decompose(config.ny, config.nx, 4, 4, mask=config.mask)

    report = {"grid": config.name, "blocks": "4x4", "scenarios": {}}
    violations = []
    for name, solver_key, fault_spec, kwargs, expected in SCENARIOS:
        for engine in ENGINES:
            key = f"{name}[{engine}]"
            record = _run_scenario(config, decomp, engine, solver_key,
                                   fault_spec, dict(kwargs), expected)
            report["scenarios"][key] = record
            status = record.get("violation") or record["outcome"]
            print(f"  {key:44s} {status}")
            if "violation" in record:
                violations.append((key, record["violation"]))

    for name, fault_spec in RESILIENCE_SCENARIOS:
        for engine in ENGINES:
            key = f"{name}[{engine}]"
            record = _run_resilient_scenario(config, decomp, engine,
                                             fault_spec)
            report["scenarios"][key] = record
            status = record.get("violation") or record["outcome"]
            print(f"  {key:44s} {status}")
            if "violation" in record:
                violations.append((key, record["violation"]))

    if not args.solver_only:
        record = _replication_overhead(config)
        report["replication_overhead"] = record
        status = record.get(
            "violation",
            f"{record['overhead']:.2%} of solve "
            f"(abft: {record['abft_overhead']:.2%}; batched, not gated: "
            f"{record['batched_abft_overhead']:.2%})")
        print(f"  {'replication-overhead[perrank]':44s} {status}")
        if "violation" in record:
            violations.append(
                ("replication-overhead", record["violation"]))

        for key, runner in PIPELINE_SCENARIOS:
            try:
                record = runner()
            except Exception as exc:  # noqa: BLE001 -- contract under test
                record = {"violation": f"{type(exc).__name__}: {exc}",
                          "traceback": traceback.format_exc()}
            report["scenarios"][key] = record
            status = record.get("violation", "completed")
            print(f"  {key:44s} {status}")
            if "violation" in record:
                violations.append((key, record["violation"]))

        record = _checkpoint_overhead(config, decomp)
        report["checkpoint_overhead"] = record
        status = record.get(
            "violation",
            f"{record['overhead']:.2%} of solve "
            f"({record['snapshots']} snapshots)")
        print(f"  {'checkpoint-overhead[perrank]':44s} {status}")
        if "violation" in record:
            violations.append(("checkpoint-overhead", record["violation"]))

    # Diagnosed failures of recoverable kinds must be flagged as such
    # (the recovery policy keys off this bit).
    for key, record in report["scenarios"].items():
        diag = record.get("diagnosis")
        if diag and diag["kind"] in RECOVERABLE_KINDS:
            assert diag["recoverable"], key

    report["violations"] = [
        {"scenario": k, "violation": v} for k, v in violations]
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"\n{len(report['scenarios'])} scenarios -> {out}")
    if violations:
        print(f"CONTRACT VIOLATIONS ({len(violations)}):")
        for key, violation in violations:
            print(f"  {key}: {violation}")
        return 1
    print("all faults diagnosed, recovered, or verified -- contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
