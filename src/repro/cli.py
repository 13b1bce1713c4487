"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every regenerable paper artifact and ablation.
``run <experiment> [--arg value ...]``
    Regenerate one artifact (e.g. ``run fig08`` or ``run table1``);
    extra ``--key value`` pairs are forwarded to the experiment's
    ``run()`` (ints/floats parsed, tuples comma-separated).
``solve``
    One-off barotropic solve on a named configuration with a chosen
    solver/preconditioner; prints iterations and modeled times.  When
    ``repro tune`` has persisted a winning combo for this grid +
    decomposition, any of ``--solver``/``--precond``/``--engine``
    left unset is filled from it (``--no-tuned`` opts out).
    ``--engine {serial,batched}`` selects the serial context or the
    virtual machine's batched engine; ``--inject-fault SPEC``
    (repeatable) attaches deterministic fault injectors to exercise
    the solver guardrails,
    and ``--max-recoveries`` / ``--fallback chrongear`` control
    P-CSI's divergence recovery; ``--show-events`` prints the solve's
    global-reduction and halo-exchange ledger.  A diagnosed failure
    exits with status 3.
    ``--checkpoint-dir DIR`` snapshots the solver state every
    ``--checkpoint-every`` iterations (and on diagnosed failure);
    ``--resume-from PATH`` continues a solve from such a snapshot,
    bit-identically to the uninterrupted run.
    ``--replicate-every N`` / ``--abft`` enable the in-solve fault
    tolerance layer (buddy replication for rank-loss recovery, ABFT
    checksums for silent-data-corruption detection); pair with
    ``--inject-fault rank_death:...`` or ``bitflip:...`` to watch a
    solve survive a failure.
``machines``
    Print the calibrated machine models.
``tune [--config NAME] [--blocks by,bx] [--quick] [--out PATH]``
    Benchmark candidate (solver, preconditioner, engine)
    combos with real solves, print the ranked table, and
    persist the winner in the artifact cache keyed by grid +
    decomposition; later ``repro solve`` runs apply it automatically.
``report [--out DIR] [--verification] [--jobs N] [--no-cache]
[--cache-dir DIR] [--resume] [--step-timeout S] [--retries N]
[--on-failure MODE]``
    Run the whole evaluation plan and print the paper-vs-measured
    comparison (the automated backbone of EXPERIMENTS.md).  ``--jobs``
    fans the measured solves and experiment steps over worker
    processes; the artifact cache (persistent across invocations
    unless ``--no-cache``) makes warm re-runs cheap.  ``--resume``
    skips steps the manifest under ``--out`` already records as done;
    ``--step-timeout`` bounds each step attempt's wall clock;
    ``--retries`` / ``--on-failure`` configure the failure policy.
``cache {stats,clear,verify} [--cache-dir DIR] [--repair]``
    Inspect, empty, or integrity-audit the on-disk artifact cache
    (``verify --repair`` quarantines corrupt entries so the next run
    rebuilds them).  ``stats`` always reports the quarantined-entry
    count and the hit/miss ratio, including rebuilds of quarantined
    entries.
"""

import argparse
import importlib
import sys

#: experiment name -> module path (the per-paper-artifact registry).
EXPERIMENTS = {
    "fig01": "repro.experiments.fig01_time_fraction",
    "fig02": "repro.experiments.fig02_comm_breakdown",
    "fig03": "repro.experiments.fig03_lanczos",
    "fig04": "repro.experiments.fig04_sparsity",
    "fig05": "repro.experiments.fig05_evp_marching",
    "fig06": "repro.experiments.fig06_iterations",
    "fig07": "repro.experiments.fig07_lowres_scaling",
    "table1": "repro.experiments.table1_pop_improvement",
    "fig08": "repro.experiments.fig08_highres_yellowstone",
    "fig09": "repro.experiments.fig09_time_fraction_pcsi",
    "fig10": "repro.experiments.fig10_solver_components",
    "fig11": "repro.experiments.fig11_highres_edison",
    "fig12": "repro.experiments.fig12_rmse",
    "fig13": "repro.experiments.fig13_rmsz",
    "ablation-evp-simplified": "repro.experiments.ablation_evp_simplified",
    "ablation-check-freq": "repro.experiments.ablation_check_freq",
    "ablation-block-size": "repro.experiments.ablation_block_size",
    "ablation-eigen-margin": "repro.experiments.ablation_eigen_margin",
    "ablation-land-elimination":
        "repro.experiments.ablation_land_elimination",
    "ablation-land-epsilon": "repro.experiments.ablation_land_epsilon",
    "ablation-diagnostic-field":
        "repro.experiments.ablation_diagnostic_field",
    "ablation-block-layout": "repro.experiments.ablation_block_layout",
    "ext-solver-strategies": "repro.experiments.ext_solver_strategies",
}


def _parse_value(text):
    """Best-effort literal parsing for forwarded CLI overrides."""
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(",") if part)
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def cmd_list(_args):
    print("regenerable paper artifacts (python -m repro run <name>):")
    for name, module in EXPERIMENTS.items():
        print(f"  {name:26s} {module}")
    return 0


def cmd_run(args):
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: python -m repro list", file=sys.stderr)
        return 2
    module = importlib.import_module(EXPERIMENTS[args.experiment])
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            print(f"override {item!r} must look like key=value",
                  file=sys.stderr)
            return 2
        key, value = item.split("=", 1)
        overrides[key.lstrip("-")] = _parse_value(value)
    result = module.run(**overrides)
    print(result.render())
    return 0


def cmd_solve(args):
    import numpy as np

    from repro.core.errors import ConvergenceError
    from repro.experiments.common import (
        FULL_SHAPES,
        geometry_decomposition,
        get_cached_config,
        rescale_events,
    )
    from repro.operators import apply_stencil
    from repro.parallel import VirtualMachine, decompose, parse_fault_spec
    from repro.perfmodel import get_machine, phase_times
    from repro.precond import make_preconditioner
    from repro.precond.evp import evp_for_config
    from repro.solvers import (
        SOLVER_REGISTRY,
        DistributedContext,
        PCSISolver,
        SerialContext,
        make_solver,
    )

    config = get_cached_config(args.config, scale=args.scale)
    print(config.describe())

    by, bx = (int(p) for p in args.blocks.split(","))
    tuned = None
    if not args.no_tuned:
        from repro.core.cache import ArtifactCache, default_cache_dir
        from repro.tuning import load_tuned_choice

        tuned_cache = ArtifactCache(
            cache_dir=args.cache_dir or default_cache_dir())
        tuned_decomp = decompose(config.ny, config.nx, by, bx,
                                 mask=config.mask)
        tuned = load_tuned_choice(config, tuned_decomp,
                                  cache=tuned_cache)

    # Explicit flags always win; unset ones fall back to the persisted
    # tuned choice (when one exists for this grid + decomposition), and
    # then to the historical defaults.
    solver_name = args.solver or (tuned and tuned.get("solver")) or "pcsi"
    precond_kind = args.precond or (tuned and tuned.get("precond")) \
        or "evp"
    engine = args.engine or (tuned and tuned.get("engine")) or "serial"
    if tuned is not None and None in (args.solver, args.precond,
                                      args.engine):
        print(f"applying tuned choice: solver={solver_name} "
              f"precond={precond_kind} engine={engine} "
              f"(from repro tune; --no-tuned to disable)")

    faults = [parse_fault_spec(spec) for spec in args.inject_fault]
    vm_faults = [f for f in faults if f.kind != "nan_rhs"]
    if vm_faults and engine == "serial":
        # Halo / reduction / eigenbound faults live in the virtual
        # machine, which the serial context bypasses.
        print("note: --inject-fault requires the virtual machine; "
              "switching to --engine batched")
        engine = "batched"

    resilience = None
    if args.replicate_every is not None or args.abft:
        resilience = {"abft": bool(args.abft)}
        if args.replicate_every is not None:
            resilience["replicate_every"] = args.replicate_every
        if engine == "serial":
            # Buddy replication and halo/rowsum checks live in the
            # virtual machine, like the fault injectors.
            print("note: resilience requires the virtual machine; "
                  "switching to --engine batched")
            engine = "batched"

    decomp = None
    if engine == "serial":
        if precond_kind == "evp":
            pre = evp_for_config(config)
        else:
            pre = make_preconditioner(precond_kind, config.stencil)
        ctx = SerialContext(config.stencil, pre)
    else:
        decomp = decompose(config.ny, config.nx, by, bx, mask=config.mask)
        vm = VirtualMachine(decomp, mask=config.mask, engine=engine,
                            faults=vm_faults)
        print(f"engine: {vm.engine} on {decomp.describe()}")
        if precond_kind == "evp":
            pre = evp_for_config(config, decomp=decomp)
        else:
            pre = make_preconditioner(precond_kind, config.stencil,
                                      decomp=decomp)
        ctx = DistributedContext(config.stencil, pre, vm)
    for fault in faults:
        print(f"injecting fault: {fault.describe()}")

    extra_kwargs = {}
    if SOLVER_REGISTRY.get(solver_name.lower()) is PCSISolver:
        extra_kwargs["max_recoveries"] = args.max_recoveries
        extra_kwargs["fallback"] = args.fallback
    solver = make_solver(solver_name, ctx, tol=args.tol, **extra_kwargs)
    rng = np.random.default_rng(args.seed)
    nrhs = max(1, int(args.nrhs))
    columns = []
    for _ in range(nrhs):
        col = apply_stencil(config.stencil,
                            rng.standard_normal(config.shape) * config.mask)
        for fault in faults:
            col = fault.on_rhs(col, config.mask)
        columns.append(col)
    b = columns[0] if nrhs == 1 else np.stack(columns, axis=-1)
    if nrhs > 1:
        print(f"solving a batch of {nrhs} right-hand sides in one "
              f"multi-RHS solve")

    policy = None
    if args.checkpoint_dir:
        from repro.core.checkpoint import CheckpointPolicy

        policy = CheckpointPolicy(args.checkpoint_dir,
                                  every=args.checkpoint_every)
        print(f"checkpointing to {policy.directory} every "
              f"{policy.every} iterations")
    if args.resume_from:
        print(f"resuming from checkpoint {args.resume_from}")

    if resilience is not None:
        print(f"resilience: buddy replication every "
              f"{resilience.get('replicate_every', 10)} iterations, "
              f"ABFT {'on' if resilience['abft'] else 'off'}")
    try:
        result = solver.solve(b, checkpoint=policy,
                              resume_from=args.resume_from or None,
                              resilience=resilience)
    except ConvergenceError as err:
        print(f"solve FAILED: {err.diagnosis.describe()}"
              if err.diagnosis is not None else f"solve FAILED: {err}")
        if err.result is not None:
            print(f"  partial result: {err.result.describe()}")
            for diag in err.result.extra.get("recovery_diagnoses", []):
                print(f"  recovery attempted after: [{diag['kind']}] "
                      f"{diag['message']}")
        if policy is not None and policy.written:
            print(f"  last checkpoint: {policy.written[-1]}")
        return 3
    print(result.describe())
    if args.show_events:
        from repro.perfmodel import event_totals

        for stage, events in (("setup", result.setup_events),
                              ("loop", result.events)):
            tot = event_totals(events)
            print(f"  {stage} events: {tot.allreduces} global reductions "
                  f"({tot.allreduce_words} words), "
                  f"{tot.halo_exchanges} halo exchanges "
                  f"({tot.halo_words} words)")
            for phase in sorted(events):
                c = events[phase]
                if c.allreduces or c.halo_exchanges:
                    print(f"    {phase:18s} reductions {c.allreduces:5d} "
                          f"({c.allreduce_words} words)  "
                          f"halo {c.halo_exchanges:5d} "
                          f"({c.halo_words} words)")
        if result.iterations:
            loop_tot = event_totals(result.events)
            print(f"  loop reductions / iteration: "
                  f"{loop_tot.allreduces / result.iterations:.3f}")
    if result.extra.get("multi_rhs"):
        iters = result.extra["per_rhs_iterations"]
        norms = result.extra["per_rhs_residual_norm"]
        convs = result.extra["per_rhs_converged"]
        for j, (it, rn, ok) in enumerate(zip(iters, norms, convs)):
            status = "converged" if ok else "NOT converged"
            print(f"  rhs[{j}]: {status} in {it} iterations, "
                  f"|r| = {rn:.2e}")
    if policy is not None and policy.written:
        print(f"  checkpoints written: {len(policy.written)} "
              f"(latest: {policy.written[-1]})")
    if result.extra.get("recoveries"):
        print(f"  recovered after {result.extra['recoveries']} failed "
              f"attempt(s):")
        for diag in result.extra.get("recovery_diagnoses", []):
            print(f"    [{diag['kind']}] @ iteration {diag['iteration']}: "
                  f"{diag['message']}")
        rec = result.setup_events.get("recovery")
        if rec is not None:
            print(f"    recovery cost: {rec.flops} flops, "
                  f"{rec.halo_exchanges} halo exchanges, "
                  f"{rec.allreduces} reductions")
    res_summary = result.extra.get("resilience")
    if res_summary is not None:
        counters = res_summary["counters"]
        print(f"  resilience: {counters['replications']} replications, "
              f"{counters['halo_checks']} halo checks, "
              f"{counters['rowsum_checks']} row-sum checks, "
              f"{counters['residual_crosschecks']} residual "
              f"cross-checks")
        for rec_doc in res_summary["recoveries"]:
            print(f"    recovered [{rec_doc['kind']}] @ iteration "
                  f"{rec_doc['iteration']}: {rec_doc['message']} "
                  f"(resumed from iteration "
                  f"{rec_doc['data']['resumed_from_iteration']})")
        res_events = result.events.get("resilience")
        if res_events is not None:
            print(f"    resilience cost: {res_events.flops} flops, "
                  f"{res_events.halo_exchanges} replica/rollback halo "
                  f"exchanges, {res_events.allreduces} reductions")

    machine = get_machine(args.machine)
    if engine == "serial":
        base = args.config.split("@")[0]
        shape = FULL_SHAPES.get(base, config.shape)
        for cores in args.cores:
            model_decomp = geometry_decomposition(shape, cores)
            events = rescale_events(result.events,
                                    config.ny * config.nx, model_decomp)
            t = phase_times(events, machine, model_decomp.num_active)
            print(f"  modeled @ {cores:>6d} cores on {machine.name}: "
                  f"{t.total * config.steps_per_day:8.3f} s/simulated-day "
                  f"(comp {t.computation:.2e}  precond "
                  f"{t.preconditioning:.2e}  halo {t.boundary:.2e}  "
                  f"reduce {t.reduction:.2e} per solve)")
    else:
        t = phase_times(result.events, machine, decomp.num_active)
        print(f"  modeled on {machine.name} @ {decomp.num_active} ranks: "
              f"{t.total * config.steps_per_day:8.3f} s/simulated-day")
    return 0


def cmd_tune(args):
    import json

    from repro.core.cache import configure_cache, default_cache_dir
    from repro.experiments.common import get_cached_config
    from repro.tuning import render_table, tune

    cache = configure_cache(
        cache_dir=args.cache_dir or default_cache_dir())
    config = get_cached_config(args.config, scale=args.scale)
    print(config.describe())
    blocks = tuple(int(p) for p in args.blocks.split(","))

    def progress(entry):
        status = (f"{entry['iterations']} iters, "
                  f"{entry['wall_time'] * 1e3:.1f} ms"
                  if entry["converged"]
                  else f"FAILED: {entry['error']}")
        print(f"  {entry['solver']}/{entry['precond']}"
              f"/{entry['engine']}: {status}")

    print(f"tuning {args.config} on a {blocks[0]}x{blocks[1]} "
          f"decomposition (tol {args.tol:g}"
          + (", quick matrix" if args.quick else "") + ") ...")
    report = tune(config, blocks=blocks, quick=args.quick, tol=args.tol,
                  machine=args.machine, cache=cache, progress=progress)
    print()
    for line in render_table(report):
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"ranked table written to {args.out}")
    if report["choice"] is None:
        print("no candidate converged; nothing persisted")
        return 1
    c = report["choice"]
    print(f"persisted tuned choice: solver={c['solver']} "
          f"precond={c['precond']} engine={c['engine']} "
          f"(key {report['key'][:12]}..., cache "
          f"{cache.cache_dir}); later 'repro solve' runs on this grid + "
          f"decomposition apply it automatically")
    return 0


def cmd_report(args):
    from repro.core.cache import configure_cache, default_cache_dir
    from repro.reporting import FailurePolicy, run_all

    if args.no_cache:
        cache = configure_cache(cache_dir=None)
    else:
        cache = configure_cache(
            cache_dir=args.cache_dir or default_cache_dir())
    if args.resume and not args.out:
        print("error: --resume needs --out (the manifest lives there)",
              file=sys.stderr)
        return 2
    policy = FailurePolicy(mode=args.on_failure, retries=args.retries)
    report = run_all(
        output_dir=args.out,
        include_verification=args.verification,
        progress=lambda name: print(f"running {name} ..."),
        jobs=args.jobs,
        resume=args.resume,
        step_timeout=args.step_timeout,
        failure_policy=policy,
    )
    print()
    print(report["rendered"])
    print()
    print("step timings:")
    for entry in report.get("timings", []):
        step = entry["step"].rsplit(".", 1)[-1]
        if entry.get("failed"):
            print(f"  {step:28s}   FAILED")
            continue
        if entry.get("resumed"):
            print(f"  {step:28s}   resumed from manifest")
            continue
        retries = (f", attempts {entry['attempts']}"
                   if entry.get("attempts") else "")
        print(f"  {step:28s} {entry['seconds']:8.2f} s  "
              f"(cache hits {entry['cache_hits']}, "
              f"misses {entry['cache_misses']}{retries})")
    for entry in report.get("diagnoses", []):
        diag = entry["diagnosis"] or {}
        print(f"  diagnosis [{diag.get('kind', '?')}] in "
              f"{entry['step']}: {diag.get('message', entry['error'])}")
    for entry in report.get("failures", []):
        print(f"  failure in {entry['step']} after "
              f"{entry['attempts']} attempt(s): {entry['error']}")
    stats = cache.stats()
    print(f"cache: {stats['memory_hits']} memory hits, "
          f"{stats['disk_hits']} disk hits, {stats['misses']} misses, "
          f"{stats['disk_entries']} disk entries "
          f"({stats['disk_bytes'] / 1e6:.1f} MB)"
          + (f", {stats['quarantined']} quarantined"
             if stats.get("quarantined") else "")
          + (f" in {stats['cache_dir']}" if stats["cache_dir"] else ""))
    if report.get("manifest"):
        print(f"manifest: {report['manifest']}")
    return 1 if report.get("failures") else 0


def cmd_serve(args):
    from repro.core.cache import configure_cache, default_cache_dir
    from repro.service import serve

    by, bx = (int(v) for v in args.blocks.split(","))
    configure_cache(cache_dir=args.cache_dir or default_cache_dir(),
                    shards=args.shards,
                    max_bytes=args.cache_max_bytes)
    serve(host=args.host, port=args.port, jobs=args.jobs,
          max_batch=args.max_batch, blocks=(by, bx), engine=args.engine,
          tuned=not args.no_tuned, retries=args.retries,
          job_timeout=args.job_timeout)
    return 0


def cmd_cache(args):
    from repro.core.cache import ArtifactCache, default_cache_dir

    cache = ArtifactCache(cache_dir=args.cache_dir or default_cache_dir(),
                          shards=args.shards,
                          max_bytes=args.max_bytes)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifacts from {cache.cache_dir}")
        return 0
    if args.action == "verify":
        report = cache.verify(repair=args.repair)
        print(f"cache directory: {cache.cache_dir}")
        print(f"checked {report['checked']} entries: "
              f"{report['ok']} verified, "
              f"{len(report['corrupt'])} corrupt")
        for path, reason in report["corrupt"]:
            import os as _os

            print(f"  corrupt: {_os.path.basename(path)} -- {reason}")
        if args.repair and report["quarantined"]:
            print(f"quarantined {report['quarantined']} corrupt "
                  f"entries to {cache.quarantine_dir()}; the next run "
                  f"rebuilds them")
        elif report["corrupt"] and not args.repair:
            print("re-run with --repair to quarantine them")
        return 1 if report["corrupt"] else 0
    stats = cache.stats()
    print(f"cache directory: {stats['cache_dir']}")
    print(f"entries: {stats['disk_entries']}")
    print(f"size: {stats['disk_bytes'] / 1e6:.2f} MB")
    # Quarantine count and hit/miss ratio print unconditionally: after
    # a `verify --repair` + rebuild cycle the interesting value is
    # often exactly 0, and hiding it made the output inconsistent
    # between healthy and healed stores.
    print(f"quarantined entries: {stats['quarantine_entries']}")
    print(f"lookups: {stats['hits']} hits / {stats['misses']} misses "
          f"(hit ratio {stats['hit_ratio']:.2f}, "
          f"{stats['rebuilds']} rebuilds)")
    if stats.get("max_bytes"):
        print(f"byte budget: {stats['max_bytes'] / 1e6:.2f} MB "
              f"({stats['evictions']} evictions this process)")
    for row in stats.get("per_shard", []):
        print(f"  shard {row['shard']:02d}: {row['entries']} entries, "
              f"{row['bytes'] / 1e6:.2f} MB, {row['hits']} hits / "
              f"{row['misses']} misses, {row['evictions']} evictions")
    # The compiled kernels live in the user's cache, not this one; this
    # is where one looks to see whether they were built.
    from repro.kernels import resolve_kernels

    print(f"native kernels: {resolve_kernels(None).native_status()}")
    return 0


def cmd_machines(_args):
    from repro.perfmodel.machines import EDISON, YELLOWSTONE

    for machine in (YELLOWSTONE, EDISON):
        print(machine.describe())
    return 0


def build_parser():
    from repro.precond import PRECOND_KINDS
    from repro.solvers import SOLVER_REGISTRY

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction harness for the SC'15 POP barotropic "
                    "solver paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list regenerable artifacts")

    p_run = sub.add_parser("run", help="regenerate one artifact")
    p_run.add_argument("experiment")
    p_run.add_argument("overrides", nargs="*",
                       help="key=value overrides forwarded to run()")

    p_solve = sub.add_parser("solve", help="one-off barotropic solve")
    p_solve.add_argument("--config", default="pop_1deg",
                         choices=["pop_1deg", "pop_0.1deg", "test"])
    p_solve.add_argument("--scale", type=float, default=1.0)
    p_solve.add_argument("--solver", default=None, type=str.lower,
                         choices=SOLVER_REGISTRY,
                         help="solver name (default: the persisted "
                              "tuned choice if any, else pcsi)")
    p_solve.add_argument("--precond", default=None, type=str.lower,
                         choices=PRECOND_KINDS,
                         help="preconditioner kind (default: the "
                              "persisted tuned choice if any, else evp)")
    p_solve.add_argument("--no-tuned", action="store_true",
                         help="ignore any persisted 'repro tune' choice "
                              "for this grid + decomposition")
    p_solve.add_argument("--cache-dir", default=None,
                         help="artifact cache directory holding tuned "
                              "choices (default: $REPRO_CACHE_DIR or "
                              "~/.cache/repro-artifacts)")
    p_solve.add_argument("--tol", type=float, default=1e-13)
    p_solve.add_argument("--nrhs", type=int, default=1,
                         help="solve this many random right-hand sides "
                              "as one multi-RHS batch (prints per-RHS "
                              "iteration counts)")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--machine", default="yellowstone")
    p_solve.add_argument("--cores", type=int, nargs="*",
                         default=[470, 16875])
    p_solve.add_argument("--engine", default=None,
                         choices=["serial", "batched"],
                         help="serial context or the virtual machine's "
                              "batched engine (default: the persisted "
                              "tuned choice if any, else serial)")
    p_solve.add_argument("--blocks", default="4,4",
                         help="block grid 'by,bx' for the virtual "
                              "machine (default: 4,4)")
    p_solve.add_argument("--inject-fault", action="append", default=[],
                         metavar="SPEC",
                         help="attach a fault injector, e.g. "
                              "'halo:rank=1,at=2', 'reduction:value=nan'"
                              ", 'eigenbounds:nu_factor=12', 'nan_rhs', "
                              "'rank_death:rank=2,at=12', "
                              "'bitflip:target=halo,rank=1,at=9'; "
                              "repeatable")
    p_solve.add_argument("--replicate-every", type=int, default=None,
                         metavar="N",
                         help="enable in-solve fault tolerance: "
                              "replicate each rank's block state to its "
                              "buddy rank at convergence checks at "
                              "least N iterations apart (recovers "
                              "rank_death and detected corruption by "
                              "rollback)")
    p_solve.add_argument("--abft", action="store_true",
                         help="enable ABFT silent-data-corruption "
                              "detection (halo checksums, matvec row-sum "
                              "checks, residual cross-checks); implies "
                              "buddy replication at the default cadence "
                              "unless --replicate-every is given")
    p_solve.add_argument("--max-recoveries", type=int, default=2,
                         help="P-CSI's divergence recovery attempts "
                              "(default: 2)")
    p_solve.add_argument("--fallback", default=None,
                         choices=["chrongear"],
                         help="last-resort solver once P-CSI's "
                              "recoveries are exhausted")
    p_solve.add_argument("--show-events", action="store_true",
                         help="print the solve's communication ledger "
                              "(global reductions and halo exchanges, "
                              "counts and words, per stage and phase)")
    p_solve.add_argument("--checkpoint-dir", default=None,
                         help="snapshot solver state into this "
                              "directory (periodic + on failure)")
    p_solve.add_argument("--checkpoint-every", type=int, default=50,
                         help="iterations between snapshots "
                              "(default: 50; 0 = only on failure)")
    p_solve.add_argument("--resume-from", default=None, metavar="PATH",
                         help="resume the solve from a checkpoint file "
                              "(bit-identical to the uninterrupted run)")

    sub.add_parser("machines", help="print machine models")

    p_tune = sub.add_parser(
        "tune",
        help="benchmark solver/preconditioner/engine combos and "
             "persist the winner for this grid + decomposition")
    p_tune.add_argument("--config", default="pop_1deg",
                        choices=["pop_1deg", "pop_0.1deg", "test"])
    p_tune.add_argument("--scale", type=float, default=1.0)
    p_tune.add_argument("--blocks", default="4,4",
                        help="block grid 'by,bx' the choice is keyed "
                             "under (default: 4,4)")
    p_tune.add_argument("--tol", type=float, default=1e-12,
                        help="convergence tolerance every candidate "
                             "solves to (default: 1e-12)")
    p_tune.add_argument("--quick", action="store_true",
                        help="reduced candidate matrix for smoke runs "
                             "(fewer solvers and preconditioners)")
    p_tune.add_argument("--machine", default="yellowstone",
                        help="machine model for the modeled-time column")
    p_tune.add_argument("--cache-dir", default=None,
                        help="artifact cache directory the choice is "
                             "persisted in (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro-artifacts)")
    p_tune.add_argument("--out", default=None,
                        help="also write the full ranked report as JSON "
                             "to this path")

    p_report = sub.add_parser(
        "report", help="run the evaluation plan + paper comparison")
    p_report.add_argument("--out", default=None,
                          help="directory for per-figure JSON results")
    p_report.add_argument("--verification", action="store_true",
                          help="include the slow fig13 ensemble run")
    p_report.add_argument("--jobs", type=int, default=1,
                          help="worker processes for warmup solves and "
                               "experiment steps (default: 1, serial)")
    p_report.add_argument("--no-cache", action="store_true",
                          help="disable the persistent artifact cache "
                               "(in-memory caching only)")
    p_report.add_argument("--cache-dir", default=None,
                          help="artifact cache directory (default: "
                               "$REPRO_CACHE_DIR or "
                               "~/.cache/repro-artifacts)")
    p_report.add_argument("--resume", action="store_true",
                          help="skip steps the manifest under --out "
                               "already records as completed")
    p_report.add_argument("--step-timeout", type=float, default=None,
                          metavar="S",
                          help="wall-clock budget per step attempt in "
                               "seconds (jobs > 1 only)")
    p_report.add_argument("--retries", type=int, default=2,
                          help="extra attempts per failed step under "
                               "--on-failure retry (default: 2)")
    p_report.add_argument("--on-failure", default="retry",
                          choices=["fail_fast", "continue", "retry"],
                          help="what a failed step does to the run "
                               "(default: retry)")

    p_cache = sub.add_parser(
        "cache",
        help="inspect, clear, or integrity-audit the artifact cache")
    p_cache.add_argument("action", choices=["stats", "clear", "verify"])
    p_cache.add_argument("--cache-dir", default=None,
                         help="artifact cache directory (default: "
                              "$REPRO_CACHE_DIR or "
                              "~/.cache/repro-artifacts)")
    p_cache.add_argument("--repair", action="store_true",
                         help="with verify: quarantine corrupt entries "
                              "so the next run rebuilds them")
    p_cache.add_argument("--shards", type=int, default=None,
                         help="inspect a sharded layout: entries hash "
                              "across this many shard-NN subdirectories")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="byte budget the stats report against "
                              "(enables the per-shard eviction view)")

    p_serve = sub.add_parser(
        "serve",
        help="run the solver service: JSON-over-HTTP with dynamic "
             "multi-RHS request coalescing and an async job API")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8723,
                         help="listen port (0 = pick a free one; the "
                              "bound port is announced on stdout)")
    p_serve.add_argument("--jobs", type=int, default=0,
                         help="worker processes for solves, one solve "
                              "each (default 0 = one in-process solver "
                              "thread per usable core)")
    p_serve.add_argument("--max-batch", type=int, default=8,
                         help="coalesce at most this many compatible "
                              "requests into one multi-RHS solve; a "
                              "batch forms only from requests queued "
                              "while every solver slot is busy, a "
                              "request that finds a free slot "
                              "dispatches at once (1 disables "
                              "coalescing; default: 8)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="artifact cache directory shared by the "
                              "service and its workers (default: "
                              "$REPRO_CACHE_DIR or "
                              "~/.cache/repro-artifacts)")
    p_serve.add_argument("--shards", type=int, default=None,
                         help="shard the cache across this many "
                              "lock-protected subdirectories")
    p_serve.add_argument("--cache-max-bytes", type=int, default=None,
                         help="LRU-evict cache entries beyond this "
                              "byte budget")
    p_serve.add_argument("--blocks", default="4,4",
                         help="decomposition 'by,bx' tuned choices are "
                              "looked up under, and the default "
                              "decomposition for engine solves "
                              "(default: 4,4)")
    p_serve.add_argument("--engine", default=None,
                         choices=("serial", "batched"),
                         help="default execution engine for requests "
                              "that omit one ('batched' amortizes "
                              "coalesced multi-RHS solves; default: "
                              "classic serial context)")
    p_serve.add_argument("--no-tuned", action="store_true",
                         help="do not auto-apply persisted 'repro tune' "
                              "winners to requests omitting "
                              "solver/precond")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="extra attempts per solve after a worker "
                              "crash or timeout (default: 2)")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         metavar="S",
                         help="wall-clock budget per solve attempt in "
                              "seconds (default: none)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "run": cmd_run,
        "solve": cmd_solve,
        "machines": cmd_machines,
        "tune": cmd_tune,
        "report": cmd_report,
        "cache": cmd_cache,
        "serve": cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
