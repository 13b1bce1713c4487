"""The benchmark's one command.

::

    python3 bench/run.py                       # all six workloads
    python3 bench/run.py --trace 1             # ... traced (per-layer)
    python3 bench/run.py --smoke               # one op each, < 60 s
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh child processes with a scrubbed
environment (``child.py``): several cold set-up-only children, whose
median is ``setup_s``, then the child that runs the measured window.
Each run prints every metric by name and unit and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
exactly the metrics ``BENCHMARK.json`` declares for that mode.  Full
detail (samples, quartiles, fingerprint, failures) goes to
``bench/out/``; ``--out FILE`` also appends the run to a result set
that ``compare.py`` reads.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from child import RESULT_MARK, SETUP_MARK, WORKLOADS
from common import BENCH_DIR, OUT_DIR, ROOT, SRC, hermetic_env

DEFAULT_SEED = 20151115
CHILD_TIMEOUT_S = 170.0
#: Cold set-ups per run (the reported ``setup_s`` is their median).
#: ``dist_land_pcsi_evp`` pays a 4 s warm-up solve per set-up, so it
#: takes one fewer to stay inside the driver's total time cap.
SETUP_SAMPLES = {"dist_land_pcsi_evp": 2}
DEFAULT_SETUP_SAMPLES = 3


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_child(workload, seed, seconds, trace, phase, smoke):
    """Start one child; returns ``(setup seconds, result doc or None)``.

    Set-up is timed here, from process start to the child's
    set-up-done line, unless the child measured its own (the service).
    """
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    command = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--phase", phase, "--tmp", tmp_dir,
               "--trace-file", str(OUT_DIR / f"trace-{workload}.ndjson")]
    if smoke:
        command.append("--smoke")
    setup_s = result = None
    try:
        started = time.perf_counter()
        # Own session, so a timeout can take the child's own children
        # (the service workload's server) down with it.
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              env=hermetic_env(tmp_dir), cwd=ROOT,
                              start_new_session=True) as proc:
            watchdog = threading.Timer(
                CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                for line in proc.stdout:
                    if line.startswith(SETUP_MARK):
                        own = json.loads(line[len(SETUP_MARK):])["setup_s"]
                        setup_s = (own if own is not None
                                   else time.perf_counter() - started)
                    elif line.startswith(RESULT_MARK):
                        result = json.loads(line[len(RESULT_MARK):])
                code = proc.wait()
            finally:
                watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"{workload} child ({phase}) exited {code}")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if setup_s is None:
        raise RuntimeError(f"{workload} child ({phase}) never set up")
    return setup_s, result


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One complete run of one workload; returns its result document."""
    started = time.perf_counter()
    samples = []
    if not trace and not smoke:
        extra = SETUP_SAMPLES.get(workload, DEFAULT_SETUP_SAMPLES) - 1
        for _ in range(extra):
            setup_s, _ = run_child(workload, seed, seconds, trace,
                                   "setup", smoke)
            samples.append(setup_s)
    setup_s, doc = run_child(workload, seed, seconds, trace, "measure",
                             smoke)
    if doc is None:
        raise RuntimeError(f"{workload} child printed no result")
    samples.append(setup_s)
    doc["setup_samples_s"] = samples
    if doc["end_to_end"] is not None:
        doc["end_to_end"]["setup_s"] = statistics.median(samples)
    doc["wall_s"] = time.perf_counter() - started
    return doc


def declared_metrics(spec, doc):
    """Exactly the metrics ``BENCHMARK.json`` declares for this mode.

    A per-layer metric a workload does not report reads 0: the layer
    did not run there.  A missing end-to-end metric is an error.
    """
    if doc["trace"]:
        measured = doc["per_layer"]
        return {m["name"]: {"value": measured.get(m["name"], 0),
                            "unit": m["unit"]}
                for m in spec["per_layer"]}
    measured = doc["end_to_end"]
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def print_run(doc, metrics):
    mode = "traced" if doc["trace"] else "untraced"
    print(f"== {doc['workload']}  seed {doc['seed']}  {mode}  "
          f"{doc['attempted']} ops, {doc['failed']} failed")
    for key, value in sorted(doc["fingerprint"]["workload"].items()):
        print(f"   {key}: {value}")
    if "op_s" in doc:
        s = doc["op_s"]
        tail = (f"  p{s['tail_pct']} {s['tail']:.4f}" if "tail" in s else "")
        print(f"   op_s samples: n={s['n']}  q1 {s['q1']:.4f}  "
              f"median {s['median']:.4f}  q3 {s['q3']:.4f}{tail}")
    for failure in doc["failures"]:
        print(f"   FAILED {failure}")
    for name, m in metrics.items():
        if doc["trace"] and m["value"] == 0:
            continue  # layer not exercised by this workload
        print(f"   {name:36s} {m['value']:>16.6g} {m['unit']}")


def save(doc, out):
    name = f"last-{doc['workload']}-trace{doc['trace']}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    if out:
        runs = []
        try:
            with open(out, encoding="utf-8") as handle:
                runs = json.load(handle)["runs"]
        except FileNotFoundError:
            pass
        runs.append(doc)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op per workload, no warm-up")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat with seeds seed, seed+1, ...")
    parser.add_argument("--out", default=None,
                        help="append every run to this result-set file")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark builds "
              f"nothing and measures the package in this checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    if args.smoke:
        seconds = 0.0  # the op loop always runs one op
    names = [args.workload] if args.workload else list(WORKLOADS)
    last = None
    for offset in range(args.runs):
        for name in names:
            doc = run_workload(name, args.seed + offset, seconds,
                               args.trace, smoke=args.smoke)
            if not doc["trace"] and doc["end_to_end"] is None:
                print(f"error: every op of {name} failed:\n  "
                      + "\n  ".join(doc["failures"]), file=sys.stderr)
                return 1
            metrics = declared_metrics(spec, doc)
            print_run(doc, metrics)
            if not args.smoke:
                save(doc, args.out)
            last = {"correct": doc["failed"] == 0,
                    "attempted": doc["attempted"],
                    "failed": doc["failed"], "metrics": metrics}
    if args.workload:
        print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
