"""One workload in one fresh process (started by ``run.py``).

Protocol on stdout, one JSON document per marked line:

``BENCH_SETUP_DONE {...}``  printed the moment set-up and warm-up end;
                            the parent times child start to this line.
``BENCH_RESULT {...}``      everything the measured window produced.

``--phase setup`` stops after the first line (a cold set-up sample);
``--phase measure`` goes on to run the window.
"""

import argparse
import json
import statistics
import sys

SETUP_MARK = "BENCH_SETUP_DONE "
RESULT_MARK = "BENCH_RESULT "

WORKLOADS = ("serial_pcsi_evp", "dist_land_pcsi_evp",
             "dist_batched_multirhs", "dist_batched_guarded",
             "stepper_day", "service_closed2")


def make_workload(name, seed, tmp_dir, smoke=False):
    if name == "stepper_day":
        from wl_stepper import StepperWorkload

        return StepperWorkload(seed, tmp_dir, smoke=smoke)
    if name == "service_closed2":
        from wl_service import ServiceWorkload

        return ServiceWorkload(seed, tmp_dir, smoke=smoke)
    from wl_solve import SolveWorkload

    return SolveWorkload(name, seed, tmp_dir, smoke=smoke)


def emit(mark, doc):
    print(mark + json.dumps(doc), flush=True)


def log_doc(log):
    from stats import summarize

    doc = {"attempted": log.attempted, "failed": log.failed,
           "failures": log.failures[:20], "rhs": log.rhs,
           "input_digests": log.digests}
    if log.durations:
        doc["op_s"] = summarize(log.durations)
        doc["op_samples_s"] = log.durations
        doc["iterations"] = summarize(log.iterations)
    return doc


def traced_window(workload, seconds, trace_path):
    """The traced run: ``(log, per-layer metrics, span count)``."""
    from tracer import Tracer

    tracer = Tracer()
    log, metrics = workload.traced_measure(seconds, tracer)
    bare_s, traced_s = log.samples(traced=False), log.samples(traced=True)
    if bare_s and traced_s:
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(bare_s) - 1.0)
    tracer.write_ndjson(trace_path)
    return log, metrics, len(tracer.names)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"),
                        default="measure")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from common import end_to_end_metrics, fingerprint

    workload = make_workload(args.workload, args.seed, args.tmp,
                             smoke=args.smoke)
    try:
        workload.setup()
        emit(SETUP_MARK, {"setup_s": workload.setup_s})
        if args.phase == "setup":
            return 0
        doc = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "seconds": args.seconds,
               "smoke": args.smoke, "fingerprint": fingerprint()}
        doc["fingerprint"]["workload"] = workload.describe()
        if args.trace:
            log, doc["per_layer"], doc["trace_spans"] = traced_window(
                workload, args.seconds, args.trace_file)
        else:
            log = workload.measure(args.seconds)
        doc.update(log_doc(log))
        doc["end_to_end"] = end_to_end_metrics(
            log, peak_rss_mb=workload.peak_rss_mb())
        emit(RESULT_MARK, doc)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
