"""Compare two result sets written by ``run.py --out``.

::

    python3 bench/compare.py A.json B.json          # A = parent, B = change
    python3 bench/compare.py --self A.json B.json   # same commit, twice

One row per (end-to-end metric, workload): both medians with their
quartiles, the ratio B/A, and a verdict by the bound ``BENCHMARK.json``
fixes for the metric:

``same``        B's median is within the bound of A's.
``better``      B improved on A by more than the bound.
``worse``       B is worse than A by more than the bound.
``unresolved``  the run-to-run spread (quartile distance over median)
                of either side is wider than the bound, so a difference
                of that size cannot be told from noise -- unless every
                run of one side beats every run of the other, which
                settles it.

Exits non-zero on any ``worse`` or when B failed a larger share of its
ops than A.

``--self`` is the repeatability check for two sets of runs of one
commit: every spread (``setup_s`` excepted) must stay within its bound,
no median may drift by more than its bound, and counted per-layer
metrics of traced runs with the same seed must be identical.
"""

import argparse
import json
import sys
from collections import defaultdict

from common import ROOT
from stats import quartiles, spread


def load_runs(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def end_to_end_values(runs):
    """``{(metric, workload): [value per untraced run]}``."""
    values = defaultdict(list)
    for run in runs:
        if run["trace"] or run["end_to_end"] is None:
            continue
        for name, value in run["end_to_end"].items():
            values[name, run["workload"]].append(value)
    return values


def failure_ratios(runs):
    attempted = defaultdict(int)
    failed = defaultdict(int)
    for run in runs:
        attempted[run["workload"]] += run["attempted"]
        failed[run["workload"]] += run["failed"]
    return {w: failed[w] / attempted[w] for w in attempted if attempted[w]}


def worsening(metric, a_median, b_median):
    """How much worse B is than A, as a share of A (negative = better)."""
    change = b_median / a_median - 1.0
    return change if metric["better"] == "lower" else -change


def dominates(metric, winners, losers):
    """Does every ``winners`` run beat every ``losers`` run?"""
    if metric["better"] == "lower":
        return max(winners) < min(losers)
    return min(winners) > max(losers)


def verdict(metric, a, b):
    bound = metric["bound"]
    worse_by = worsening(metric, quartiles(a)[1], quartiles(b)[1])
    if dominates(metric, b, a):
        return "better" if -worse_by > bound else "same"
    if dominates(metric, a, b):
        return "worse" if worse_by > bound else "same"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if -worse_by > bound else "same"


def rows(spec, runs_a, runs_b):
    a_values, b_values = end_to_end_values(runs_a), end_to_end_values(runs_b)
    for metric in spec["end_to_end"]:
        for workload in [w["name"] for w in spec["workloads"]]:
            a = a_values.get((metric["name"], workload))
            b = b_values.get((metric["name"], workload))
            if a and b:
                yield metric, workload, a, b


def fmt(values):
    q1, q2, q3 = quartiles(values)
    if len(values) == 1:
        return f"{q2:.5g}"
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(spec, runs_a, runs_b):
    """Print the table; returns the number of regressions."""
    bad = 0
    print(f"{'metric':12s} {'workload':22s} {'A median [q1, q3]':38s} "
          f"{'B median [q1, q3]':38s} {'B/A':>7s}  verdict")
    for metric, workload, a, b in rows(spec, runs_a, runs_b):
        result = verdict(metric, a, b)
        bad += result == "worse"
        ratio = quartiles(b)[1] / quartiles(a)[1]
        print(f"{metric['name']:12s} {workload:22s} {fmt(a):38s} "
              f"{fmt(b):38s} {ratio:7.3f}  {result} "
              f"(bound {metric['bound']:g}, {metric['better']} is better)")
    fail_a, fail_b = failure_ratios(runs_a), failure_ratios(runs_b)
    for workload in sorted(fail_b):
        if fail_b[workload] > fail_a.get(workload, 0.0):
            bad += 1
            print(f"failure_ratio {workload}: {fail_a.get(workload, 0.0):.4f}"
                  f" -> {fail_b[workload]:.4f}  worse")
    return bad


def count_mismatches(spec, runs_a, runs_b):
    """Counted per-layer metrics must repeat exactly for equal seeds."""
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    traced_b = {(r["workload"], r["seed"]): r for r in runs_b if r["trace"]}
    for run in runs_a:
        other = traced_b.get((run["workload"], run["seed"]))
        if not run["trace"] or other is None:
            continue
        for name in counted:
            a = run["per_layer"].get(name, 0)
            b = other["per_layer"].get(name, 0)
            if a != b:
                yield f"{name} {run['workload']} seed {run['seed']}: {a} != {b}"


def self_check(spec, runs_a, runs_b):
    """The driver's acceptance rule on two sets of one commit."""
    bad = 0
    print(f"{'metric':12s} {'workload':22s} {'spread A':>9s} {'spread B':>9s} "
          f"{'drift':>8s} {'bound':>6s}  verdict")
    for metric, workload, a, b in rows(spec, runs_a, runs_b):
        bound = metric["bound"]
        drift = worsening(metric, quartiles(a)[1], quartiles(b)[1])
        widest = max(spread(a), spread(b))
        steady = metric["name"] == "setup_s" or widest <= bound
        ok = steady and drift <= bound
        bad += not ok
        print(f"{metric['name']:12s} {workload:22s} {spread(a):9.4f} "
              f"{spread(b):9.4f} {drift:+8.4f} {bound:6g}  "
              f"{'ok' if ok else 'NOT REPEATABLE'}")
    for workload, ratio in sorted({**failure_ratios(runs_a),
                                   **failure_ratios(runs_b)}.items()):
        if ratio:
            bad += 1
            print(f"failure_ratio {workload}: {ratio:.4f}  NOT ZERO")
    for line in count_mismatches(spec, runs_a, runs_b):
        bad += 1
        print(f"count differs: {line}")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="result set of the parent commit")
    parser.add_argument("b", help="result set of the change")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="A and B are two sets of runs of one commit")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    check = self_check if args.self_check else compare
    return 1 if check(spec, runs_a, runs_b) else 0


if __name__ == "__main__":
    sys.exit(main())
