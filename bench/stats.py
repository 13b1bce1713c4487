"""Sample statistics shared by the harness and ``compare.py``."""

import statistics


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the estimator the contract's spread rule names); a single sample
    is its own quartiles."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail_percentile(n, beyond=10, minimum=20):
    """The highest whole percentile that still leaves at least
    ``beyond`` of ``n`` samples above it, or ``None`` below ``minimum``
    samples (a tail read off fewer is noise, so none is reported)."""
    if n < minimum:
        return None
    return int(100.0 * (n - beyond) / n)


def percentile(values, pct):
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def summarize(values):
    """Median, quartiles, sample count and (where supported) the tail."""
    q1, q2, q3 = quartiles(values)
    out = {"n": len(values), "median": q2, "q1": q1, "q3": q3,
           "min": min(values), "max": max(values)}
    pct = tail_percentile(len(values))
    if pct is not None:
        out["tail_pct"] = pct
        out["tail"] = percentile(values, pct)
    return out
