"""Order statistics for benchmark samples.

Quartiles use `statistics.quantiles(values, n=4)` (the "exclusive" method),
the same rule used when two sets of runs are compared, so a spread printed
here is the spread a reader would recompute from the raw values.
"""

from __future__ import annotations

import math
import re
import statistics

# Percentiles offered for the tail; a percentile is reported only when at
# least ten samples lie beyond it, so with fewer than 20 samples none is.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    """True when `name` matches the benchmark's metric-name pattern."""
    return METRIC_NAME.fullmatch(name) is not None


def quartiles(values):
    """(q1, median, q3); a single sample is its own quartiles."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def tail_percentile(values):
    """(p, value) for the highest offered percentile with ten samples beyond it.

    Returns None when there are too few samples for any of them.
    """
    n = len(values)
    best = None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    if best is None:
        return None
    ordered = sorted(float(v) for v in values)
    # inclusive linear interpolation between order statistics
    pos = (n - 1) * best / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return best, value


def summary(values):
    """Median, quartiles, sample count and tail percentile of `values`."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "tail": tail_percentile(values)}
