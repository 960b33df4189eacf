"""Order statistics used by every workload.

The tail rule follows the benchmark's reporting convention: a tail latency
is the highest percentile that still has at least ten samples beyond it, so
a run never reports a p99 that rests on one or two requests.
"""
import math
import statistics

TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, pct):
    """Linear-interpolation percentile (numpy's default) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def samples_beyond(n, pct):
    """How many of n sorted samples lie past the interpolated pct-th rank."""
    return n - math.floor((n - 1) * pct / 100.0) - 1 if n else 0


def tail_percentile(n):
    """Highest percentile in TAIL_PERCENTILES with >= MIN_BEYOND samples beyond
    it. A sample too small for any of them (under 20) supports no tail at
    all, and its median stands in: the maximum of a few runs is mostly noise."""
    for pct in TAIL_PERCENTILES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def tail(values):
    """(percentile used, value) under the tail rule."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct)


def median(values):
    return float(statistics.median(values))
