"""Order statistics and span arithmetic used by the benchmark harness.

Kept free of numpy so the orchestrating process stays light and the
arithmetic is easy to check by hand (see test_stats.py).
"""

import statistics


def quartiles(values):
    """(q1, median, q3) with the default 'exclusive' method of statistics.quantiles."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median: the run-to-run noise."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time per span id: its duration minus the part its children cover.

    ``spans`` is a list of dicts with ``id``, ``parent`` (an id or None),
    ``start`` and ``end``.  Children are clipped to the parent interval, so
    on one thread the self times of a tree add up to the root's duration.
    """
    children = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        clipped = [(max(c["start"], lo), min(c["end"], hi))
                   for c in children[s["id"]]]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s["id"]] = (hi - lo) - _covered(clipped)
    return out
