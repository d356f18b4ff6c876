"""Statistics and the result-line check shared by run.py, aa_check.py
and the tests.

Every statistic the benchmark reports is computed here, from the raw
samples the perfbench binary prints.
"""

import math
import statistics

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def percentile(values, q):
    """The q-th percentile (0..100), linear between closest ranks.

    This is the "linear" rule (numpy's default): rank q/100 * (n - 1)
    over the sorted samples, interpolated between its neighbours.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile outside 0..100")
    xs = sorted(values)
    rank = q / 100 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50)


def windowed_rate(durations, work_per_op, window_s=1.0):
    """Median, over consecutive windows of at least `window_s` seconds of
    op time, of the work done in a window over the window's time.

    Inside a window every op counts, slow ones included; across windows
    the median keeps a disturbed second of a shared host from moving
    the run's figure. Ops after the last full window join that window.
    """
    windows = [[0.0, 0.0]]  # [work, seconds]
    for d in durations:
        if windows[-1][1] >= window_s:
            windows.append([0.0, 0.0])
        windows[-1][0] += work_per_op
        windows[-1][1] += d
    if len(windows) > 1 and windows[-1][1] < window_s:
        work, seconds = windows.pop()
        windows[-1][0] += work
        windows[-1][1] += seconds
    return median([work / seconds for work, seconds in windows])


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of Python's
    statistics.quantiles(values, n=4) - how run-to-run spread is judged
    against a metric's bound."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def median_shift(first, second, better):
    """How much worse the median of `second` is than that of `first`,
    as a share of the first (negative when it is better)."""
    a = statistics.median(first)
    b = statistics.median(second)
    worse = b - a if better == "lower" else a - b
    return worse / a


def check_result(result, expected):
    """Errors in a result line against `expected` {name: unit}."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    errors = []
    if not isinstance(result["correct"], bool):
        errors.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            errors.append("%s must be a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        return errors + ["metrics must be exactly %s" % sorted(expected)]
    for name, unit in expected.items():
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errors.append("metric %s needs value and unit" % name)
            continue
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            errors.append("metric %s is not a finite number" % name)
        if m["unit"] != unit:
            errors.append("metric %s has unit %r, not %r" % (
                name, m["unit"], unit))
    return errors
