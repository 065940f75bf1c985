"""Order statistics shared by the benchmark and its comparison tool.

A tail percentile is only worth reporting when enough samples lie beyond
it: with fewer than :data:`MIN_BEYOND` samples above the cut, "p99" is
just the maximum of a handful of values and moves with every outlier.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) interpolated within the values.

    This is numpy's and R's default.  Python's default ``exclusive``
    method extrapolates, and for three runs its quartiles are just the
    minimum and the maximum.
    """
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank ``p``-th percentile of ``n``."""
    # rounded first so that e.g. 99% of 1000 is rank 990, not 991
    return n - max(1, math.ceil(round(p * n / 100.0, 9)))


def percentiles(values, ps) -> dict[float, float]:
    """Nearest-rank percentiles of ``values`` for each ``p`` in ``ps``,
    leaving out every ``p`` with fewer than :data:`MIN_BEYOND` samples
    beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    return {
        p: ordered[n - beyond(n, p) - 1]
        for p in ps
        if n and beyond(n, p) >= MIN_BEYOND
    }


def tail(values) -> tuple[str, float]:
    """The highest reportable tail percentile as ``(label, value)``.

    With too few samples for any of :data:`TAIL_PERCENTILES` there is no
    tail to report, and the median stands in for it: the slowest of a
    handful of samples would only measure the noisiest one.
    """
    found = percentiles(values, TAIL_PERCENTILES)
    for p in TAIL_PERCENTILES:
        if p in found:
            return f"p{p:g}", found[p]
    return "p50", median(values)
