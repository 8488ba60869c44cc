"""Tail of the engine's per-query decision counts.

The paper's locality argument is the query-tree bound: the recursion behind
one query visits a tree whose size has an exponentially decaying tail that
does not grow with the graph (Mansour, Rubinfeld, Vardi and Xie, ICALP 2012,
under the kappa-wise independent orders of Alon, Rubinfeld, Vardi and Xie,
SODA 2012).  The engine measures that tree itself: every greedy-MIS decision
a query computes adds one entry to ``Stats.relevant_set_sizes``, so the
length of that list is the query's decision count.

:func:`tail_ccdf` takes such counts, one per query, and fits a line to
``log Pr[count >= N]``.  ``lcamatch bench`` reports the fit per trial, and
acceptance 7 checks it at two graph sizes.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple, Sequence

from .graph import _as_int

__all__ = ["TailEstimate", "tail_ccdf"]

# CCDF values carried by fewer than 10 samples are too noisy to fit.
_FIT_FLOOR_COUNT = 10


class TailEstimate(NamedTuple):
    """Empirical ``Pr[size >= N]`` for N in 1..max size, plus a log-linear fit.

    ``slope``, ``intercept`` and ``r_squared`` are None when fewer than two
    points are carried by at least 10 samples.
    """

    samples: int
    points: tuple[tuple[int, float], ...]
    slope: float | None
    intercept: float | None
    r_squared: float | None


def tail_ccdf(sizes: Sequence[int]) -> TailEstimate:
    """Estimate ``Pr[size >= N]`` over ``sizes`` and fit its log by least squares.

    Only points with at least 10 samples at or above them enter the fit.
    """
    import statistics  # only the fit uses it; keeps it out of `import lcamatch`

    sizes = [_as_int(s, "size") for s in sizes]
    if any(s < 0 for s in sizes):
        raise ValueError("sizes must not be negative")
    samples = len(sizes)
    counts = [0] * (max(sizes, default=0) + 1)
    for s in sizes:
        counts[s] += 1
    # at_least[N - 1] = number of sizes >= N, for N in 1..max size.
    at_least = list(accumulate(reversed(counts)))[::-1][1:]
    fit = [
        (n, math.log(c / samples))
        for n, c in enumerate(at_least, start=1)
        if c >= _FIT_FLOOR_COUNT
    ]
    slope = intercept = r_squared = None
    if len(fit) >= 2:
        xs, ys = zip(*fit)
        slope, intercept = statistics.linear_regression(xs, ys)
        y_mean = statistics.fmean(ys)
        ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in fit)
        ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
        r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return TailEstimate(
        samples=samples,
        points=tuple((n, c / samples) for n, c in enumerate(at_least, start=1)),
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
    )
