"""Monte-Carlo study of rank-decreasing query trees.

The recursion behind a single query explores, in the worst case, a tree in
which a node's children matter only when their rank falls below the node's
own.  Sampling that process directly gives an empirical check that tree
sizes have an exponentially decaying tail, independent of graph size.

Model: the root (worst case, maximal rank) has ``d`` children; every other
node has ``d - 1``.  Ranks are i.i.d. uniform 64-bit integers and a child is
kept only if its rank is strictly below its parent's, so a tied rank prunes.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from itertools import accumulate

__all__ = ["TreeSample", "TailEstimate", "simulate_query_tree", "tail_ccdf"]

# Maximal drawable rank, assigned to the root.
_RANK_BITS = 64
_ROOT_RANK = (1 << _RANK_BITS) - 1

# CCDF values below 10/samples are too noisy to fit.
_FIT_FLOOR_COUNT = 10


@dataclass(frozen=True)
class TreeSample:
    size: int
    truncated: bool


def simulate_query_tree(d: int, cap: int, rng: random.Random) -> TreeSample:
    """Grow one query tree, counting nodes, stopping at ``cap``."""
    if d < 1:
        raise ValueError(f"branching degree must be at least 1, got {d}")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    size = 1
    stack: list[tuple[int, int]] = [(_ROOT_RANK, d)]
    while stack:
        parent_rank, child_count = stack.pop()
        for _ in range(child_count):
            r = rng.getrandbits(_RANK_BITS)
            if r < parent_rank:
                if size >= cap:
                    return TreeSample(cap, True)
                size += 1
                stack.append((r, d - 1))
    return TreeSample(size, False)


@dataclass(frozen=True)
class TailEstimate:
    """Empirical tail of the tree-size distribution plus a log-linear fit."""

    d: int
    samples: int
    cap: int
    points: tuple[tuple[int, float], ...]
    slope: float
    intercept: float
    r_squared: float
    truncated_fraction: float

    @property
    def inconclusive(self) -> bool:
        """Too much mass was cut off at the cap for the tail to be trusted."""
        return self.truncated_fraction >= 0.01

    def csv_lines(self) -> list[str]:
        lines = ["N,ccdf"]
        lines.extend(f"{n},{c:.10g}" for n, c in self.points)
        lines.append(
            f"# d={self.d} samples={self.samples} cap={self.cap} "
            f"slope={self.slope:.6g} r_squared={self.r_squared:.6g} "
            f"truncated_fraction={self.truncated_fraction:.6g} "
            f"inconclusive={str(self.inconclusive).lower()}"
        )
        return lines


def tail_ccdf(d: int, samples: int, cap: int, rng: random.Random) -> TailEstimate:
    """Sample ``samples`` trees and estimate ``Pr[size >= N]`` for N up to cap.

    The decay slope comes from least squares on ``log ccdf`` restricted to
    points with at least ``10 / samples`` empirical mass.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples for a tail fit, got {samples}")
    counts = [0] * (cap + 1)
    truncated = 0
    for _ in range(samples):
        t = simulate_query_tree(d, cap, rng)
        counts[t.size] += 1
        truncated += t.truncated
    # ccdf[N - 1] = Pr[size >= N] for N in 1..cap.
    suffix = list(accumulate(reversed(counts)))[::-1]
    ccdf = [s / samples for s in suffix[1:]]
    floor = _FIT_FLOOR_COUNT / samples
    fit = [(n, math.log(c)) for n, c in enumerate(ccdf, start=1) if c >= floor]
    if len(fit) >= 2:
        xs, ys = zip(*fit)
        slope, intercept = statistics.linear_regression(xs, ys)
        y_mean = statistics.fmean(ys)
        ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in fit)
        ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
        r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    else:
        slope, intercept, r_squared = math.nan, math.nan, math.nan
    return TailEstimate(
        d=d,
        samples=samples,
        cap=cap,
        points=tuple(enumerate(ccdf, start=1)),
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        truncated_fraction=truncated / samples,
    )
