import math

import pytest

from lcamatch.graph import gen_random_bounded
from lcamatch.lca import Engine
from lcamatch.querytree import TailEstimate, tail_ccdf

# 640, 320, ..., 20, 10 sizes at 1..7 and 10 more at 8: 1280 in all, and
# Pr[size >= N] = 2^-(N-1) exactly for N in 1..8, with 10 samples at N = 8.
HALVING = [size for size, count in zip(range(1, 9), (640, 320, 160, 80, 40, 20, 10, 10))
           for _ in range(count)]


@pytest.fixture(scope="module")
def decision_counts():
    """MIS decisions per query, for every edge of a degree-3 graph at n=1024."""
    eng = Engine(gen_random_bounded(1024, 3, 1), k=2, rng_seed=1, cache_mode="per_query")
    counts = []
    for e in eng.graph.sorted_edges():
        eng.query(e)
        counts.append(len(eng.last_stats.relevant_set_sizes))
    return counts


def test_fit_is_exact_on_halving_tail():
    est = tail_ccdf(HALVING)
    assert est.samples == 1280
    assert [n for n, _ in est.points] == list(range(1, 9))
    for n, c in est.points:
        assert c == pytest.approx(2.0 ** -(n - 1), rel=0, abs=1e-12)
    assert est.slope == pytest.approx(-math.log(2), rel=0, abs=1e-12)
    assert est.intercept == pytest.approx(math.log(2), rel=0, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "sizes",
    [[], [1] * 50 + [2] * 9],
    ids=["empty", "one-point-over-the-floor"],
)
def test_fit_is_none_without_two_points_over_the_floor(sizes):
    est = tail_ccdf(sizes)
    assert est.samples == len(sizes)
    assert est.slope is None
    assert est.intercept is None
    assert est.r_squared is None


def test_ccdf_starts_at_one_and_decreases(decision_counts):
    assert min(decision_counts) >= 1
    est = tail_ccdf(decision_counts)
    ns = [n for n, _ in est.points]
    cs = [c for _, c in est.points]
    assert ns == list(range(1, max(decision_counts) + 1))
    assert cs[0] == 1.0
    for prev, cur in zip(cs, cs[1:]):
        assert cur <= prev
    assert all(0.0 < c <= 1.0 for c in cs)


def test_tail_is_exponential_for_degree_three(decision_counts):
    # Acceptance 7's per-case thresholds on the 1516 queries of one graph.
    est = tail_ccdf(decision_counts)
    assert est.samples == 1516
    assert est.slope < 0
    assert est.r_squared >= 0.9


def test_estimate_validation():
    with pytest.raises(ValueError, match="negative"):
        tail_ccdf([3, -1])


def test_estimate_is_frozen_record():
    est = tail_ccdf(HALVING)
    assert isinstance(est, TailEstimate)
    with pytest.raises(AttributeError):
        est.slope = 0.0


def test_fit_ignores_sparse_tail():
    # Nine far-out sizes extend the CCDF to 500 but stay below the fit floor,
    # so the fit is the one of the dense head alone.
    est = tail_ccdf(HALVING + [500] * 9)
    assert len(est.points) == 500
    assert est.slope == pytest.approx(tail_ccdf(HALVING + [8] * 9).slope, abs=1e-12)
    assert math.isfinite(est.slope)
    assert est.r_squared > 0.99
