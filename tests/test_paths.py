import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcamatch.graph import gen_random_bounded, mk_edge
from lcamatch.paths import PathKey, iter_intersecting, paths_through_edge

from conftest import cycle_graph, path_graph, path_key, petersen_graph


def brute_paths_through_edge(g, e, length):
    """Oracle: filter all injective vertex sequences of the right length."""
    e = mk_edge(*e)
    found = set()
    for seq in itertools.permutations(range(g.vertex_count), length + 1):
        if any(not g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
            continue
        if e not in {mk_edge(a, b) for a, b in zip(seq, seq[1:])}:
            continue
        rev = seq[::-1]
        found.add(PathKey(seq if seq <= rev else rev))
    return found


def test_pathkey_accessors():
    p = PathKey((0, 1, 2, 3))
    assert p.length == 3
    assert p.edge_seq() == [(0, 1), (1, 2), (2, 3)]


def test_single_edge_path():
    g = path_graph(4)
    assert paths_through_edge(g, (2, 1), 1) == [PathKey((1, 2))]


def test_c5_paths_through_edge_length3():
    g = cycle_graph(5)
    out = paths_through_edge(g, (0, 1), 3)
    expected = {
        path_key([0, 1, 2, 3]),
        path_key([4, 0, 1, 2]),
        path_key([3, 4, 0, 1]),
    }
    assert set(out) == expected
    assert len(out) == 3
    assert out == sorted(out)


def test_paths_through_edge_validation():
    g = path_graph(4)
    with pytest.raises(ValueError, match="not in graph"):
        paths_through_edge(g, (0, 3), 3)
    with pytest.raises(ValueError, match="positive"):
        paths_through_edge(g, (0, 1), 0)


def test_intersecting_paths_midpoint_and_endpoint():
    g = path_graph(5)
    # (2, 3, 4) meets (0, 1, 2) only at an end of both; (1, 2, 3) meets both
    # at its midpoint.
    assert sorted(iter_intersecting(g, path_key([0, 1, 2]))) == [
        path_key([1, 2, 3]),
        path_key([2, 3, 4]),
    ]
    assert sorted(iter_intersecting(g, path_key([1, 2, 3]))) == [
        path_key([0, 1, 2]),
        path_key([2, 3, 4]),
    ]


def test_intersecting_paths_on_c5_single_edges():
    g = cycle_graph(5)
    p = PathKey((0, 1))
    out = sorted(iter_intersecting(g, p))
    assert set(out) == {PathKey((0, 4)), PathKey((1, 2))}
    assert p not in out


def test_intersecting_paths_symmetry():
    g = petersen_graph()
    for e in sorted(g.edges)[:5]:
        for p in paths_through_edge(g, e, 3):
            for q in iter_intersecting(g, p):
                assert p in set(iter_intersecting(g, q))


def test_enumeration_matches_bruteforce_small():
    rng = random.Random(4242)
    cases = 0
    for gi in range(12):
        n = rng.randrange(4, 11)
        d = rng.randrange(2, 5)
        g = gen_random_bounded(n, d, 900 + gi)
        if g.edge_count == 0:
            continue
        edges = g.sorted_edges()
        for length in (1, 2, 3, 5):
            e = edges[rng.randrange(len(edges))]
            assert set(paths_through_edge(g, e, length)) == brute_paths_through_edge(
                g, e, length
            )
            cases += 1
    assert cases >= 30


def test_vertex_enumeration_matches_bruteforce():
    # Even lengths put some vertices exactly mid-path, where growing from the
    # vertex meets each path once per orientation.
    rng = random.Random(5151)
    for gi in range(6):
        g = gen_random_bounded(rng.randrange(5, 10), rng.randrange(2, 5), 700 + gi)
        for length in (1, 2, 3, 4, 5):
            every = set()
            for e in g.edges:
                every |= brute_paths_through_edge(g, e, length)
            for p in every:
                expected = sorted(q for q in every if q != p and set(q) & set(p))
                assert sorted(iter_intersecting(g, p)) == expected


def random_matching(g, rng):
    edges = g.sorted_edges()
    rng.shuffle(edges)
    matching, covered = set(), set()
    for u, v in edges:
        if u not in covered and v not in covered and rng.random() < 0.7:
            matching.add((u, v))
            covered |= {u, v}
    return matching


def test_filtered_enumeration_keeps_exactly_the_alternating_paths():
    # The engine's filter: the i-th edge must be matched iff i is even.  For
    # odd lengths that reads the same from either end of a path.
    rng = random.Random(6262)
    graphs = 0
    kept = collections.Counter()
    for gi in range(8):
        g = gen_random_bounded(rng.randrange(6, 11), rng.randrange(2, 5), 600 + gi)
        if g.edge_count == 0:
            continue
        graphs += 1
        matching = random_matching(g, rng)
        partner = {}
        for u, v in matching:
            partner[u], partner[v] = v, u

        def mate(x):
            assert 0 <= x < g.vertex_count
            return partner.get(x, -1)

        def alternates(p):
            return all(
                (e in matching) == (i % 2 == 0)
                for i, e in enumerate(p.edge_seq(), start=1)
            )

        for length in (1, 3, 5):
            every = set()
            for e in g.sorted_edges():
                through = paths_through_edge(g, e, length)
                every |= set(through)
                expected = [p for p in through if alternates(p)]
                assert paths_through_edge(g, e, length, mate=mate) == expected
                kept[length] += len(expected)
            for p in sorted(every)[:: max(1, len(every) // 10)]:
                expected = {q for q in iter_intersecting(g, p) if alternates(q)}
                assert set(iter_intersecting(g, p, mate=mate)) == expected
    assert graphs >= 6
    assert kept[3] > 0 and kept[5] > 0


@given(
    n=st.integers(4, 25),
    d=st.integers(2, 5),
    seed=st.integers(0, 10**6),
    length=st.sampled_from([1, 3, 5]),
)
@settings(max_examples=50, deadline=None)
def test_counting_bounds(n, d, seed, length):
    g = gen_random_bounded(n, d, seed)
    if g.edge_count == 0:
        return
    rng = random.Random(seed)
    e = sorted(g.edges)[rng.randrange(g.edge_count)]
    through = paths_through_edge(g, e, length)
    # paths through one edge
    assert len(through) <= length * max(1, (d - 1)) ** (length - 1)
    if through:
        p = through[0]
        # conflict-graph degree
        limit = d * (length + 1) * length * max(1, (d - 1)) ** (length - 1)
        assert len(list(iter_intersecting(g, p))) <= limit


def test_outputs_are_sorted_and_unique():
    g = petersen_graph()
    for e in sorted(g.edges)[:4]:
        out = paths_through_edge(g, e, 5)
        assert out == sorted(out)
        assert len(out) == len(set(out))
        if out:
            inter = list(iter_intersecting(g, out[0]))
            assert len(inter) == len(set(inter))
