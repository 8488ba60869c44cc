import collections
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcamatch.graph import gen_random_bounded
from lcamatch.paths import _grow, iter_intersecting, paths_through_edge

from conftest import (
    alternates,
    brute_paths_through_edge,
    cycle_graph,
    make_graph,
    mate_of,
    path_edges,
    path_graph,
    path_key,
    petersen_graph,
    random_matching,
    simple_paths,
)


def free(x):
    """The empty matching's ``mate``: every vertex is free."""
    return -1


def test_single_edge_path():
    g = path_graph(4)
    assert paths_through_edge(g, (2, 1), 1, mate=free) == [(1, 2)]
    # A matched edge is no alternating path of length 1.
    assert paths_through_edge(g, (2, 1), 1, mate=mate_of(g, {(1, 2)})) == []


def test_c5_paths_through_edge_length3():
    # Against {(0, 1)}, the one alternating path of length 3 holds (0, 1) in
    # the middle, and each of its edges finds it.
    g = cycle_graph(5)
    mate = mate_of(g, {(0, 1)})
    expected = [path_key([4, 0, 1, 2])]
    for e in path_edges(expected[0]):
        assert paths_through_edge(g, e, 3, mate=mate) == expected
    assert paths_through_edge(g, (2, 3), 3, mate=mate) == []


def test_paths_through_edge_validation():
    g = path_graph(4)
    with pytest.raises(ValueError, match="not in graph"):
        paths_through_edge(g, (0, 3), 3, mate=free)
    with pytest.raises(ValueError, match="positive"):
        paths_through_edge(g, (0, 1), 0, mate=free)
    with pytest.raises(ValueError, match="integer"):
        paths_through_edge(g, (0.0, 1), 1, mate=free)
    # numpy integers are ids, and the paths found hold plain ints.
    mate = mate_of(g, {(1, 2)})
    out = paths_through_edge(g, (np.int64(2), np.int64(1)), 3, mate=mate)
    assert out == [(0, 1, 2, 3)]
    assert {type(x) for x in out[0]} == {int}


@pytest.mark.parametrize("length", [2, 4])
def test_even_lengths_are_refused(length):
    # Under a matching an even-length path alternates from one end but not
    # from the other, so which edge asked would decide whether it is found.
    g = path_graph(6)
    mate = mate_of(g, {(1, 2), (3, 4)})
    with pytest.raises(ValueError, match="odd"):
        paths_through_edge(g, (0, 1), length, mate=mate)
    with pytest.raises(ValueError, match="odd"):
        iter_intersecting(g, tuple(range(length + 1)), mate=mate)


def test_intersecting_paths_midpoint_and_endpoint():
    # A spider on the matched edge (1, 2), plus a tail through the matched
    # edge (6, 7).  (3, 6, 7, 8) meets (0, 1, 2, 3) only at an end of both;
    # (4, 1, 2, 5) meets it only in its middle.
    g = make_graph(
        9, 3, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (6, 7), (7, 8)]
    )
    mate = mate_of(g, {(1, 2), (6, 7)})
    p, q = path_key([0, 1, 2, 3]), path_key([3, 6, 7, 8])
    assert sorted(iter_intersecting(g, p, mate=mate)) == sorted(
        [path_key([0, 1, 2, 5]), path_key([4, 1, 2, 3]), path_key([4, 1, 2, 5]), q]
    )
    assert sorted(iter_intersecting(g, q, mate=mate)) == sorted(
        [p, path_key([4, 1, 2, 3])]
    )


def test_intersecting_paths_on_c5_single_edges():
    g = cycle_graph(5)
    p = (0, 1)
    out = sorted(iter_intersecting(g, p, mate=mate_of(g, {(2, 3)})))
    assert set(out) == {(0, 4), (1, 2)}
    assert p not in out


def test_intersecting_paths_symmetry():
    g = petersen_graph()
    mate = mate_of(g, random_matching(g, random.Random(3)))
    checked = 0
    for e in g.sorted_edges():
        for p in paths_through_edge(g, e, 3, mate=mate):
            for q in iter_intersecting(g, p, mate=mate):
                assert p in set(iter_intersecting(g, q, mate=mate))
                checked += 1
    assert checked > 0


def test_enumeration_matches_bruteforce_small():
    rng = random.Random(4242)
    cases = 0
    for gi in range(12):
        n = rng.randrange(4, 11)
        d = rng.randrange(2, 5)
        g = gen_random_bounded(n, d, 900 + gi)
        if g.edge_count == 0:
            continue
        matching = random_matching(g, rng)
        mate = mate_of(g, matching)
        edges = g.sorted_edges()
        for length in (1, 3, 5):
            e = edges[rng.randrange(len(edges))]
            expected = [
                p for p in brute_paths_through_edge(g, e, length) if alternates(p, matching)
            ]
            out = paths_through_edge(g, e, length, mate=mate)
            assert out == expected
            # Paths are plain tuples in canonical form, from both enumerators.
            emitted = list(out)
            if out:
                emitted += iter_intersecting(g, out[0], mate=mate)
            assert all(type(p) is tuple and p <= p[::-1] for p in emitted)
            cases += 1
    assert cases >= 30


def test_vertex_enumeration_matches_bruteforce():
    rng = random.Random(5151)
    for gi in range(6):
        g = gen_random_bounded(rng.randrange(5, 10), rng.randrange(2, 5), 700 + gi)
        matching = random_matching(g, rng)
        mate = mate_of(g, matching)
        for length in (1, 3, 5):
            every = set()
            for e in g.sorted_edges():
                every |= set(brute_paths_through_edge(g, e, length))
            every = {p for p in every if alternates(p, matching)}
            for p in every:
                expected = sorted(q for q in every if q != p and set(q) & set(p))
                assert sorted(iter_intersecting(g, p, mate=mate)) == expected


def test_filtered_enumeration_keeps_exactly_the_alternating_paths():
    # On graphs too large for the permutation oracle: every alternating path
    # from the reference search is found through each of its edges and from
    # each path it meets, and nothing else is.
    rng = random.Random(6262)
    graphs = 0
    kept = collections.Counter()
    for gi in range(8):
        g = gen_random_bounded(rng.randrange(10, 21), rng.randrange(2, 5), 600 + gi)
        if g.edge_count == 0:
            continue
        graphs += 1
        matching = random_matching(g, rng)
        mate = mate_of(g, matching)
        for length in (1, 3, 5):
            every = [p for p in simple_paths(g, length) if alternates(p, matching)]
            through = collections.defaultdict(list)
            for p in every:
                for e in path_edges(p):
                    through[e].append(p)
            for e in g.sorted_edges():
                assert paths_through_edge(g, e, length, mate=mate) == through[e]
            kept[length] += len(every)
            for p in every[:: max(1, len(every) // 10)]:
                expected = {q for q in every if q != p and set(q) & set(p)}
                assert set(iter_intersecting(g, p, mate=mate)) == expected
    assert graphs >= 6
    assert kept[3] > 0 and kept[5] > 0


def _asks(mate):
    """``mate`` and the list of vertices it is asked about."""
    asked = []

    def counted(x):
        asked.append(x)
        return mate(x)

    return counted, asked


def _split_asks(g, mate, path, steps, later):
    # What one split of the reference grower asks of mate.
    counted, asked = _asks(mate)
    _grow(g, counted, list(path), steps, later, [])
    return asked


def test_free_anchor_grows_only_the_split_it_ends():
    # An inner vertex of an alternating path is matched, so a free vertex
    # can only end one.  Both enumerators then grow only the split with no
    # edge before it, and ask mate nothing the other splits would.
    rng = random.Random(7373)
    through = intersecting = 0
    for gi in range(8):
        g = gen_random_bounded(rng.randrange(10, 21), rng.randrange(2, 5), 800 + gi)
        if g.edge_count == 0:
            continue
        matching = random_matching(g, rng)
        mate = mate_of(g, matching)
        for length in (1, 3, 5):
            every = [p for p in simple_paths(g, length) if alternates(p, matching)]
            for e in g.sorted_edges():
                if mate(e[0]) >= 0:
                    continue
                counted, asked = _asks(mate)
                out = paths_through_edge(g, e, length, mate=counted)
                assert out == [p for p in every if e in path_edges(p)]
                split = _split_asks(g, mate, e, length - 1, 0)
                assert collections.Counter(asked) == collections.Counter([e[0], *split])
                through += 1
            for p in every:
                if all(mate(v) >= 0 for v in p):
                    continue
                counted, asked = _asks(mate)
                out = set(iter_intersecting(g, p, mate=counted))
                assert out == {q for q in every if q != p and set(q) & set(p)}
                expected, every_split = [], []
                for v in p:
                    splits = range(length // 2 + 1)
                    for f in splits if mate(v) >= 0 else splits[:1]:
                        expected += _split_asks(g, mate, [v], length - f, f)
                    for f in splits:
                        every_split += _split_asks(g, mate, [v], length - f, f)
                assert collections.Counter(asked) == collections.Counter(expected)
                if length > 1:
                    assert len(asked) < len(every_split)
                intersecting += 1
    assert through > 0 and intersecting > 0


def test_simple_paths_matches_bruteforce():
    # The reference search above against the permutation oracle, even
    # lengths included.
    for gi in range(6):
        g = gen_random_bounded(7, 3, 300 + gi)
        for length in (1, 2, 3, 4, 5):
            every = simple_paths(g, length)
            for e in g.sorted_edges():
                assert [p for p in every if e in path_edges(p)] == brute_paths_through_edge(
                    g, e, length
                )


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
    e = g.sorted_edges()[rng.randrange(g.edge_count)]
    mate = mate_of(g, random_matching(g, rng))
    through = paths_through_edge(g, e, length, mate=mate)
    # paths through one edge
    assert len(through) <= length * max(1, (d - 1)) ** (length - 1)
    if through:
        p = through[0]
        # conflict-graph degree
        limit = d * (length + 1) * length * max(1, (d - 1)) ** (length - 1)
        assert len(list(iter_intersecting(g, p, mate=mate))) <= limit


def test_outputs_are_sorted_and_unique():
    g = petersen_graph()
    mate = mate_of(g, random_matching(g, random.Random(5)))
    found = 0
    for e in g.sorted_edges():
        out = paths_through_edge(g, e, 5, mate=mate)
        assert out == sorted(out)
        assert len(out) == len(set(out))
        if out:
            found += 1
            inter = list(iter_intersecting(g, out[0], mate=mate))
            assert len(inter) == len(set(inter))
    assert found > 0
