import itertools
import random

import pytest

from lcamatch.graph import Graph, gen_random_bounded
from lcamatch.ordering import init_seeds
from lcamatch.oracles import (
    SizeLimitError,
    abstract_distributed_mm,
    augmenting_paths,
    find_augmenting_path,
    intersection_edges,
    is_augmenting_for,
    max_matching_bruteforce,
    verify_matching,
)

from conftest import complete_graph, cycle_graph, path_graph, path_key, petersen_graph


def test_verify_matching_basic():
    g = path_graph(4)
    assert verify_matching(g, {(0, 1), (2, 3)})
    assert not verify_matching(g, {(0, 1), (1, 2)})
    assert verify_matching(g, set())
    with pytest.raises(ValueError, match="not in graph"):
        verify_matching(g, {(0, 3)})


def test_bruteforce_known_sizes():
    assert max_matching_bruteforce(path_graph(4))[0] == 2
    assert max_matching_bruteforce(path_graph(5))[0] == 2
    assert max_matching_bruteforce(cycle_graph(5))[0] == 2
    assert max_matching_bruteforce(cycle_graph(6))[0] == 3
    assert max_matching_bruteforce(petersen_graph())[0] == 5
    assert max_matching_bruteforce(complete_graph(5))[0] == 2
    assert max_matching_bruteforce(Graph.from_edges(3, 2, []))[0] == 0


def test_bruteforce_witness_is_valid_and_sized():
    for seed in range(8):
        g = gen_random_bounded(10, 3, 400 + seed)
        if g.edge_count > 24:
            continue
        size, witness = max_matching_bruteforce(g)
        assert len(witness) == size
        assert verify_matching(g, witness)


def test_bruteforce_size_guard():
    g = gen_random_bounded(40, 4, 2)
    assert g.edge_count > 24
    with pytest.raises(SizeLimitError):
        max_matching_bruteforce(g)


def test_find_augmenting_path_empty_matching_returns_edge():
    g = path_graph(4)
    p = find_augmenting_path(g, set(), 1)
    assert p is not None and len(p) == 2
    assert find_augmenting_path(Graph.from_edges(3, 2, []), set(), 3) is None


def test_find_augmenting_path_known_case():
    # P4 with only the middle edge matched: the whole path augments
    g = path_graph(4)
    p = find_augmenting_path(g, {(1, 2)}, 3)
    assert p == (0, 1, 2, 3)
    assert find_augmenting_path(g, {(1, 2)}, 1) is None


def test_find_augmenting_path_respects_max_len():
    g = path_graph(6)
    m = {(1, 2), (3, 4)}
    assert find_augmenting_path(g, m, 3) is None
    p = find_augmenting_path(g, m, 5)
    assert p == (0, 1, 2, 3, 4, 5)


def test_find_augmenting_path_rejects_non_matching():
    g = path_graph(4)
    with pytest.raises(ValueError, match="not a matching"):
        find_augmenting_path(g, {(0, 1), (1, 2)}, 3)


def test_berge_certificate_for_bruteforce_optimum():
    for seed in range(10):
        g = gen_random_bounded(9, 3, 500 + seed)
        if not (1 <= g.edge_count <= 24):
            continue
        _, best = max_matching_bruteforce(g)
        assert find_augmenting_path(g, best, g.vertex_count) is None


def test_is_augmenting_for_patterns():
    g = path_graph(4)
    whole = path_key([0, 1, 2, 3])
    assert is_augmenting_for(g, whole, {(1, 2)})
    assert not is_augmenting_for(g, whole, {(0, 1)})
    assert not is_augmenting_for(g, whole, set())
    edge = path_key([1, 2])
    assert is_augmenting_for(g, edge, set())
    assert not is_augmenting_for(g, edge, {(0, 1)})


def test_conflict_graph_p4_phase1_is_line_graph():
    g = path_graph(4)
    nodes = augmenting_paths(g, set(), 1)
    assert nodes == {(0, 1), (1, 2), (2, 3)}
    assert intersection_edges(nodes) == {
        ((0, 1), (1, 2)),
        ((1, 2), (2, 3)),
    }


def test_conflict_graph_c5_phase1():
    g = cycle_graph(5)
    nodes = augmenting_paths(g, set(), 1)
    assert len(nodes) == 5
    assert len(intersection_edges(nodes)) == 5


def test_conflict_graph_respects_matching():
    g = path_graph(4)
    nodes = augmenting_paths(g, {(1, 2)}, 3)
    assert nodes == {(0, 1, 2, 3)}
    assert intersection_edges(nodes) == frozenset()
    assert augmenting_paths(g, {(1, 2)}, 1) == frozenset()


def test_augmenting_paths_validation():
    g = path_graph(4)
    with pytest.raises(ValueError, match="odd"):
        augmenting_paths(g, set(), 2)
    with pytest.raises(ValueError, match="not a matching"):
        augmenting_paths(g, {(0, 1), (1, 2)}, 3)


def _random_matching(g, rng):
    edges = g.sorted_edges()
    rng.shuffle(edges)
    covered, matching = set(), set()
    for u, v in edges:
        if u not in covered and v not in covered and rng.random() < 0.6:
            matching.add((u, v))
            covered.update((u, v))
    return matching


def test_augmenting_paths_match_brute_force():
    # every vertex sequence of ell + 1 distinct vertices, kept when it is a
    # path of g that augments the matching
    rng = random.Random(3)
    for gi in range(12):
        n = rng.randrange(4, 9)
        g = gen_random_bounded(n, rng.randrange(2, 5), 700 + gi)
        for _ in range(2):
            matching = _random_matching(g, rng)
            for ell in (1, 3, 5):
                expected = set()
                for seq in itertools.permutations(range(n), ell + 1):
                    if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
                        p = path_key(seq)
                        if is_augmenting_for(g, p, matching):
                            expected.add(p)
                assert augmenting_paths(g, matching, ell) == expected


def test_abstract_mm_k2_on_p4_forced():
    g = path_graph(4)
    for seed in range(6):
        ss = init_seeds(2, 4, seed)
        assert abstract_distributed_mm(g, 2, ss) == frozenset({(0, 1), (2, 3)})


def test_abstract_mm_k1_on_k2():
    g = path_graph(2)
    ss = init_seeds(1, 2, 0)
    assert abstract_distributed_mm(g, 1, ss) == frozenset({(0, 1)})


def test_abstract_mm_c5_k2_is_maximum():
    g = cycle_graph(5)
    for seed in range(6):
        ss = init_seeds(2, 5, seed)
        m = abstract_distributed_mm(g, 2, ss)
        assert len(m) == 2
        assert verify_matching(g, m)


def test_abstract_mm_no_short_augmenting_path():
    rng = random.Random(7)
    for gi in range(8):
        n = rng.randrange(5, 16)
        d = rng.randrange(2, 5)
        g = gen_random_bounded(n, d, 600 + gi)
        if g.edge_count == 0:
            continue
        for k in (1, 2, 3):
            ss = init_seeds(k, n, gi)
            m = abstract_distributed_mm(g, k, ss)
            assert verify_matching(g, m)
            assert find_augmenting_path(g, m, 2 * k - 1) is None
