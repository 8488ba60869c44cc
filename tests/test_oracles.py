import random

import pytest

from lcamatch.graph import Graph, gen_random_bounded
from lcamatch.ordering import init_seeds
from lcamatch.oracles import (
    SizeLimitError,
    abstract_distributed_mm,
    build_conflict_graph,
    find_augmenting_path,
    is_augmenting_for,
    max_matching_bruteforce,
    verify_matching,
)
from lcamatch.paths import PathKey, canonical_key

from conftest import complete_graph, cycle_graph, path_graph, petersen_graph


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
    assert p is not None and p.length == 1
    assert find_augmenting_path(Graph.from_edges(3, 2, []), set(), 3) is None


def test_find_augmenting_path_known_case():
    # P4 with only the middle edge matched: the whole path augments
    g = path_graph(4)
    p = find_augmenting_path(g, {(1, 2)}, 3)
    assert p == PathKey((0, 1, 2, 3))
    assert find_augmenting_path(g, {(1, 2)}, 1) is None


def test_find_augmenting_path_respects_max_len():
    g = path_graph(6)
    m = {(1, 2), (3, 4)}
    assert find_augmenting_path(g, m, 3) is None
    p = find_augmenting_path(g, m, 5)
    assert p == PathKey((0, 1, 2, 3, 4, 5))


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
    whole = canonical_key(g, [0, 1, 2, 3])
    assert is_augmenting_for(g, whole, {(1, 2)})
    assert not is_augmenting_for(g, whole, {(0, 1)})
    assert not is_augmenting_for(g, whole, set())
    edge = canonical_key(g, [1, 2])
    assert is_augmenting_for(g, edge, set())
    assert not is_augmenting_for(g, edge, {(0, 1)})


def test_conflict_graph_p4_phase1_is_line_graph():
    g = path_graph(4)
    c = build_conflict_graph(g, set(), 1)
    assert c.nodes == {PathKey((0, 1)), PathKey((1, 2)), PathKey((2, 3))}
    assert c.edges == {
        (PathKey((0, 1)), PathKey((1, 2))),
        (PathKey((1, 2)), PathKey((2, 3))),
    }


def test_conflict_graph_c5_phase1():
    g = cycle_graph(5)
    c = build_conflict_graph(g, set(), 1)
    assert len(c.nodes) == 5
    assert len(c.edges) == 5


def test_conflict_graph_respects_matching():
    g = path_graph(4)
    c = build_conflict_graph(g, {(1, 2)}, 3)
    assert c.nodes == {PathKey((0, 1, 2, 3))}
    assert c.edges == frozenset()
    c1 = build_conflict_graph(g, {(1, 2)}, 1)
    assert c1.nodes == frozenset()


def test_conflict_graph_guards():
    big = gen_random_bounded(31, 3, 1)
    with pytest.raises(SizeLimitError):
        build_conflict_graph(big, set(), 1)
    g = path_graph(4)
    with pytest.raises(ValueError, match="odd"):
        build_conflict_graph(g, set(), 2)


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
