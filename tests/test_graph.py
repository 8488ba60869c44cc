import copy
import io
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcamatch.graph import Graph, GraphFormatError, dump_graph, gen_random_bounded, load_graph, mk_edge
from lcamatch.lca import Engine
from lcamatch.ordering import init_seeds
from lcamatch.oracles import find_augmenting_path, verify_matching


TRIANGLE = "3 3 2\n0 1\n1 2\n0 2\n"


def test_load_triangle():
    g = load_graph(io.StringIO(TRIANGLE))
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert g.degree_bound == 2
    assert g.neighbors(1) == (0, 2)
    assert g.has_edge(2, 0)


def test_load_skips_blank_and_comment_lines():
    text = "# a triangle\n\n3 3 2\n0 1\n\n1 2\n0 2\n"
    g = load_graph(io.StringIO(text))
    assert g.edge_count == 3


def test_load_duplicate_edge_names_line():
    text = "3 3 2\n0 1\n1 0\n1 2\n"
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph(io.StringIO(text))


def test_load_self_loop_names_line():
    text = "3 2 2\n0 1\n2 2\n"
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph(io.StringIO(text))


def test_load_degree_violation_names_line():
    text = "4 3 1\n0 1\n2 3\n0 2\n"
    with pytest.raises(GraphFormatError, match="line 4"):
        load_graph(io.StringIO(text))
    # Here the second endpoint, not the first, exceeds the bound.
    text = "5 2 1\n0 1\n4 1\n"
    with pytest.raises(GraphFormatError, match="line 3: vertex 1 "):
        load_graph(io.StringIO(text))


def test_load_out_of_range_vertex():
    text = "2 1 1\n0 5\n"
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph(io.StringIO(text))


def test_load_header_required():
    with pytest.raises(GraphFormatError, match="header"):
        load_graph(io.StringIO("0 1\n"))
    with pytest.raises(GraphFormatError):
        load_graph(io.StringIO(""))


def test_load_overlong_line_names_line():
    # A file with no line break (say /dev/zero) must not be read whole.
    with pytest.raises(GraphFormatError, match="line 1: longer than"):
        load_graph(io.StringIO("x" * 70000))
    with pytest.raises(GraphFormatError, match="line 2: longer than"):
        load_graph(io.StringIO("2 1 1\n#" + "x" * 70000 + "\n0 1\n"))


def test_load_joins_lines_across_read_chunks():
    # load_graph reads 64 KiB chunks: a line cut by a chunk's end is read
    # whole, and line numbers count on across chunks.
    g = gen_random_bounded(4096, 3, 1)
    header, *edges = dump_graph(g).splitlines()
    # The first edge line starts 2 characters before the first chunk's end.
    comment = "#" * (2**16 - 4 - len(header))
    lines = [header, comment, *edges]
    assert len(header) + len(comment) + 2 == 2**16 - 2
    assert load_graph(io.StringIO("\n".join(lines) + "\n")) == g
    assert load_graph(io.StringIO("\n".join(lines))) == g  # no final newline
    lines[5000] = "0 x"
    with pytest.raises(GraphFormatError, match="line 5001: edge fields must be integers"):
        load_graph(io.StringIO("\n".join(lines)))


def test_load_edge_count_mismatch():
    with pytest.raises(GraphFormatError, match="declares 2"):
        load_graph(io.StringIO("3 2 2\n0 1\n"))


def test_dump_round_trip():
    g = load_graph(io.StringIO(TRIANGLE))
    again = load_graph(io.StringIO(dump_graph(g)))
    assert again == g


def test_from_edges_validation():
    with pytest.raises(ValueError, match="self loop"):
        Graph.from_edges(3, 2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, 2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, 2, [(0, 3)])
    with pytest.raises(ValueError, match="exceeds bound"):
        Graph.from_edges(4, 1, [(0, 1), (0, 2)])


def test_neighbors_out_of_range():
    g = Graph.from_edges(2, 1, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        g.neighbors(2)
    with pytest.raises(ValueError, match="out of range"):
        g.neighbors(-1)


def test_vertex_ids_must_be_integers():
    # A float equal to an id would match a neighbour (0.0 == 0) but cannot
    # index adjacency; numpy integers are ids.
    g = gen_random_bounded(64, 3, 1)
    assert g.has_edge(0, 34)
    for call in (
        lambda: g.neighbors(0.0),
        lambda: g.degree(1.5),
        lambda: g.has_edge(0.0, 34),
        lambda: g.has_edge(0, "34"),
        lambda: verify_matching(g, {(0.0, 34)}),
    ):
        with pytest.raises(ValueError, match="integer"):
            call()
    assert g.neighbors(np.int64(0)) == g.neighbors(0)
    assert g.has_edge(np.int64(0), np.int64(34))


def test_from_edges_takes_only_integer_ids():
    # A float passes the range check (0.0 < 4) and a bool is an int: both
    # would reach adjacency unless from_edges normalises every id.
    for bad in ((0.0, 1), ("a", 1), (1, 2.0)):
        with pytest.raises(ValueError, match="integer"):
            Graph.from_edges(4, 2, [bad, (2, 3)])
    g = Graph.from_edges(4, 2, [(True, 2), (np.int64(2), np.int32(3))])
    assert g == Graph.from_edges(4, 2, [(1, 2), (2, 3)])
    assert all(type(x) is int for a in g.adjacency for x in a)
    m = Engine(g, k=2).materialize()  # refused a stored 0.0 before
    assert len(m) == 1 and m <= {(1, 2), (2, 3)}


def _isolated_top() -> Graph:
    # Vertices 5..9 are isolated and above every vertex with an edge, so
    # adjacency stops at 4; vertex 2 is isolated below it.
    return Graph.from_edges(10, 3, [(0, 1), (0, 4), (3, 4), (1, 3)])


@pytest.mark.parametrize("g", [
    gen_random_bounded(12, 3, 1),
    gen_random_bounded(40, 4, 7),
    gen_random_bounded(30, 1, 2),
    Graph.from_edges(6, 2, []),
    _isolated_top(),
], ids=["n12d3", "n40d4", "n30d1", "empty", "isolated-top"])
def test_adjacency_is_the_one_edge_store(g):
    edges = g.sorted_edges()
    assert len(edges) == g.edge_count
    assert all(u < v for u, v in edges)
    assert all(a < b for a, b in zip(edges, edges[1:]))  # strictly increasing
    assert edges == sorted(
        (u, w) for u in range(g.vertex_count) for w in g.neighbors(u) if u < w
    )
    present = set(edges)
    n = g.vertex_count
    # Ids out of range, negative ones included, are never edges: a negative
    # id must not index adjacency from its end.
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            assert g.has_edge(u, v) == g.has_edge(v, u) == ((min(u, v), max(u, v)) in present)
    for bad in (0.5, "0", None):
        with pytest.raises(ValueError, match="integer"):
            g.has_edge(bad, 0)
        with pytest.raises(ValueError, match="integer"):
            g.has_edge(0, bad)


def test_graph_is_a_frozen_hashable_record():
    g = gen_random_bounded(16, 3, 1)
    twin = Graph.from_edges(16, 3, reversed(g.sorted_edges()))
    assert twin is not g and twin == g and hash(twin) == hash(g)
    assert Graph.from_edges(16, 3, g.sorted_edges()[1:]) != g
    assert Graph.from_edges(17, 3, g.sorted_edges()) != g
    with pytest.raises(AttributeError):
        g.vertex_count = 17
    with pytest.raises(AttributeError):
        del g.edge_count
    assert g.vertex_count == 16 and g.edge_count == twin.edge_count
    # Copies and pickles are rebuilt through the constructor.
    assert copy.copy(g) == pickle.loads(pickle.dumps(g)) == g


def test_vertex_counts_past_maxsize_are_refused():
    # Vertex ids index a tuple; past sys.maxsize none can, and the seed
    # size, which grows with (log n)^2, is refused before it is drawn.
    for n in (sys.maxsize + 1, 10**300):
        with pytest.raises(ValueError, match="vertex count must be at most"):
            Graph.from_edges(n, 1, [(0, 1)])
        with pytest.raises(ValueError, match="vertex count must be at most"):
            gen_random_bounded(n, 3, 0)
        with pytest.raises(ValueError, match="n must be at most"):
            init_seeds(1, n, 0)
        with pytest.raises(GraphFormatError, match="^line 2: vertex count"):
            load_graph(io.StringIO(f"# header next\n{n} 1 1\n0 1\n"))
    # The bound refuses nothing that runs: n = sys.maxsize builds and answers.
    g = Graph.from_edges(sys.maxsize, 1, [(0, 1)])
    assert Engine(g, k=1).query((0, 1)) is True


def test_mk_edge_orders_endpoints():
    assert mk_edge(5, 2) == (2, 5)
    assert mk_edge(2, 5) == (2, 5)


def test_generator_n2_d1_single_edge():
    # the only non-empty possibility, and the proposal budget makes empty
    # output vanishingly unlikely
    for seed in range(10):
        g = gen_random_bounded(2, 1, seed)
        assert g.sorted_edges() == [(0, 1)]


def test_generator_respects_degree_bound():
    g = gen_random_bounded(100, 4, 7)
    assert all(g.degree(v) <= 4 for v in range(100))


def test_generator_deterministic():
    a = gen_random_bounded(60, 3, 123)
    b = gen_random_bounded(60, 3, 123)
    assert a == b
    c = gen_random_bounded(60, 3, 124)
    assert c != a


def test_generator_stops_once_the_graph_is_complete():
    # 10 * n * d proposals would never finish at this d; a complete graph
    # refuses every later proposal, so stopping changes no output.
    g = gen_random_bounded(64, 10**14, 1)
    assert g.edge_count == 64 * 63 // 2
    assert g.sorted_edges() == gen_random_bounded(64, 200, 1).sorted_edges()


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        gen_random_bounded(1, 3, 0)
    with pytest.raises(ValueError):
        gen_random_bounded(5, 0, 0)


@given(n=st.integers(2, 40), d=st.integers(1, 6), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_generator_graphs_well_formed(n, d, seed):
    g = gen_random_bounded(n, d, seed)
    for v in range(n):
        assert g.degree(v) <= d
        for w in g.neighbors(v):
            assert v in g.neighbors(w)
    for u, v in g.sorted_edges():
        assert u < v
        assert v < n


def test_load_sizes_storage_by_edges_read():
    # A header may declare billions of vertices with no edge behind them;
    # vertices above the highest one with an edge are stored nowhere.
    for text in ("2000000 0 1\n", "2000000000 1 1\n0 1\n"):
        tracemalloc.start()
        try:
            g = load_graph(io.StringIO(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = g.vertex_count
        assert n == int(text.split()[0])
        assert g.neighbors(n - 1) == () and g.degree(n - 1) == 0
        assert peak < 2**20
        eng = Engine(g, eps=0.5)
        m = eng.materialize()
        assert m == frozenset(g.sorted_edges())
        assert find_augmenting_path(g, m, 2 * eng.k - 1) is None
