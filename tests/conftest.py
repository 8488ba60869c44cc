"""Shared graph builders for the test suite."""

from __future__ import annotations

import itertools
import random

import numpy as np

from lcamatch.graph import Graph, gen_random_bounded, mk_edge
from lcamatch.ordering import Seed, encode_path


def path_key(seq) -> tuple[int, ...]:
    """Canonical key of a vertex sequence: the smaller of it and its reversal."""
    seq = tuple(seq)
    return min(seq, seq[::-1])


def brute_paths_through_edge(g: Graph, e, length: int) -> list[tuple[int, ...]]:
    """Oracle: every injective vertex sequence of ``length`` edges through ``e``.

    Tries all ``length + 1``-permutations of the vertices, so keep ``g`` to
    ten vertices or so.  Returns sorted canonical keys.
    """
    e = mk_edge(*e)
    edges = g.sorted_edges()
    adjacent = set(edges) | {(b, a) for a, b in edges}
    found = set()
    for seq in itertools.permutations(range(g.vertex_count), length + 1):
        pairs = list(zip(seq, seq[1:]))
        if all(x in adjacent for x in pairs) and e in {mk_edge(*x) for x in pairs}:
            found.add(path_key(seq))
    return sorted(found)


def simple_paths(g: Graph, length: int) -> list[tuple[int, ...]]:
    """Every simple path of ``length`` edges, sorted by canonical key.

    A plain depth-first search from every vertex, independent of
    ``lcamatch.paths``: it finds each path once from each end.
    """
    found = set()

    def grow(path: list[int]) -> None:
        if len(path) == length + 1:
            found.add(path_key(tuple(path)))
            return
        for w in g.neighbors(path[-1]):
            if w not in path:
                path.append(w)
                grow(path)
                path.pop()

    for v in range(g.vertex_count):
        grow([v])
    return sorted(found)


def random_matching(g: Graph, rng: random.Random) -> set[tuple[int, int]]:
    """A random matching of ``g``: greedy over shuffled edges, each kept w.p. 0.7."""
    edges = g.sorted_edges()
    rng.shuffle(edges)
    matching, covered = set(), set()
    for u, v in edges:
        if u not in covered and v not in covered and rng.random() < 0.7:
            matching.add((u, v))
            covered |= {u, v}
    return matching


def mate_of(g: Graph, matching):
    """``paths.Mate`` of ``matching``: a vertex's partner, or -1 if it is free."""
    partner = {}
    for u, v in matching:
        partner[u], partner[v] = v, u

    def mate(x: int) -> int:
        assert 0 <= x < g.vertex_count
        return partner.get(x, -1)

    return mate


def path_edges(p) -> list[tuple[int, int]]:
    """The edges of path ``p`` in traversal order, each as a canonical pair."""
    return [mk_edge(u, v) for u, v in zip(p, p[1:])]


def alternates(p, matching) -> bool:
    """True iff the ``i``-th edge of ``p`` (1-based) is matched iff ``i`` is even."""
    return all((e in matching) == (i % 2 == 0) for i, e in enumerate(path_edges(p), 1))


def make_graph(n: int, d: int, edges) -> Graph:
    return Graph.from_edges(n, d, edges)


def path_graph(n: int) -> Graph:
    return make_graph(n, 2, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return make_graph(n, 2, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return make_graph(leaves + 1, leaves, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return make_graph(n, n - 1, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
    return make_graph(10, 3, outer + spokes + inner)


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return make_graph(rows * cols, 4, edges)


def named_small_graphs() -> list[Graph]:
    graphs = [path_graph(n) for n in range(2, 7)]
    graphs += [cycle_graph(n) for n in range(3, 9)]
    graphs += [star_graph(3), star_graph(5), complete_graph(4), complete_graph(5)]
    graphs += [grid_graph(2, 3), grid_graph(3, 3), petersen_graph()]
    return graphs


def small_corpus(min_instances: int = 100, max_vertices: int = 30) -> list[Graph]:
    """Deterministic corpus of small graphs, named families plus random ones."""
    graphs = [g for g in named_small_graphs() if g.vertex_count <= max_vertices]
    rng = random.Random(987654)
    gi = 0
    while len(graphs) < min_instances:
        n = rng.randrange(4, max_vertices + 1)
        d = rng.randrange(2, 6)
        g = gen_random_bounded(n, d, 31337 + gi)
        gi += 1
        if g.edge_count >= 1:
            graphs.append(g)
    return graphs


def find_order_seed(predicate, limit: int = 20000) -> int:
    """First integer rng seed whose seed set satisfies ``predicate``."""
    for s in range(limit):
        if predicate(s):
            return s
    raise AssertionError("no rng seed satisfied the predicate within the limit")


def batch_primary_ranks(paths, seed: Seed) -> list[int]:
    """``primary_rank`` of many paths at once, by int64 Horner evaluation.

    Only for fields below 2**31, where every product stays below 2**62 and
    no encoding needs folding; ``test_vectorized_ranks_match_scalar`` checks
    it bit for bit against ``primary_rank``.
    """
    if seed.modulus >= 1 << 31:
        raise ValueError(f"modulus {seed.modulus} overflows int64 Horner steps")
    xs = np.fromiter(
        (encode_path(p, seed.base) for p in paths), dtype=np.int64, count=len(paths)
    )
    bits = np.empty((len(paths), seed.bit_width), dtype=np.uint8)
    for j, coeffs in enumerate(seed.copies):
        acc = np.zeros(len(paths), dtype=np.int64)
        for coef in reversed(coeffs):
            acc = (acc * xs + coef) % seed.modulus
        bits[:, j] = acc & 1
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
