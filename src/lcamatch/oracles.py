"""Small-instance reference implementations.

Everything here recomputes globally what the query engine computes locally,
by the most transparent method available: exhaustive branching for maximum
matchings, exhaustive alternating-path search, full conflict-graph
materialization, and a direct phase-by-phase run of the global scheme.
Hard size guards keep the combinatorial blowup honest; these functions are
for tests and certification, not production runs.
"""

from __future__ import annotations

from .graph import Graph, mk_edge
from .lca import ConflictSubgraph, greedy_mis, intersection_edges
from .ordering import SeedSet, primary_rank
from .paths import PathKey, paths_through_edge

__all__ = [
    "SizeLimitError",
    "verify_matching",
    "max_matching_bruteforce",
    "find_augmenting_path",
    "is_augmenting_for",
    "build_conflict_graph",
    "abstract_distributed_mm",
]

MAX_BRUTEFORCE_EDGES = 24
MAX_CONFLICT_VERTICES = 30


class SizeLimitError(ValueError):
    """Instance exceeds the guard built into an exhaustive oracle."""


def verify_matching(g: Graph, edges: frozenset[tuple[int, int]] | set[tuple[int, int]]) -> bool:
    """True iff ``edges`` is a set of vertex-disjoint graph edges.

    Edges not present in ``g`` are a caller error, not a failed check.
    """
    seen: set[int] = set()
    ok = True
    for u, v in edges:
        if not g.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not in graph")
        if u in seen or v in seen:
            ok = False
        seen.add(u)
        seen.add(v)
    return ok


def max_matching_bruteforce(g: Graph) -> tuple[int, frozenset[tuple[int, int]]]:
    """Maximum matching by memoized branch on the lowest covered vertex.

    Guarded to at most 24 edges.  Deterministic: branches are explored in
    sorted edge order, so the returned witness is reproducible.
    """
    if g.edge_count > MAX_BRUTEFORCE_EDGES:
        raise SizeLimitError(
            f"brute-force matching limited to {MAX_BRUTEFORCE_EDGES} edges, "
            f"got {g.edge_count}"
        )
    memo: dict[frozenset[tuple[int, int]], tuple[int, frozenset]] = {}

    def solve(edges: frozenset[tuple[int, int]]) -> tuple[int, frozenset]:
        if not edges:
            return 0, frozenset()
        hit = memo.get(edges)
        if hit is not None:
            return hit
        u = min(min(e) for e in edges)
        # Either u stays unmatched or one of its edges is taken.
        best = solve(frozenset(e for e in edges if u not in e))
        for e in sorted(e for e in edges if u in e):
            v = e[1] if e[0] == u else e[0]
            rest = frozenset(x for x in edges if u not in x and v not in x)
            size, chosen = solve(rest)
            if size + 1 > best[0]:
                best = (size + 1, chosen | {e})
        memo[edges] = best
        return best

    return solve(g.edges)


def _require_matching(g: Graph, matching) -> dict[int, int]:
    if not verify_matching(g, matching):
        raise ValueError("edge set is not a matching")
    partner: dict[int, int] = {}
    for u, v in matching:
        partner[u] = v
        partner[v] = u
    return partner


def find_augmenting_path(
    g: Graph, matching: frozenset[tuple[int, int]] | set[tuple[int, int]], max_len: int
) -> PathKey | None:
    """Some augmenting path of at most ``max_len`` edges, or None.

    Exhaustive depth-first search over alternating simple paths from each
    free vertex, in ascending vertex order.  With the empty matching this
    returns a single edge whenever any exists.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    partner = _require_matching(g, matching)

    def search(path: list[int], used: set[int]) -> list[int] | None:
        x = path[-1]
        length = len(path) - 1
        if length % 2 == 1 and x not in partner:
            return list(path)
        if length >= max_len:
            return None
        if length % 2 == 0:
            for y in g.neighbors(x):
                if y in used or partner.get(x) == y:
                    continue
                path.append(y)
                used.add(y)
                hit = search(path, used)
                used.remove(y)
                path.pop()
                if hit is not None:
                    return hit
        else:
            y = partner.get(x)
            if y is not None and y not in used:
                path.append(y)
                used.add(y)
                hit = search(path, used)
                used.remove(y)
                path.pop()
                if hit is not None:
                    return hit
        return None

    for r in range(g.vertex_count):
        if r in partner:
            continue
        hit = search([r], {r})
        if hit is not None:
            seq = tuple(hit)
            rev = seq[::-1]
            return PathKey(seq if seq <= rev else rev)
    return None


def is_augmenting_for(g: Graph, p: PathKey, matching) -> bool:
    """Static augmenting check of ``p`` against an explicit matching.

    Odd-numbered edges (1-based along the traversal) must be outside the
    matching, even-numbered ones inside, and both endpoints free.  Length
    parity makes the pattern independent of traversal direction.
    """
    mset = {mk_edge(u, v) for u, v in matching}
    for i, e in enumerate(p.edge_seq(), start=1):
        if (e in mset) != (i % 2 == 0):
            return False
    covered = {v for e in mset for v in e}
    return p[0] not in covered and p[-1] not in covered


def _all_paths(g: Graph, length: int) -> set[PathKey]:
    found: set[PathKey] = set()
    for e in g.edges:
        found.update(paths_through_edge(g, e, length))
    return found


def build_conflict_graph(g: Graph, matching, ell: int) -> ConflictSubgraph:
    """The full conflict graph of phase ``ell`` over an explicit matching.

    Nodes are all augmenting paths of exactly ``ell`` edges, edges join
    vertex-sharing pairs.  Guarded to graphs of at most 30 vertices.
    """
    if g.vertex_count > MAX_CONFLICT_VERTICES:
        raise SizeLimitError(
            f"conflict-graph materialization limited to {MAX_CONFLICT_VERTICES} "
            f"vertices, got {g.vertex_count}"
        )
    if ell < 1 or ell % 2 == 0:
        raise ValueError(f"phase length must be odd and positive, got {ell}")
    _require_matching(g, matching)
    nodes = frozenset(
        p for p in _all_paths(g, ell) if is_augmenting_for(g, p, matching)
    )
    return ConflictSubgraph(nodes, intersection_edges(nodes))


def abstract_distributed_mm(
    g: Graph, k: int, seeds: SeedSet
) -> frozenset[tuple[int, int]]:
    """Global phase-by-phase run of the matching scheme.

    The ground truth the query engine must agree with edge for edge, given
    the same seeds.  Subject to the conflict-graph size guard.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    matching: frozenset[tuple[int, int]] = frozenset()
    for ell in range(1, 2 * k, 2):
        conflict = build_conflict_graph(g, matching, ell)
        seed = seeds.phase(ell)
        # The eager rank tuple, not the engine's lazy ordering.Rank key, so
        # that this reference checks the lazy comparison too.
        chosen = greedy_mis(conflict, lambda p: (primary_rank(p, seed), *p))
        flipped: set[tuple[int, int]] = set()
        for p in chosen:
            flipped.update(p.edge_seq())
        matching = matching ^ flipped
    return matching
