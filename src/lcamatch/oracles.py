"""Small-instance and global reference implementations.

Everything here recomputes globally what the query engine computes locally,
by the most transparent method available: exhaustive branching for maximum
matchings, an alternating depth-first search from every free vertex for
augmenting paths, and a direct phase-by-phase run of the global scheme that
sorts each phase's augmenting paths and keeps the vertex-disjoint ones.  No
conflict graph is ever built, and none of this shares code with the engine's
path enumeration or lazy rank keys, so the two cannot share a bug.  Only the
brute-force matching oracle carries a size guard; the global run scales to
benchmark-sized graphs.  These functions are for tests and certification,
not production runs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .graph import Graph, mk_edge
from .ordering import SeedSet, primary_rank
from .paths import PathKey

__all__ = [
    "SizeLimitError",
    "verify_matching",
    "max_matching_bruteforce",
    "find_augmenting_path",
    "is_augmenting_for",
    "augmenting_paths",
    "intersection_edges",
    "greedy_mis",
    "abstract_distributed_mm",
]

MAX_BRUTEFORCE_EDGES = 24


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


def _key(seq: tuple[int, ...]) -> PathKey:
    return PathKey(min(seq, seq[::-1]))


def _augmenting_walks(
    g: Graph, partner: dict[int, int], max_len: int
) -> Iterator[tuple[int, ...]]:
    """Every augmenting path of at most ``max_len`` edges, once from each end.

    One depth-first search over alternating simple paths from each free
    vertex, in ascending vertex order: an unmatched edge out of an even
    position, the matched edge out of an odd one.  A walk ends at the first
    free vertex it reaches, since an augmenting path has no free inner vertex.
    """

    def grow(path: list[int]) -> Iterator[tuple[int, ...]]:
        x = path[-1]
        if len(path) % 2 == 0:
            # Odd length: x was reached over an unmatched edge.
            y = partner.get(x)
            if y is None:
                yield tuple(path)
            elif len(path) <= max_len:
                path.append(y)
                yield from grow(path)
                path.pop()
        elif len(path) <= max_len:
            # Every path vertex but the free root is matched to a neighbour
            # on the path, so each edge to a vertex off the path is unmatched.
            for y in g.adjacency[x]:
                if y not in path:
                    path.append(y)
                    yield from grow(path)
                    path.pop()

    # A vertex above the adjacency tuples is isolated and roots no walk.
    for r in range(len(g.adjacency)):
        if r not in partner:
            yield from grow([r])


def find_augmenting_path(
    g: Graph, matching: frozenset[tuple[int, int]] | set[tuple[int, int]], max_len: int
) -> PathKey | None:
    """Some augmenting path of at most ``max_len`` edges, or None.

    The first path the alternating search from the free vertices meets, in
    ascending order of its start.  With the empty matching this returns a
    single edge whenever any exists.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    partner = _require_matching(g, matching)
    for walk in _augmenting_walks(g, partner, max_len):
        return _key(walk)
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


def augmenting_paths(g: Graph, matching, ell: int) -> frozenset[PathKey]:
    """All augmenting paths of exactly ``ell`` edges for an explicit matching."""
    if ell < 1 or ell % 2 == 0:
        raise ValueError(f"phase length must be odd and positive, got {ell}")
    partner = _require_matching(g, matching)
    return frozenset(
        _key(walk) for walk in _augmenting_walks(g, partner, ell) if len(walk) == ell + 1
    )


def intersection_edges(nodes: Iterable[PathKey]) -> frozenset[tuple[PathKey, PathKey]]:
    """All vertex-sharing pairs among ``nodes``, as ordered key pairs."""
    by_vertex: dict[int, list[PathKey]] = {}
    for p in nodes:
        for v in p:
            by_vertex.setdefault(v, []).append(p)
    out: set[tuple[PathKey, PathKey]] = set()
    for bucket in by_vertex.values():
        if len(bucket) < 2:
            continue
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                a, b = bucket[i], bucket[j]
                out.add((a, b) if a < b else (b, a))
    return frozenset(out)


def greedy_mis(paths: Iterable[PathKey], key: Callable[[PathKey], Any]) -> set[PathKey]:
    """Greedy maximal independent set of the paths' conflict graph.

    Paths are visited in ascending ``key``; a path is kept unless it shares a
    vertex with a path already kept.  The result depends only on the paths
    and the order.
    """
    covered: set[int] = set()
    chosen: set[PathKey] = set()
    for p in sorted(paths, key=key):
        if covered.isdisjoint(p):
            chosen.add(p)
            covered.update(p)
    return chosen


def abstract_distributed_mm(
    g: Graph, k: int, seeds: SeedSet
) -> frozenset[tuple[int, int]]:
    """Global phase-by-phase run of the matching scheme.

    The ground truth the query engine must agree with edge for edge, given
    the same seeds.  Each phase keeps, in ascending seeded rank, every
    augmenting path of the phase length that is vertex-disjoint from those
    already kept, then flips the kept paths.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    matching: frozenset[tuple[int, int]] = frozenset()
    for ell in range(1, 2 * k, 2):
        seed = seeds.phase(ell)
        # The eager rank tuple, not the engine's lazy ordering.Rank key, so
        # that this reference checks the lazy comparison too.
        chosen = greedy_mis(
            augmenting_paths(g, matching, ell), lambda p: (primary_rank(p, seed), *p)
        )
        flipped: set[tuple[int, int]] = set()
        for p in chosen:
            flipped.update(p.edge_seq())
        matching = matching ^ flipped
    return matching
