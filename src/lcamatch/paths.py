"""Canonical simple-path identities and local path enumeration.

A path is identified by its vertex sequence; the canonical form is the
lexicographically smaller of the sequence and its reversal, so a path and
its reverse traversal are one object.  All enumeration here is local: it
never touches more of the graph than the neighborhood of the seed edge or
vertex, which is what keeps the query engine sublinear.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .graph import Graph, mk_edge

__all__ = [
    "PathKey",
    "canonical_key",
    "paths_through_edge",
    "paths_through_vertex",
    "intersecting_paths",
    "EdgeFilter",
]

# ``ok(edge, position)``: may a path use the canonical ``edge`` as its
# ``position``-th edge (1-based, in the order the path is grown)?  Every
# filtered enumerator below drops a branch at the first edge it refuses.
# For an odd length a position and its mirror have the same parity, so a
# filter that reads only the parity sees the same path either way round.
EdgeFilter = Callable[[tuple[int, int], int], bool]


class PathKey(tuple):
    """Canonical identity of a simple path: a tuple of vertex ids.

    Instances are assumed canonical (not larger than their reversal);
    use :func:`canonical_key` to build one from raw input.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self) - 1

    def edge_seq(self) -> list[tuple[int, int]]:
        """Edges in traversal order, each as a canonical pair."""
        return [mk_edge(self[i], self[i + 1]) for i in range(len(self) - 1)]

    def endpoints(self) -> tuple[int, int]:
        return self[0], self[-1]


def _canonical(seq: tuple[int, ...]) -> PathKey:
    rev = seq[::-1]
    return PathKey(seq if seq <= rev else rev)


def canonical_key(g: Graph, seq: Iterable[int]) -> PathKey:
    """Validated canonical key for a vertex sequence.

    Rejects sequences shorter than one edge, repeated vertices, and pairs of
    consecutive vertices that are not adjacent in ``g``.
    """
    s = tuple(seq)
    if len(s) < 2:
        raise ValueError(f"path needs at least 2 vertices, got {len(s)}")
    if len(set(s)) != len(s):
        raise ValueError(f"repeated vertex in path {s}")
    for v in s:
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range for n={g.vertex_count}")
    for a, b in zip(s, s[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"consecutive vertices {a}, {b} are not adjacent")
    return _canonical(s)


def _extend(
    g: Graph,
    core: list[int],
    back_steps: int,
    front_steps: int,
    out: list[PathKey],
    ok: EdgeFilter | None,
) -> None:
    # Grow the tail first, then the head; emit once both sides are spent.
    # A core holds at most a phase length's few vertices, so a list scan is
    # the cheapest "already on the path" test.  In the finished path the
    # next tail edge sits after the core's len(core) - 1 edges and the
    # front_steps head edges still to come; the next head edge sits at
    # position front_steps.
    if back_steps > 0:
        end = core[-1]
        pos = len(core) + front_steps
        for w in g.adjacency[end]:
            if w not in core and (ok is None or ok(mk_edge(end, w), pos)):
                core.append(w)
                _extend(g, core, back_steps - 1, front_steps, out, ok)
                core.pop()
        return
    if front_steps > 0:
        head = core[0]
        for w in g.adjacency[head]:
            if w not in core and (ok is None or ok(mk_edge(w, head), front_steps)):
                core.insert(0, w)
                _extend(g, core, back_steps, front_steps - 1, out, ok)
                del core[0]
        return
    out.append(_canonical(tuple(core)))


def paths_through_edge(
    g: Graph, e: tuple[int, int], length: int, *, ok: EdgeFilter | None = None
) -> list[PathKey]:
    """All simple paths of exactly ``length`` edges that contain edge ``e``.

    Enumerates each split of the remaining ``length - 1`` edges around ``e``
    and extends both ends by depth-first search, so each path is produced
    exactly once.  Output is sorted by canonical key.  The result size obeys
    the bound ``length * (d - 1) ** (length - 1)``.  With ``ok`` given, only
    paths whose every edge it accepts are produced (see :data:`EdgeFilter`).
    """
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not in graph")
    if length < 1:
        raise ValueError(f"path length must be positive, got {length}")
    e = mk_edge(u, v)
    if length == 1:
        return [PathKey(e)] if ok is None or ok(e, 1) else []
    out: list[PathKey] = []
    for front_steps in range(length):
        if ok is None or ok(e, front_steps + 1):
            _extend(g, list(e), length - 1 - front_steps, front_steps, out, ok)
    out.sort()
    return out


def paths_through_vertex(g: Graph, v: int, length: int) -> list[PathKey]:
    """All simple paths of exactly ``length`` edges containing vertex ``v``."""
    g.neighbors(v)  # raises for an out-of-range vertex
    if length < 1:
        raise ValueError(f"path length must be positive, got {length}")
    return sorted(set(_through_vertices(g, (v,), length, None)))


def _through_vertices(
    g: Graph, vertices: Iterable[int], length: int, ok: EdgeFilter | None
) -> list[PathKey]:
    # A path holds v at f steps from one end and length - f from the other.
    # Growing f <= length // 2 steps before v and the rest after it reaches
    # every path once, or twice (once per orientation) when f == length / 2.
    out: list[PathKey] = []
    for v in vertices:
        for front_steps in range(length // 2 + 1):
            _extend(g, [v], length - front_steps, front_steps, out, ok)
    return out


def intersecting_paths(g: Graph, p: PathKey) -> list[PathKey]:
    """Sorted view of :func:`iter_intersecting`."""
    return sorted(iter_intersecting(g, p))


def iter_intersecting(
    g: Graph, p: PathKey, *, ok: EdgeFilter | None = None
) -> Iterator[PathKey]:
    """All other paths of ``p``'s length sharing at least one vertex with it.

    The enumerator itself: it grows the paths through each vertex of ``p``
    by local depth-first search and yields the union, minus ``p``, in no
    particular order.  With ``ok`` given, only paths whose every edge it
    accepts are produced (see :data:`EdgeFilter`).
    """
    found = set(_through_vertices(g, p, p.length, ok))
    found.discard(p)
    return iter(found)
