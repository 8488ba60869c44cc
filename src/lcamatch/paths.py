"""Canonical simple-path identities and local path enumeration.

A path is identified by its vertex sequence; the canonical form is the
lexicographically smaller of the sequence and its reversal, so a path and
its reverse traversal are one object.  All enumeration here is local: it
never touches more of the graph than the neighborhood of the seed edge or
path, which is what keeps the query engine sublinear.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .graph import Graph, mk_edge

__all__ = ["PathKey", "paths_through_edge", "iter_intersecting", "Mate"]

# ``mate(x)``: the partner of vertex ``x`` in a matching, or -1 if ``x`` is
# free.  Given one, the enumerators below produce only the paths that
# alternate against that matching: the ``i``-th edge (1-based, in the order
# the path is grown) is matched iff ``i`` is even.  For an odd length a
# position and its mirror have the same parity, so either way round a path
# reads the same.
Mate = Callable[[int], int]


class PathKey(tuple):
    """Canonical identity of a simple path: a tuple of vertex ids.

    Instances are assumed canonical: not larger than their reversal.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self) - 1

    def edge_seq(self) -> list[tuple[int, int]]:
        """Edges in traversal order, each as a canonical pair."""
        return [mk_edge(self[i], self[i + 1]) for i in range(len(self) - 1)]


def _canonical(seq: tuple[int, ...]) -> PathKey:
    rev = seq[::-1]
    return PathKey(seq if seq <= rev else rev)


def _steps(
    g: Graph, x: int, core: list[int], pos: int, mate: Mate | None
) -> Iterable[int]:
    # Vertices the path may reach from x by its pos-th edge.  A core holds at
    # most a phase length's few vertices, so a list scan is the cheapest
    # "already on the path" test.  A matched step has one choice, the
    # partner; an unmatched one may take any neighbour but the partner.
    if mate is None:
        return [w for w in g.adjacency[x] if w not in core]
    m = mate(x)
    if pos % 2 == 0:
        return (m,) if m >= 0 and m not in core else ()
    return [w for w in g.adjacency[x] if w != m and w not in core]


def _extend(
    g: Graph,
    core: list[int],
    back_steps: int,
    front_steps: int,
    out: list[PathKey],
    mate: Mate | None,
) -> None:
    # Grow the tail first, then the head; emit once both sides are spent.
    # In the finished path the next tail edge sits after the core's
    # len(core) - 1 edges and the front_steps head edges still to come; the
    # next head edge sits at position front_steps.
    if back_steps > 0:
        for w in _steps(g, core[-1], core, len(core) + front_steps, mate):
            core.append(w)
            _extend(g, core, back_steps - 1, front_steps, out, mate)
            core.pop()
        return
    if front_steps > 0:
        for w in _steps(g, core[0], core, front_steps, mate):
            core.insert(0, w)
            _extend(g, core, back_steps, front_steps - 1, out, mate)
            del core[0]
        return
    out.append(_canonical(tuple(core)))


def paths_through_edge(
    g: Graph, e: tuple[int, int], length: int, *, mate: Mate | None = None
) -> list[PathKey]:
    """All simple paths of exactly ``length`` edges that contain edge ``e``.

    Enumerates each split of the remaining ``length - 1`` edges around ``e``
    and extends both ends by depth-first search, so each path is produced
    exactly once.  Output is sorted by canonical key.  The result size obeys
    the bound ``length * (d - 1) ** (length - 1)``.  With ``mate`` given,
    only the paths alternating against its matching are produced (see
    :data:`Mate`).
    """
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not in graph")
    if length < 1:
        raise ValueError(f"path length must be positive, got {length}")
    e = mk_edge(u, v)
    # The seed edge sits at position front_steps + 1, even iff it is matched.
    matched = mate is not None and mate(e[0]) == e[1]
    out: list[PathKey] = []
    for front_steps in range(length):
        if mate is None or front_steps % 2 == matched:
            _extend(g, list(e), length - 1 - front_steps, front_steps, out, mate)
    out.sort()
    return out


def iter_intersecting(
    g: Graph, p: PathKey, *, mate: Mate | None = None
) -> Iterator[PathKey]:
    """All other paths of ``p``'s length sharing at least one vertex with it.

    The enumerator itself: it grows the paths through each vertex of ``p``
    by local depth-first search and yields the union, minus ``p``, in no
    particular order.  With ``mate`` given, only the paths alternating
    against its matching are produced (see :data:`Mate`).
    """
    # A path holds v at f steps from one end and length - f from the other.
    # Growing f <= length // 2 steps before v and the rest after it reaches
    # every path once, or twice (once per orientation) when f == length / 2.
    out: list[PathKey] = []
    for v in p:
        for front_steps in range(p.length // 2 + 1):
            _extend(g, [v], p.length - front_steps, front_steps, out, mate)
    found = set(out)
    found.discard(p)
    return iter(found)
