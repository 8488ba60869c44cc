"""Local enumeration of alternating simple paths.

A path is the plain tuple of its vertex ids in canonical form, the
lexicographically smaller of the sequence and its reversal, so a path and
its reverse traversal are one object; its length is ``len(p) - 1`` edges.
All enumeration here is local: it never touches more of the graph than the
neighborhood of the seed edge or path, which is what keeps the query engine
sublinear.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator

from .graph import Graph, mk_edge

__all__ = ["paths_through_edge", "iter_intersecting", "Mate"]

# ``mate(x)``: the partner of vertex ``x`` in a matching, or -1 if ``x`` is
# free.  The enumerators below produce only odd-length paths alternating
# against it: the ``i``-th edge (1-based) is matched iff ``i`` is even, which
# for an odd length reads the same from either end.
Mate = Callable[[int], int]


def _grow(
    g: Graph, mate: Mate, path: list[int], steps: int, later: int, out: list[tuple[int, ...]]
) -> None:
    # Append `steps` edges after path[-1], then `later` before path[0] by
    # growing the reversed list, and emit each finished path.  The next edge
    # sits at position len(path) + later, counted from path[0]'s side; for an
    # odd length its parity is the same from either side.  `path` holds an
    # edge, so an unmatched step from x follows x's matched edge and `not in
    # path` (a short scan) excludes x's partner: only matched steps ask mate.
    if steps == 0:
        if later:
            _grow(g, mate, path[::-1], later, 0, out)
        else:
            seq = tuple(path)
            out.append(min(seq, seq[::-1]))
        return
    x = path[-1]
    if (len(path) + later) % 2 == 0:
        m = mate(x)
        if m >= 0 and m not in path:
            path.append(m)
            _grow(g, mate, path, steps - 1, later, out)
            path.pop()
        return
    for w in g.adjacency[x]:
        if w not in path:
            path.append(w)
            _grow(g, mate, path, steps - 1, later, out)
            path.pop()


def _check_length(length: int) -> None:
    if length < 1 or length % 2 == 0:
        raise ValueError(f"path length must be positive and odd, got {length}")


def paths_through_edge(
    g: Graph, e: tuple[int, int], length: int, *, mate: Mate
) -> list[tuple[int, ...]]:
    """All simple paths of ``length`` edges through ``e`` alternating against ``mate``.

    ``length`` must be odd (see :data:`Mate`).  Enumerates each split of the
    remaining ``length - 1`` edges around ``e`` and extends both ends by
    depth-first search, so each path is produced exactly once; a free
    ``e[0]`` grows only the paths it ends.  Output is sorted by canonical
    key, at most ``length * (d - 1) ** (length - 1)`` paths.
    """
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not in graph")
    _check_length(length)
    # has_edge has refused non-integer ids; paths hold plain ints.
    e = mk_edge(operator.index(u), operator.index(v))
    # After f edges the seed edge sits at position f + 1, even iff matched.
    # An alternating path's inner vertices are matched: a free e[0] ends it.
    m = mate(e[0])
    matched = m == e[1]
    out: list[tuple[int, ...]] = []
    for front_steps in range(matched, length if m >= 0 else 1, 2):
        _grow(g, mate, list(e), length - 1 - front_steps, front_steps, out)
    out.sort()
    return out


def iter_intersecting(
    g: Graph, p: tuple[int, ...], *, mate: Mate
) -> Iterator[tuple[int, ...]]:
    """All other alternating paths of ``p``'s length that share a vertex with it.

    ``p``'s length must be odd (see :data:`Mate`).  The enumerator grows the
    paths through each vertex of ``p`` (a free one only ends them) by local
    depth-first search and yields the union, minus ``p``, in no particular
    order.
    """
    length = len(p) - 1
    _check_length(length)
    # A path ending at v leaves it by an unmatched edge, taken here with v's
    # mate in hand; a path through a matched v holds v's matched edge and
    # grows around it as in paths_through_edge.  A free v only ends paths.
    out: list[tuple[int, ...]] = []
    for v in p:
        m = mate(v)
        for w in g.adjacency[v]:
            if w != m:
                _grow(g, mate, [v, w], length - 1, 0, out)
        if m >= 0:
            for front_steps in range(1, length, 2):
                _grow(g, mate, list(mk_edge(v, m)), length - 1 - front_steps, front_steps, out)
    found = set(out)
    found.discard(p)
    return iter(found)
