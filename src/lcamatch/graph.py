"""Bounded-degree graphs with dense integer vertex ids.

Vertices are 0..n-1, edges are canonical (min, max) pairs, and every graph
carries the degree bound it was declared or generated with.  The text format
accepted by :func:`load_graph` is a header line ``n m d`` followed by ``m``
lines ``u v``.
"""

from __future__ import annotations

import operator
import random
import sys
from bisect import bisect_left
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple, TextIO

__all__ = [
    "Graph",
    "GraphFormatError",
    "load_graph",
    "gen_random_bounded",
    "mk_edge",
]

# Proposal budget multiplier for the random generator; once spent, the
# generator returns whatever it has, possibly an empty graph.
_PROPOSAL_FACTOR = 10

# Longest input line load_graph reads.  No valid line comes near it (int()
# refuses more than 4300 digits); the cap keeps a file with no line breaks,
# such as /dev/zero, from being read into memory whole.
_MAX_LINE = 1 << 16


class GraphFormatError(ValueError):
    """Raised for malformed graph input; the message names the line number."""


def mk_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical edge as an ordered pair."""
    return (u, v) if u < v else (v, u)


def _as_int(value: int, what: str = "vertex id",
            least: int | None = None, most: int | None = None) -> int:
    # operator.index lets numpy ints through but not floats, which a
    # neighbour search would match (0.0 == 0) and adjacency could not index.
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{what} must be at most {most}, got {value}")
    return value


class Graph(NamedTuple):
    """Immutable bounded-degree graph.

    Attributes
    ----------
    vertex_count:
        Number of vertices; ids are dense in ``range(vertex_count)``.
    degree_bound:
        Declared bound ``d``; every vertex has degree at most ``d``.
    adjacency:
        Sorted neighbor tuples of vertices ``0`` up to the highest one with an
        edge; the vertices above it are isolated.  :meth:`neighbors` covers
        every vertex.  The graph's only edge store: :meth:`has_edge` and
        :meth:`sorted_edges` read it.  Memory is O(m + the highest id with
        an edge), not O(m): one edge at id 10^9 builds a 10^9-entry tuple.
    edge_count:
        Number of edges.
    """

    vertex_count: int
    degree_bound: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    @staticmethod
    def from_edges(n: int, d: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, validating ids, duplicates, self loops and degrees.

        Each edge is checked as it arrives, so an error names the first
        offending edge; :func:`load_graph` relies on this for line numbers.
        """
        # Vertex ids index a tuple, so no count past sys.maxsize can run.
        n, d = _as_int(n, "vertex count", 0, sys.maxsize), _as_int(d, "degree bound", 0)
        seen: set[tuple[int, int]] = set()
        # Lists only for vertices that have an edge, but the tuples below run
        # to the highest id with one: storage is O(m + that id), whatever
        # the declared vertex count.
        nbrs: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                # Floats would pass the range check (0.0 < 1) and bools are
                # ints; store plain ints or refuse.
                u, v = _as_int(u), _as_int(v)
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)  # mk_edge, inlined in this hot loop
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
            a = nbrs[u]
            a.append(v)
            b = nbrs[v]
            b.append(u)
            if len(a) > d or len(b) > d:
                x = u if len(a) > d else v
                raise ValueError(f"vertex {x} has degree {len(nbrs[x])}, exceeds bound {d}")
        # The set served the duplicate check only; free it before the tuples.
        m = len(seen)
        del seen
        for a in nbrs.values():
            a.sort()
        # Tuples run up to the highest vertex with an edge; the ones above
        # it are isolated and stored nowhere.  Below it, isolated vertices
        # share the one empty tuple.  Popping frees each list once its tuple
        # exists, so the two never all coexist.
        pop = nbrs.pop
        adjacency = tuple(tuple(pop(x, ())) for x in range(max(nbrs, default=-1) + 1))
        return Graph(n, d, adjacency, m)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of ``v``; raises for non-integer or out-of-range ids."""
        v = _as_int(v)
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v} out of range for n={self.vertex_count}")
        return self.adjacency[v] if v < len(self.adjacency) else ()

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``(u, v)`` is an edge; raises for non-integer ids."""
        if type(u) is not int or type(v) is not int:
            u, v = _as_int(u), _as_int(v)
        if u > v:
            u, v = v, u
        adjacency = self.adjacency
        if not (0 <= u < len(adjacency)):  # never index from the end
            return False
        a = adjacency[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Canonical ``(u, v)`` pairs, ``u < v``, in ascending order."""
        return [(u, v) for u, a in enumerate(self.adjacency) for v in a if u < v]


def load_graph(stream: TextIO) -> Graph:
    """Parse the ``n m d`` edge-list format.

    Blank lines and lines starting with ``#`` are skipped.  Errors report
    1-based line numbers of the offending input line; a line longer than
    65536 characters, comments included, is an error.  The edge lines go
    straight to :meth:`Graph.from_edges`, which runs every edge check once.
    """

    def read_lines() -> Iterator[tuple[int, str]]:
        # Chunks of _MAX_LINE characters split on newlines: one read call
        # per chunk, not per line.  The unfinished tail of a chunk is held
        # to the line cap too, so a file with no line breaks stops at once.
        lineno = 0
        tail = ""
        while True:
            chunk = stream.read(_MAX_LINE)
            *lines, tail = (tail + chunk).split("\n")
            if (tail and not chunk) or len(tail) > _MAX_LINE:
                lines.append(tail)  # the last line, or one too long
            for raw in lines:
                lineno += 1
                if len(raw) > _MAX_LINE:
                    raise GraphFormatError(
                        f"line {lineno}: longer than {_MAX_LINE} characters"
                    )
                if (line := raw.strip()) and not line.startswith("#"):
                    yield lineno, line
            if not chunk:
                return

    lines = read_lines()
    lineno, line = next(lines, (1, None))
    if line is None:
        raise GraphFormatError("line 1: missing 'n m d' header")
    parts = line.split()
    if len(parts) != 3:
        raise GraphFormatError(f"line {lineno}: header must be 'n m d', got {line!r}")
    try:
        n, m, d = (int(p) for p in parts)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: header fields must be integers, got {line!r}"
        ) from None
    if n < 0 or m < 0 or d < 0:
        raise GraphFormatError(f"line {lineno}: negative header field")

    def edges() -> Iterator[tuple[int, int]]:
        nonlocal lineno
        for lineno, line in lines:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"edge must be 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"edge fields must be integers, got {line!r}") from None
            yield u, v

    try:
        g = Graph.from_edges(n, d, edges())
    except GraphFormatError:
        raise
    except ValueError as exc:
        # from_edges checks the vertex count first and then each edge as it
        # arrives, so lineno is the header's line or the edge's.
        raise GraphFormatError(f"line {lineno}: {exc}") from None
    if g.edge_count != m:
        raise GraphFormatError(f"header declares {m} edges, found {g.edge_count}")
    return g


def dump_graph(g: Graph) -> str:
    """Inverse of :func:`load_graph`, with edges in canonical order."""
    lines = [f"{g.vertex_count} {g.edge_count} {g.degree_bound}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def gen_random_bounded(n: int, d: int, seed: int) -> Graph:
    """Random graph on ``n`` vertices with max degree ``d``.

    Repeatedly proposes uniform vertex pairs and keeps a proposal unless it
    is a self loop, already present, or would push an endpoint past ``d``.
    The proposal budget is ``10 * n * d``, cut short by a complete graph; the
    graph built so far is returned, so sparse (even empty) results are legal.
    ``n``, ``d`` and ``seed`` are integers, ``seed`` non-negative.
    """
    n, d = _as_int(n, "vertex count", 2, sys.maxsize), _as_int(d, "degree bound", 1)
    # random.Random would hash a str, draw from the OS for None and drop a sign.
    rng = random.Random(_as_int(seed, "seed", 0))
    degrees = [0] * n
    chosen: set[tuple[int, int]] = set()
    for _ in range(_PROPOSAL_FACTOR * n * d):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = mk_edge(u, v)
        if e in chosen:
            continue
        if degrees[u] >= d or degrees[v] >= d:
            continue
        chosen.add(e)
        degrees[u] += 1
        degrees[v] += 1
        if len(chosen) == n * (n - 1) // 2:
            break  # complete: every later proposal would be refused
    return Graph.from_edges(n, d, chosen)
