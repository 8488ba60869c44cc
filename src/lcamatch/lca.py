"""Local computation of a (1 - eps)-approximate maximum matching.

The global object being simulated is built in phases.  Phase ``ell`` (odd,
from 1 up to ``2k - 1`` with ``k = ceil(1 / eps)``) takes the previous
matching, collects every augmenting path of exactly ``ell`` edges, picks a
maximal independent set of vertex-disjoint such paths greedily in seeded
pseudorandom order, and flips all chosen path edges.  After the last phase no
augmenting path of length at most ``2k - 1`` remains, which forces the
matching to within ``1 - 1/k`` of maximum.

The engine answers per-edge membership queries against that final matching
without ever materializing it.  A membership query recurses through the
phases.  Whether phase ``ell`` picked an augmenting path ``p`` is decided by
the lazy greedy rule of Nguyen and Onak: ``p`` is picked iff none of the
augmenting paths that share a vertex with it and rank below it was picked.
Those neighbours are decided recursively in ascending rank, and the first one
found picked settles ``p`` as not picked.  This is exactly the global greedy
decision, so query answers across edges are mutually consistent: they all
describe one fixed matching determined by the graph and the seeds.

Phase 1 augments the empty matching with single edges, so it is the
random-order greedy maximal matching, and it is decided on its own: an edge
is in iff none of its adjacent edges ranked below it is in, visited in
ascending rank (the order of Nguyen and Onak, whose expected cost Yoshida,
Yamamoto and Ito bound by a constant).  Those rank-sorted lower neighbours
depend only on the graph and the seeds, so each edge's list is built once
and kept for the engine's life.

From phase 3 on, candidate paths are enumerated alternating only.  An
augmenting path of phase ``ell`` takes, at each even position, the matched
edge to its vertex's partner after phase ``ell - 2``, and at each odd one any
other edge, so the path search follows partners, one memoized per vertex (the
alternating search of Hopcroft and Karp).  A path it skips is not augmenting,
so the greedy rule would have passed over it anyway and answers are unchanged.

Cheapest question first: a flip matches its path's ends and keeps its inner
vertices matched, so a vertex matched after phase ``j`` stays matched.  The
end test asks both ends at phase 1, 3, ... and stops at the first matched
one, a partner scan tries the previous phase's partner first, and a free
vertex, which can only end a path, anchors only the paths it ends.

Work is bounded by a per-query budget of units: one per partner question,
memoized or not, and one per phase-1 decision computed.  The path search asks
a partner at every matched step, so the budget bounds time.  A query that
would exceed it raises :class:`BudgetExceededError` rather than returning a
guess, so answers are never wrong, merely refused.

A path is the plain canonical tuple of its vertices (see
:mod:`lcamatch.paths`).  Its length is its phase, so the tuple alone keys
its rank and its greedy decision.

Memo lifetimes: one memo holds every decision, an edge's membership at each
phase among them.  With ``cache_mode="per_query"`` each public call starts
with it empty; the path ranks and the phase-1 lists of lower neighbours are
kept, since neither depends on an earlier decision.
"""

from __future__ import annotations

import math
import operator

from .graph import Graph, _as_int, mk_edge
from .ordering import Rank, SeedSet, init_seeds, rank
from .paths import Mate, iter_intersecting, paths_through_edge

__all__ = [
    "Engine",
    "Stats",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """A refused query; ``stats`` is its record, stopped at ``f == budget + 1``."""

    def __init__(self, message: str, stats: Stats | None = None) -> None:
        super().__init__(message)
        self.stats = stats


class Stats:
    """The work record of one public call, live while the call runs.

    ``f`` counts work units, the budgeted unit: one per partner question
    (memoized or not) and one per phase-1 decision computed.  A refused
    query stops at ``f == budget + 1``.  ``f_by_phase`` splits the count by
    phase: 1 for a phase-1 decision, ``ell + 2`` for a partner after
    ``ell``.  ``relevant_set_sizes`` has one entry per greedy-MIS decision
    computed for an augmenting path during the query: 1 plus the number of
    lower-ranked augmenting neighbours that decision scanned.  The engine
    counts work and keeps no clock; a caller times its own calls.  Fields go
    by position or keyword; ``Stats()`` starts at zero with fresh containers.
    """

    __slots__ = ("f", "f_by_phase", "relevant_set_sizes")

    def __init__(self, f: int = 0, f_by_phase: dict[int, int] | None = None,
                 relevant_set_sizes: list[int] | None = None) -> None:
        self.f = f
        self.f_by_phase = {} if f_by_phase is None else f_by_phase
        self.relevant_set_sizes = [] if relevant_set_sizes is None else relevant_set_sizes

    def __eq__(self, other: object) -> bool:  # defining it leaves Stats unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.f, self.f_by_phase, self.relevant_set_sizes) == (
            other.f, other.f_by_phase, other.relevant_set_sizes
        )

    def __reduce__(self):  # pickle protocols 0 and 1 refuse bare slots
        return self.__class__, (self.f, self.f_by_phase, self.relevant_set_sizes)

    def __repr__(self) -> str:
        return (f"Stats(f={self.f!r}, f_by_phase={self.f_by_phase!r}, "
                f"relevant_set_sizes={self.relevant_set_sizes!r})")


def __getattr__(name: str):
    # The engine calls neither: perfbench/layertrace.py looks these two
    # oracle names up here, and resolving them on demand keeps the oracles
    # out of `import lcamatch`.  Goes when ROADMAP item 1b drops their
    # metrics, which read 0.
    if name in ("greedy_mis", "intersection_edges"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _k_from_eps(eps: float, k_max: int) -> int:
    """``ceil(1 / eps)``, at least 1 and at most ``k_max``."""
    if not hasattr(type(eps), "__float__"):  # math.isfinite's own test
        raise ValueError(f"eps must be a real number, got {eps!r}")
    if not math.isfinite(eps) or eps <= 0:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    inverse = 1.0 / eps
    if math.isinf(inverse):
        return k_max
    # round() guards ceil against float noise in 1/eps for eps like 1/3.
    return min(k_max, max(1, math.ceil(round(inverse, 9))))


class Engine:
    """Per-edge membership oracle for the phased matching.

    Parameters
    ----------
    graph:
        The bounded-degree input graph.
    eps, k:
        Approximation target; give exactly one.  ``k = ceil(1 / eps)``.
        ``k`` is clamped to ``max(1, (min(n - 1, m) + 1) // 2)`` for a graph
        of ``n`` vertices and ``m`` edges: a phase longer than ``n - 1`` or
        ``m`` edges has no simple path and changes nothing, so the matching
        is the same and :meth:`is_in_matching` stops at the clamped
        ``2k - 1``.
    seeds:
        Optional pre-built :class:`~lcamatch.ordering.SeedSet`; must cover
        every phase and match the graph's vertex count.
    rng_seed:
        A non-negative integer, used to draw seeds when ``seeds`` is not
        given; defaults to 0.
        Giving both is an error.
    budget:
        Max work units (``Stats.f``) per public call.  One unit took 2-18
        microseconds on a 2-vCPU VM (d = 3-4, k = 2-10), so the default is
        seconds of work.
    cache_mode:
        ``"shared"`` keeps the decision memo across queries, ``"per_query"``
        clears it at each public call.  Both keep the path ranks and the
        phase-1 table of rank-sorted lower neighbours, which depend only on
        the graph and the seeds.  Both return identical answers, and
        ``per_query`` work does not depend on earlier queries.
    """

    def __init__(
        self,
        graph: Graph,
        eps: float | None = None,
        *,
        k: int | None = None,
        seeds: SeedSet | None = None,
        rng_seed: int | None = None,
        budget: int = DEFAULT_BUDGET,
        cache_mode: str = "shared",
    ) -> None:
        if (eps is None) == (k is None):
            raise ValueError("provide exactly one of eps and k")
        k_max = max(1, (min(graph.vertex_count - 1, graph.edge_count) + 1) // 2)
        if k is None:
            k = _k_from_eps(eps, k_max)  # type: ignore[arg-type]
        k = min(_as_int(k, "k", 1), k_max)
        budget = _as_int(budget, "budget", 1)
        if cache_mode not in ("shared", "per_query"):
            raise ValueError(f"unknown cache_mode {cache_mode!r}")
        if seeds is not None and rng_seed is not None:
            raise ValueError("provide at most one of seeds and rng_seed")
        if seeds is None:
            seeds = init_seeds(
                k, max(2, graph.vertex_count), 0 if rng_seed is None else rng_seed
            )
        else:
            if seeds.n != max(2, graph.vertex_count):
                raise ValueError(
                    f"seed set is for n={seeds.n}, graph has n={graph.vertex_count}"
                )
            for ell in range(1, 2 * k, 2):
                seeds.phase(ell)
        self.graph = graph
        self.k = k
        self.seeds = seeds
        self.budget = budget
        self.cache_mode = cache_mode
        self.last_stats: Stats | None = None
        # per_query clears _memo only; _ranks and _lower depend on nothing
        # but the graph and the seeds.  _memo holds three kinds of decision,
        # told apart by key shape: edge membership at every phase under
        # ((u, v), ell), a vertex's partner under (v, ell), and a path's
        # greedy pick under the path itself, at least 4 ints.
        self._memo: dict[tuple, bool | int] = {}
        self._ranks: dict[tuple[int, ...], Rank] = {}
        self._lower: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    # -- public query surface -------------------------------------------

    def query(self, edge: tuple[int, int]) -> bool:
        """True iff ``edge`` belongs to the final matching."""
        return self.is_in_matching(edge, 2 * self.k - 1)

    def materialize(self) -> frozenset[tuple[int, int]]:
        """The full matching, by querying every edge."""
        return frozenset(e for e in self.graph.sorted_edges() if self.query(e))

    def is_in_matching(self, edge: tuple[int, int], ell: int) -> bool:
        """Membership of ``edge`` in the matching after phase ``ell``.

        The engine's one checked entry; ``query`` is its top phase, and
        ``last_stats`` is this call's record from its start.  ``ell`` is odd
        in ``1..2k-1``, and the matching before phase 1 is empty.  Every
        other per-phase fact follows from this one: phase ``ell`` picked a
        path ``p`` of ``ell`` edges iff every edge of ``p`` changes
        membership between ``ell - 2`` and ``ell``; ``p`` augments the
        matching after ``ell - 2`` iff it alternates against it with both
        ends free; and vertex ``v`` is free after phase ``ell`` iff no edge
        at ``v`` is in.
        """
        e = self._check_edge(edge)
        ell = _as_int(ell, "phase length")
        if ell not in range(1, 2 * self.k, 2):
            raise ValueError(
                f"phase length must be odd and within 1..{2 * self.k - 1}, got {ell}"
            )
        if self.cache_mode == "per_query":
            self._memo.clear()
        self.last_stats = Stats()
        return self._in_matching(e, ell)

    # -- validation -------------------------------------------------------

    def _check_edge(self, edge: tuple[int, int]) -> tuple[int, int]:
        # Integer ids take operator.index: numpy ints pass, floats do not
        # (graph._as_int says why).
        if not (
            isinstance(edge, (tuple, list))
            and len(edge) == 2
            and all(hasattr(type(x), "__index__") for x in edge)
        ):
            raise ValueError(f"edge must be a pair of integers, got {edge!r}")
        u, v = map(operator.index, edge)
        if not self.graph.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not in graph")
        return mk_edge(u, v)

    # -- budgeted recursion ------------------------------------------------

    def _in_matching(self, e: tuple[int, int], ell: int) -> bool:
        # The one owner of edge decisions, at every phase.
        key = (e, ell)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if ell == 1:
            res = self._edge_in_mis(e)
        else:
            res = self._in_matching(e, ell - 2)
            # At most one chosen path can contain e (chosen paths are
            # disjoint), so the first hit flips it.
            for p in paths_through_edge(self.graph, e, ell, mate=self._alternating(ell)):
                if self._path_in_mis(p, ell):
                    res = not res
                    break
        self._memo[key] = res
        return res

    def _alternating(self, ell: int) -> Mate:
        # An augmenting path of phase ell >= 3 alternates against the
        # matching after phase ell - 2: an even-position step from x takes
        # the edge to x's partner, an odd-position step any other edge.  So
        # the search needs one partner per vertex, and only the free-end test
        # is left to _augmenting.
        below = ell - 2
        partner = self._partner
        return lambda x: partner(x, below)

    def _rank(self, p: tuple[int, ...]) -> Rank:
        # A path's length is its phase, so the path alone keys the cache.
        t = self._ranks.get(p)
        if t is None:
            t = rank(p, self.seeds.phases[len(p) - 1])
            self._ranks[p] = t
        return t

    def _edge_in_mis(self, e: tuple[int, int]) -> bool:
        # Greedy maximal matching: e is in unless an adjacent edge ranked
        # below it is, visited in ascending rank.  _in_matching memoizes it.
        self._charge(1)
        lower = self._lower.get(e)
        if lower is None:
            adj = self.graph.adjacency
            u, v = e
            rank_of = self._rank
            e_rank = rank_of(e)
            ranks = [
                rank_of(mk_edge(a, w))
                for a, b in ((u, v), (v, u))
                for w in adj[a]
                if w != b
            ]
            # r.path is the tuple _ranks already holds, not a fresh copy.
            lower = tuple(r.path for r in sorted(r for r in ranks if r < e_rank))
            self._lower[e_rank.path] = lower
        res = True
        scanned = 0
        for q in lower:
            scanned += 1
            if self._in_matching(q, 1):
                res = False
                break
        self.last_stats.relevant_set_sizes.append(1 + scanned)
        return res

    def _path_in_mis(self, p: tuple[int, ...], ell: int) -> bool:
        # p's length is ell, so p alone keys the decision.
        cached = self._memo.get(p)
        if cached is not None:
            return cached
        res = self._augmenting(p, ell)
        if res:
            rank_of = self._rank
            p_rank = rank_of(p)
            lower = [
                q
                for q in iter_intersecting(self.graph, p, mate=self._alternating(ell))
                if self._augmenting(q, ell) and rank_of(q) < p_rank
            ]
            lower.sort(key=rank_of)
            # Greedy takes p unless a lower-ranked neighbour was taken first.
            # Deciding the lowest-ranked neighbours first keeps chains short.
            scanned = 0
            for q in lower:
                scanned += 1
                if self._path_in_mis(q, ell):
                    res = False
                    break
            self.last_stats.relevant_set_sizes.append(1 + scanned)
        self._memo[p] = res
        return res

    def _augmenting(self, p: tuple[int, ...], ell: int) -> bool:
        # p alternates: every path reaching here came from an enumerator
        # under _alternating(ell).  So only its two ends are left to check,
        # free after ell - 2: cheap low phases first, as matched stays matched.
        partner = self._partner
        for j in range(1, ell - 1, 2):
            if partner(p[0], j) >= 0 or partner(p[-1], j) >= 0:
                return False
        return True

    def _charge(self, ell: int) -> None:
        # One unit per call, so a refused query stops at f == budget + 1.
        stats = self.last_stats
        stats.f += 1
        stats.f_by_phase[ell] = stats.f_by_phase.get(ell, 0) + 1
        if stats.f > self.budget:
            raise BudgetExceededError(
                f"query exceeded budget of {self.budget} work units", stats
            )

    def _partner(self, v: int, ell: int) -> int:
        # The neighbour u with (v, u) in the matching after phase ell, or
        # -1.  A matching has at most one, so the order cannot change it: a
        # flip keeps most partners, so v's partner after ell - 2 goes first.
        # Every question costs a unit, memo hit or not: this bounds the search.
        self._charge(ell + 2)
        key = (v, ell)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        adj = self.graph.adjacency[v]
        w = self._partner(v, ell - 2) if ell >= 3 else -1
        res = -1
        for u in (w, *adj) if w >= 0 else adj:
            if self._in_matching(mk_edge(v, u), ell):
                res = u
                break
        self._memo[key] = res
        return res
