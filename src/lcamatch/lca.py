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

Candidate paths are enumerated alternating only.  An augmenting path of
phase ``ell`` uses unmatched edges at odd positions and matched edges at even
positions of the matching after phase ``ell - 2``, so the path search drops a
branch at its first edge of the wrong status (the alternating search of
Hopcroft and Karp).  A dropped path is not augmenting, so the greedy rule
would have passed over it anyway and answers are unchanged.  The raw path
given to a probe meets the same edge filter, the engine's one alternation
test, and is out if it fails.

Work is bounded by a per-query budget on augmenting-path checks: one per
alternating candidate, which settles whether its two ends are free.  A query
that would exceed the budget raises :class:`BudgetExceededError` rather than
returning a guess, so answers are never wrong, merely refused.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .graph import Graph, mk_edge
# Not used by the engine: the benchmark's layer tracer (perfbench/layertrace.py)
# looks these two names up on this module.  The line goes when ROADMAP item 1
# drops their two metrics, which read 0.
from .oracles import greedy_mis, intersection_edges  # noqa: F401
from .ordering import Rank, SeedSet, init_seeds, rank
from .paths import (
    EdgeFilter,
    PathKey,
    canonical_key,
    iter_intersecting,
    paths_through_edge,
)

__all__ = [
    "Engine",
    "Stats",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """A query hit its augmenting-check budget and refused to answer."""


@dataclass
class Stats:
    """Counters for one top-level query.

    ``f`` counts augmenting-path checks (the budgeted unit of work), made
    only on alternating candidates: a path given to a probe is counted only
    if it alternates.  ``f_by_phase`` splits the count by phase length, and
    ``relevant_set_sizes`` has one entry per greedy-MIS decision computed for
    an augmenting path during the query: 1 plus the number of lower-ranked
    augmenting neighbours that decision scanned.
    """

    f: int = 0
    f_by_phase: dict[int, int] = field(default_factory=dict)
    relevant_set_sizes: list[int] = field(default_factory=list)
    wall_time: float = 0.0


class _Forgetful(dict):
    """The memo of ``cache_mode="off"``: every write is dropped."""

    def __setitem__(self, key, value) -> None:
        pass


def _k_from_eps(eps: float, k_max: int) -> int:
    """``ceil(1 / eps)``, at least 1 and at most ``k_max``."""
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
        ``k`` is clamped to ``max(1, n // 2)`` for an ``n``-vertex graph: a
        phase longer than ``n - 1`` has no simple path and changes nothing,
        so the matching is the same and phase probes stop at the clamped
        ``2k - 1``.
    seeds:
        Optional pre-built :class:`~lcamatch.ordering.SeedSet`; must cover
        every phase and match the graph's vertex count.
    rng_seed:
        Used to draw seeds when ``seeds`` is not given; defaults to 0.
    budget:
        Max augmenting-path checks per top-level query.
    cache_mode:
        ``"shared"`` keeps memoized answers across queries, ``"per_query"``
        clears them at each public call, ``"off"`` disables memoization.
        All three modes return identical answers.
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
        k_max = max(1, graph.vertex_count // 2)
        if k is None:
            k = _k_from_eps(eps, k_max)  # type: ignore[arg-type]
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        k = min(k, k_max)
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        if cache_mode not in ("shared", "per_query", "off"):
            raise ValueError(f"unknown cache_mode {cache_mode!r}")
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
        self._memo: dict[tuple, bool] = _Forgetful() if cache_mode == "off" else {}
        self._ranks: dict[PathKey, Rank] = {}
        self._stats = Stats()

    # -- public query surface -------------------------------------------

    def query(self, edge: tuple[int, int]) -> bool:
        """True iff ``edge`` belongs to the final matching."""
        e = self._check_edge(edge)
        return self._run(lambda: self._in_matching(e, 2 * self.k - 1))

    def materialize(self) -> frozenset[tuple[int, int]]:
        """The full matching, by querying every edge."""
        return frozenset(e for e in self.graph.sorted_edges() if self.query(e))

    def is_in_matching(self, edge: tuple[int, int], ell: int) -> bool:
        """Membership of ``edge`` in the matching after phase ``ell``."""
        e = self._check_edge(edge)
        self._check_phase(ell, allow_base=True)
        return self._run(lambda: self._in_matching(e, ell))

    def is_path_in_mis(self, p: PathKey, ell: int) -> bool:
        """Whether phase ``ell`` picked ``p`` into its independent set."""
        p = self._check_path(p, ell)
        return self._run(lambda: self._alternates(p, ell) and self._path_in_mis(p, ell))

    def is_augmenting_path(self, p: PathKey, ell: int) -> bool:
        """Whether ``p`` augments the matching left by phase ``ell - 2``."""
        p = self._check_path(p, ell)
        return self._run(lambda: self._alternates(p, ell) and self._augmenting(p, ell))

    def is_free(self, v: int, ell: int) -> bool:
        """Whether vertex ``v`` is unmatched after phase ``ell - 2``."""
        if not (0 <= v < self.graph.vertex_count):
            raise ValueError(f"vertex {v} out of range")
        self._check_phase(ell, allow_base=False)
        return self._run(lambda: self._free(v, ell))

    # -- validation -------------------------------------------------------

    def _check_edge(self, edge: tuple[int, int]) -> tuple[int, int]:
        u, v = edge
        if not self.graph.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not in graph")
        return mk_edge(u, v)

    def _check_phase(self, ell: int, *, allow_base: bool) -> None:
        if ell == -1 and allow_base:
            return
        if ell % 2 == 0 or not (1 <= ell <= 2 * self.k - 1):
            raise ValueError(
                f"phase length must be odd and within 1..{2 * self.k - 1}, got {ell}"
            )

    def _check_path(self, p: PathKey, ell: int) -> PathKey:
        self._check_phase(ell, allow_base=False)
        key = canonical_key(self.graph, p)
        if key.length != ell:
            raise ValueError(f"path has length {key.length}, expected {ell}")
        return key

    # -- budgeted recursion ------------------------------------------------

    def _run(self, thunk):
        if self.cache_mode == "per_query":
            self._memo.clear()
        stats = Stats()
        self._stats = stats
        start = time.perf_counter()
        try:
            return thunk()
        finally:
            stats.wall_time = time.perf_counter() - start
            self.last_stats = stats

    def _in_matching(self, e: tuple[int, int], ell: int) -> bool:
        if ell == -1:
            return False
        key = ("m", e, ell)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        below = self._in_matching(e, ell - 2)
        flipped = False
        # At most one chosen path can contain e (chosen paths are disjoint),
        # so the first hit settles it.
        for p in paths_through_edge(self.graph, e, ell, ok=self._alternating(ell)):
            if self._path_in_mis(p, ell):
                flipped = True
                break
        res = below != flipped
        self._memo[key] = res
        return res

    def _alternating(self, ell: int) -> EdgeFilter | None:
        # An augmenting path of phase ell alternates: its odd-position edges
        # are unmatched after phase ell - 2 and its even-position ones are
        # matched.  Enumerating under this filter drops a candidate at its
        # first wrong edge; only the free-end test is left to _augmenting.
        # Phase 1 augments the empty matching, so it needs no filter.
        if ell == 1:
            return None
        below = ell - 2
        in_matching = self._in_matching
        return lambda e, i: in_matching(e, below) == (i % 2 == 0)

    def _alternates(self, p: PathKey, ell: int) -> bool:
        # A probe's path was not enumerated, so it meets the filter here.
        ok = self._alternating(ell)
        return ok is None or all(ok(e, i) for i, e in enumerate(p.edge_seq(), start=1))

    def _rank(self, p: PathKey) -> Rank:
        # A path's length is its phase, so the path alone keys the cache.
        t = self._ranks.get(p)
        if t is None:
            t = rank(p, self.seeds.phases[p.length])
            self._ranks[p] = t
        return t

    def _path_in_mis(self, p: PathKey, ell: int) -> bool:
        key = ("i", p, ell)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        res = self._augmenting(p, ell)
        if res:
            rank_of = self._rank
            p_rank = rank_of(p)
            lower = [
                q
                for q in iter_intersecting(self.graph, p, ok=self._alternating(ell))
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
            self._stats.relevant_set_sizes.append(1 + scanned)
        self._memo[key] = res
        return res

    def _augmenting(self, p: PathKey, ell: int) -> bool:
        # p alternates: the enumerators and the probes admit only paths that
        # pass _alternating(ell).  So only its two ends are left to check.
        stats = self._stats
        stats.f += 1
        stats.f_by_phase[ell] = stats.f_by_phase.get(ell, 0) + 1
        if stats.f > self.budget:
            raise BudgetExceededError(
                f"query exceeded budget of {self.budget} augmenting-path checks"
            )
        # Phase 1 augments the empty matching: every edge qualifies.
        return ell == 1 or (self._free(p[0], ell) and self._free(p[-1], ell))

    def _free(self, v: int, ell: int) -> bool:
        key = ("f", v, ell)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        res = True
        for u in self.graph.neighbors(v):
            if self._in_matching(mk_edge(v, u), ell - 2):
                res = False
                break
        self._memo[key] = res
        return res
