import collections
import copy
import hashlib
import importlib.util
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcamatch.lca as lca
import lcamatch.oracles as oracles
from lcamatch.graph import Graph, gen_random_bounded
from lcamatch.lca import BudgetExceededError, Engine, Stats
from lcamatch.ordering import init_seeds, rank
from lcamatch.querytree import tail_ccdf
from lcamatch.oracles import (
    abstract_distributed_mm,
    augmenting_paths,
    find_augmenting_path,
    greedy_mis,
    intersection_edges,
    verify_matching,
)

from conftest import (
    cycle_graph,
    find_order_seed,
    path_edges,
    path_graph,
    petersen_graph,
    simple_paths,
)


def materialize_phase(engine, ell):
    return frozenset(
        e for e in engine.graph.sorted_edges() if engine.is_in_matching(e, ell)
    )


def test_k2_on_k2_graph():
    g = path_graph(2)
    for seed in range(4):
        eng = Engine(g, k=1, rng_seed=seed)
        assert eng.query((0, 1)) is True


def test_p4_k2_forced_answers():
    g = path_graph(4)
    for seed in range(8):
        eng = Engine(g, eps=0.5, rng_seed=seed)
        assert eng.k == 2
        assert eng.query((0, 1)) is True
        assert eng.query((1, 2)) is False
        assert eng.query((2, 3)) is True


def test_c3_k1_single_edge_matches_global_greedy():
    g = cycle_graph(3)
    for seed in range(8):
        ss = init_seeds(1, 3, seed)
        eng = Engine(g, k=1, seeds=ss)
        local = {e for e in g.sorted_edges() if eng.query(e)}
        assert len(local) == 1
        assert local == set(abstract_distributed_mm(g, 1, ss))
        # the chosen edge is the rank-minimal conflict node
        s = ss.phases[1]
        best = min(g.sorted_edges(), key=lambda p: rank(p, s))
        assert local == {best}


def test_p4_flip_trace_with_rigged_seed():
    # an ordering that ranks the middle edge first makes phase 1 pick it,
    # then the full path augments it away at phase 3
    g = path_graph(4)
    mid, left, right = (1, 2), (0, 1), (2, 3)

    def mid_first(seed_int):
        s = init_seeds(2, 4, seed_int).phases[1]
        return rank(mid, s) < rank(left, s) and rank(mid, s) < rank(right, s)

    seed_int = find_order_seed(mid_first)
    eng = Engine(g, k=2, seeds=init_seeds(2, 4, seed_int))
    assert eng.is_in_matching((1, 2), 1) is True
    assert eng.is_in_matching((1, 2), 3) is False
    # phase 3 picked the whole path: every edge flips between phases 1 and 3
    assert materialize_phase(eng, 1) ^ materialize_phase(eng, 3) == frozenset(g.sorted_edges())


def test_path_in_mis_rank_chain_on_p5():
    # order (1,2) < (2,3) < (0,1) < (3,4): (1,2) is taken first, which
    # blocks (2,3) and (0,1); (3,4)'s only lower neighbour (2,3) is out,
    # so (3,4) is taken
    g = path_graph(5)
    e01, e12, e23, e34 = ((i, i + 1) for i in range(4))

    def wanted(seed_int):
        s = init_seeds(2, 5, seed_int).phases[1]
        r = {p: rank(p, s) for p in (e01, e12, e23, e34)}
        return r[e12] < r[e23] < r[e01] < r[e34]

    seed_int = find_order_seed(wanted)
    eng = Engine(g, k=2, seeds=init_seeds(2, 5, seed_int))
    assert [eng.is_in_matching(p, 1) for p in (e01, e12, e23, e34)] == [
        False, True, False, True,
    ]


def test_path_in_mis_non_augmenting_root_is_out():
    # when phase 1 already matched the end edges of P4, the full path fails
    # the alternation pattern at phase 3 and cannot be picked, so phase 3
    # flips nothing
    g = path_graph(4)
    e01, e12, e23 = (0, 1), (1, 2), (2, 3)

    def middle_not_first(seed_int):
        s = init_seeds(2, 4, seed_int).phases[1]
        r12 = rank(e12, s)
        return rank(e01, s) < r12 or rank(e23, s) < r12

    eng = Engine(g, k=2, seeds=init_seeds(2, 4, find_order_seed(middle_not_first)))
    assert materialize_phase(eng, 3) == materialize_phase(eng, 1)


def test_greedy_mis_toy_orders():
    a, b, c = (0, 1), (1, 2), (2, 3)
    assert greedy_mis({a, b, c}, {a: 1, b: 2, c: 3}.get) == {a, c}
    assert greedy_mis({a, b, c}, {a: 2, b: 1, c: 3}.get) == {b}
    assert greedy_mis(frozenset(), int) == set()


def test_greedy_mis_is_maximal_and_independent():
    g = petersen_graph()
    nodes = augmenting_paths(g, set(), 1)
    eng = Engine(g, k=1, rng_seed=2)
    seed = eng.seeds.phase(1)
    chosen = greedy_mis(nodes, lambda p: rank(p, seed))
    adj = {p: set() for p in nodes}
    for a, b in intersection_edges(nodes):
        adj[a].add(b)
        adj[b].add(a)
    for node in chosen:
        assert not (adj[node] & chosen)
    for node in nodes - chosen:
        assert adj[node] & chosen


def test_path_in_mis_matches_global_for_every_path():
    # Phase ell picked p iff every edge of p flipped between ell - 2 and ell:
    # picked paths are vertex-disjoint, so the flipped edges split exactly
    # into them.  Checked over every path of the phase length, augmenting or
    # not, from the reference search.
    rng = random.Random(9)
    for gi in range(6):
        n = rng.randrange(5, 13)
        d = rng.randrange(2, 4)
        g = gen_random_bounded(n, d, 900 + gi)
        if g.edge_count == 0:
            continue
        for seed in range(2):
            ss = init_seeds(3, n, seed)
            eng = Engine(g, k=3, seeds=ss)
            matching = frozenset()
            for ell in (1, 3, 5):
                every = simple_paths(g, ell)
                if ell > 2 * eng.k - 1:
                    # k was clamped: no path this long exists
                    assert not every
                    break
                nodes = augmenting_paths(g, matching, ell)
                s = ss.phases[ell]
                chosen = greedy_mis(nodes, lambda p: rank(p, s))
                before = materialize_phase(eng, ell - 2) if ell > 1 else frozenset()
                after = materialize_phase(eng, ell)
                assert before == matching
                matching = matching ^ {e for p in chosen for e in path_edges(p)}
                assert after == matching
                flipped = before ^ after
                for p in sorted(every):
                    assert all(e in flipped for e in path_edges(p)) == (p in chosen)


def test_query_answers_independent_of_cache_and_order():
    rng = random.Random(31)
    for gi in range(5):
        n = rng.randrange(6, 14)
        g = gen_random_bounded(n, 3, 1100 + gi)
        if g.edge_count == 0:
            continue
        ss = init_seeds(2, n, gi)
        edges = g.sorted_edges()
        baseline = None
        for mode in ("shared", "per_query"):
            for perm_seed in range(3):
                order = list(edges)
                random.Random(perm_seed).shuffle(order)
                eng = Engine(g, k=2, seeds=ss, cache_mode=mode)
                answers = {e: eng.query(e) for e in order}
                vector = [answers[e] for e in edges]
                if baseline is None:
                    baseline = vector
                assert vector == baseline


def test_repeated_query_same_answer():
    g = petersen_graph()
    eng = Engine(g, k=2, rng_seed=5)
    e = (0, 1)
    first = eng.query(e)
    for _ in range(3):
        assert eng.query(e) == first


def test_budget_exhaustion_raises():
    g = petersen_graph()
    eng = Engine(g, k=2, rng_seed=0, budget=3)
    with pytest.raises(BudgetExceededError) as exc:
        eng.query((0, 1))
    # The error carries the refused query's record, stopped at budget + 1.
    s = exc.value.stats
    assert s is eng.last_stats
    assert s.f == eng.budget + 1
    assert sum(s.f_by_phase.values()) == s.f
    # a roomier engine with the same seeds still answers consistently
    ok = Engine(g, k=2, seeds=eng.seeds)
    assert ok.materialize() == abstract_distributed_mm(g, 2, eng.seeds)


_LONG_PHASE_QUERY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
sys.path.insert(0, sys.argv[1])
from lcamatch import DEFAULT_BUDGET, BudgetExceededError, Engine, gen_random_bounded
eng = Engine(gen_random_bounded(64, 3, 1), eps=0.05, rng_seed=0)
assert eng.k == 20 and eng.budget == DEFAULT_BUDGET
try:
    eng.query((0, 34))
except BudgetExceededError as exc:
    assert exc.stats.f == eng.budget + 1, exc.stats.f
    print("refused")
"""


def test_default_budget_bounds_a_long_phase_query():
    # At k=20 the enumeration behind one candidate path can run for minutes,
    # so the budget counts the partner questions the search asks, not the
    # candidates: the default budget refuses this query within seconds.
    # The child runs under a 1 GiB address cap.
    src = Path(__file__).resolve().parents[1] / "src"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _LONG_PHASE_QUERY, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"
    assert time.perf_counter() - start < 10


def test_phase_sizes_never_shrink():
    rng = random.Random(40)
    deepest = 0
    for gi in range(6):
        n = rng.randrange(6, 16)
        d = rng.randrange(2, 5)
        g = gen_random_bounded(n, d, 1200 + gi)
        if g.edge_count == 0:
            continue
        eng = Engine(g, k=4, rng_seed=gi)
        matchings = [materialize_phase(eng, ell) for ell in range(1, 2 * eng.k, 2)]
        sizes = [len(m) for m in matchings]
        assert sizes == sorted(sizes)
        # A flip matches its path's ends and keeps its inner vertices
        # matched, so a vertex matched after phase j stays matched after
        # j + 2: the end test asks the lower phases first on that account.
        covered = [{v for e in m for v in e} for m in matchings]
        assert all(a <= b for a, b in zip(covered, covered[1:]))
        # phase 1 output is a maximal matching
        m1 = matchings[0]
        assert verify_matching(g, m1)
        assert find_augmenting_path(g, m1, 1) is None
        deepest = max(deepest, eng.k)
    assert deepest == 4


def test_partner_is_the_mate_in_each_phase_matching():
    # The path search follows _partner, and _augmenting reads a free end as
    # _partner < 0: it must be v's mate after phase ell, or -1.  At k=4 the
    # scan that tests the previous phase's partner first runs at 5 and 7.
    cases = (
        (petersen_graph(), 3),
        (gen_random_bounded(40, 3, 77), 3),
        (gen_random_bounded(40, 3, 77), 4),
    )
    for gi, (g, k) in enumerate(cases):
        eng = Engine(g, k=k, rng_seed=gi)
        assert eng.k == k
        for ell in range(1, 2 * k, 2):
            partner = {}
            for u, v in materialize_phase(eng, ell):
                partner[u], partner[v] = v, u
            assert partner
            for v in range(g.vertex_count):
                eng.last_stats = Stats()  # the record a public call would start
                assert eng._partner(v, ell) == partner.get(v, -1)


def test_full_matching_properties():
    rng = random.Random(50)
    for gi in range(4):
        n = rng.randrange(6, 14)
        d = rng.randrange(2, 4)
        g = gen_random_bounded(n, d, 1300 + gi)
        if g.edge_count == 0:
            continue
        ss = init_seeds(2, n, gi)
        eng = Engine(g, k=2, seeds=ss)
        m = eng.materialize()
        assert m == abstract_distributed_mm(g, 2, ss)
        assert verify_matching(g, m)
        assert find_augmenting_path(g, m, 3) is None


def test_stats_populated():
    g = petersen_graph()
    eng = Engine(g, k=2, rng_seed=1)
    eng.query((0, 1))
    s = eng.last_stats
    assert s is not None
    assert s.f >= 1
    assert sum(s.f_by_phase.values()) == s.f
    assert set(s.f_by_phase) <= {1, 3}
    assert all(x >= 1 for x in s.relevant_set_sizes)


def test_engine_validation():
    g = path_graph(4)
    with pytest.raises(ValueError, match="exactly one"):
        Engine(g)
    with pytest.raises(ValueError, match="exactly one"):
        Engine(g, eps=0.5, k=2)
    with pytest.raises(ValueError, match="positive"):
        Engine(g, eps=0.0)
    with pytest.raises(ValueError, match="cache_mode"):
        Engine(g, k=1, cache_mode="sometimes")
    with pytest.raises(ValueError, match="cache_mode"):
        Engine(g, k=1, cache_mode="off")
    with pytest.raises(ValueError, match="at most one of seeds and rng_seed"):
        Engine(g, k=2, seeds=init_seeds(2, 4, 0), rng_seed=0)
    eng = Engine(g, k=2, rng_seed=0)
    assert eng.seeds == Engine(g, k=2, rng_seed=None).seeds == init_seeds(2, 4, 0)
    with pytest.raises(ValueError, match="not in graph"):
        eng.query((0, 3))
    with pytest.raises(ValueError, match="odd"):
        eng.is_in_matching((0, 1), 2)
    with pytest.raises(ValueError, match="odd"):
        eng.is_in_matching((0, 1), 5)


def test_size_parameters_must_be_integers():
    # A non-integer size fails where it is passed, not later inside the
    # seed draw as a TypeError.
    for n, d in ((5.5, 2), ("5", 2), (5, 2.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            Graph.from_edges(n, d, [(0, 1)])
    g = path_graph(4)
    bad = ({"k": 2.5}, {"k": "2"}, {"k": 1, "budget": "9"}, {"eps": 0.5, "budget": 9.0})
    for kwargs in bad:
        with pytest.raises(ValueError, match="must be an integer"):
            Engine(g, **kwargs)
    assert Engine(g, k=np.int64(2), budget=np.int32(9)).k == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: init_seeds(2, 64, None),
        lambda: gen_random_bounded(64, 3, None),
        lambda: init_seeds(2, 64, "7"),
        lambda: init_seeds(2, 64, -7),
        lambda: gen_random_bounded(64, 3, -7),
        lambda: gen_random_bounded(8.5, 3, 1),
        lambda: gen_random_bounded(8, 3.5, 1),
        lambda: init_seeds(2.5, 8, 0),
        lambda: init_seeds(2, 8.5, 0),
        lambda: Engine(path_graph(4), eps="0.5"),
    ],
    ids=[
        "seeds-none", "graph-seed-none", "seeds-str", "seeds-negative",
        "graph-seed-negative", "graph-n-float", "graph-d-float", "seeds-k-float",
        "seeds-n-float", "eps-str",
    ],
)
def test_library_sizes_and_seeds_are_checked(call):
    # random.Random would draw from the OS for None, hash a str and drop a
    # sign; a float size or a str eps used to fail later as a TypeError.
    with pytest.raises(ValueError):
        call()


def test_materialize_memo_sizes_are_pinned():
    # One entry per decision: an edge's membership at each phase, a vertex's
    # partner or a path's pick.  A key that lost its phase would merge
    # decisions and move this count.
    eng = Engine(gen_random_bounded(2048, 3, 7), k=3, rng_seed=3)
    eng.materialize()
    assert len(eng._memo) == 23_721


def test_stats_records_share_no_containers():
    a, b = Stats(), Stats()
    assert a == b == Stats(0, {}, [])
    assert a.f_by_phase is not b.f_by_phase
    assert a.relevant_set_sizes is not b.relevant_set_sizes
    a.f_by_phase[1] = 3
    a.relevant_set_sizes.append(2)
    assert b == Stats() != a
    assert Stats(f_by_phase={1: 3}, relevant_set_sizes=[2]) == a


def test_records_copy_pickle_and_repr():
    g = gen_random_bounded(16, 3, 1)
    seeds = init_seeds(2, 16, 3)
    seed = seeds.phase(3)
    eng = Engine(g, k=2, seeds=seeds)
    eng.query(g.sorted_edges()[0])
    assert eng.last_stats.f > 0
    for record in (g, seed, seeds, tail_ccdf([1, 2, 2, 3]), eng.last_stats):
        twins = [copy.copy(record), copy.deepcopy(record)]
        twins += [pickle.loads(pickle.dumps(record, p)) for p in (0, pickle.DEFAULT_PROTOCOL)]
        for twin in twins:
            assert type(twin) is type(record) and twin == record

    # Unpickling calls what the seed reduces to, so a pickle whose copies
    # differ in degree is refused like a direct call.
    class Forged:
        def __reduce__(self):
            rebuild, args = seed.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[:2]
            return rebuild, tuple(((1, 2), (3,)) if a is seed.copies else a for a in args)

    with pytest.raises(ValueError, match="one degree"):
        pickle.loads(pickle.dumps(Forged()))
    assert "copies" not in repr(seed) and f"modulus={seed.modulus}" in repr(seed)
    assert "f=0" in repr(Stats())


def test_malformed_edge_and_phase_raise_value_error():
    # The edge set matches 0.0 == 0, so a float endpoint used to pass the
    # membership check and fail later as a TypeError on indexing.
    g = gen_random_bounded(64, 3, 1)
    eng = Engine(g, k=2)
    assert g.has_edge(0, 34)
    for bad in ((0.0, 34), (0, "34"), (0, None), 34):
        with pytest.raises(ValueError, match="pair of integers"):
            eng.query(bad)
        with pytest.raises(ValueError, match="pair of integers"):
            eng.is_in_matching(bad, 3)
    for bad in (3.0, 1.5, "3", None):
        with pytest.raises(ValueError, match="phase length must be an integer"):
            eng.is_in_matching((0, 34), bad)
    for bad in (-1, 0, 2, 2 * eng.k + 1):
        with pytest.raises(ValueError, match="odd"):
            eng.is_in_matching((0, 34), bad)
    # numpy ints are integers.
    answer = eng.query((0, 34))
    assert eng.query((np.int64(0), np.int32(34))) == answer
    assert eng.is_in_matching((np.int64(34), 0), np.int64(3)) == answer
    # query is the top-phase probe.
    for e in g.sorted_edges():
        assert eng.query(e) == eng.is_in_matching(e, 2 * eng.k - 1)


def test_engine_seed_compatibility():
    g = path_graph(4)
    with pytest.raises(ValueError, match="seed set is for"):
        Engine(g, k=2, seeds=init_seeds(2, 9, 0))
    with pytest.raises(ValueError, match="no seed for phase"):
        Engine(g, k=2, seeds=init_seeds(1, 4, 0))
    # larger seed sets are fine, extra phases unused
    eng = Engine(g, k=1, seeds=init_seeds(3, 4, 0))
    assert eng.query((0, 1)) in (True, False)


def test_eps_to_k_rounding():
    g = path_graph(6)
    assert Engine(g, eps=1.0).k == 1
    assert Engine(g, eps=0.5).k == 2
    assert Engine(g, eps=1 / 3).k == 3
    assert Engine(g, eps=0.4).k == 3


def test_k_is_clamped_to_half_the_vertex_count():
    # phases longer than n - 1 hold no simple path, so a tiny eps on a tiny
    # graph must not draw seeds for millions of empty phases
    g = path_graph(3)
    start = time.perf_counter()
    eng = Engine(g, eps=1e-7, rng_seed=4)
    answers = [eng.query(e) for e in g.sorted_edges()]
    assert time.perf_counter() - start < 1.0
    assert eng.k == 1
    assert answers == [Engine(g, k=1, rng_seed=4).query(e) for e in g.sorted_edges()]
    with pytest.raises(ValueError, match="odd"):
        eng.is_in_matching((0, 1), 3)
    assert Engine(path_graph(7), k=10).k == 3
    assert Engine(path_graph(2), k=5).k == 1
    # nor a tiny eps on a graph with many vertices but few edges: a phase
    # longer than m edges holds no path either
    g = Graph.from_edges(96, 1, [(0, 1)])
    start = time.perf_counter()
    eng = Engine(g, eps=0.001, rng_seed=4)
    assert eng.query((0, 1))
    assert time.perf_counter() - start < 1.0
    assert eng.k == 1


def test_eps_must_be_finite_and_an_overflowing_inverse_clamps_k():
    g = path_graph(3)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            Engine(g, eps=bad)
    # 1 / 1e-320 overflows to inf; it asks for more phases than the clamp allows
    assert Engine(g, eps=1e-320).k == 1
    assert Engine(path_graph(9), eps=1e-320).k == 4


def test_ranks_are_evaluated_lazily():
    g = gen_random_bounded(1024, 3, 1024)
    eng = Engine(g, k=2, rng_seed=1, cache_mode="per_query")
    for e in random.Random(2).sample(g.sorted_edges(), 50):
        eng.query(e)
    keys = list(eng._ranks.values())
    assert len(keys) > 100
    # full evaluation would give 80 bits (phase 1) or 160 bits (phase 3)
    assert sum(k.nbits for k in keys) / len(keys) <= 16


@st.composite
def engine_cases(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    return (
        gen_random_bounded(n, d, draw(st.integers(0, 10**6))),
        k,
        draw(st.sampled_from(("shared", "per_query"))),
        draw(st.integers(0, 10**6)),
    )


@settings(max_examples=300, deadline=None)
@given(engine_cases())
def test_materialize_matches_global_reference(case):
    g, k, cache_mode, rng_seed = case
    ss = init_seeds(k, g.vertex_count, rng_seed)
    eng = Engine(g, k=k, seeds=ss, cache_mode=cache_mode)
    assert eng.materialize() == abstract_distributed_mm(g, k, ss)


def test_per_query_refusals_do_not_depend_on_query_order():
    g = gen_random_bounded(1024, 3, 2024)
    ss = init_seeds(3, 1024, 11)
    edges = random.Random(12).sample(g.sorted_edges(), 80)
    refused_sets = []
    for order in (edges, edges[::-1]):
        eng = Engine(g, k=3, seeds=ss, cache_mode="per_query", budget=1500)
        refused = set()
        for e in order:
            try:
                eng.query(e)
            except BudgetExceededError:
                refused.add(e)
        refused_sets.append(refused)
    assert refused_sets[0] == refused_sets[1]
    assert 0 < len(refused_sets[0]) < len(edges)


def test_phase1_table_does_not_depend_on_query_history():
    # The per-engine table of rank-sorted lower neighbours outlives
    # per_query clears.  Per-query answers and work must not depend on which
    # earlier queries filled it: one engine forward, the same engine
    # backward, and a fresh engine per query agree, refusals included.
    g = gen_random_bounded(1024, 3, 1)
    ss = init_seeds(3, 1024, 1)
    sample = random.Random(3).sample(g.sorted_edges(), 40)

    def run(eng, e):
        try:
            answer = eng.query(e)
        except BudgetExceededError:
            answer = None
        s = eng.last_stats
        if answer is None:
            assert s.f == eng.budget + 1
        sizes = s.relevant_set_sizes
        return answer, s.f, sorted(s.f_by_phase.items()), len(sizes), sum(sizes)

    records = []
    for budget in (300, 1000):
        eng = Engine(g, k=3, seeds=ss, budget=budget, cache_mode="per_query")
        forward = [run(eng, e) for e in sample]
        backward = [run(eng, e) for e in reversed(sample)][::-1]
        fresh = [
            run(Engine(g, k=3, seeds=ss, budget=budget, cache_mode="per_query"), e)
            for e in sample
        ]
        assert forward == backward == fresh
        assert 0 < sum(r[0] is None for r in forward) < len(sample)
        records.append(forward)
    # Answers computed before the table existed, when every phase-1 decision
    # went through the general path search; f re-derived when the path search
    # began to follow partners, whose scan stops at the matched edge, and
    # again when the end test began at phase 1 and the partner scan at the
    # previous phase's partner, and again when f became one unit per partner
    # question and per phase-1 decision.
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == "0c721a666f86c21c"


# sha256 of repr(fs), the per-query f over the 50-edge sample, by n: sum
# 17,726, max 2,078 at n=1024; sum 1,590, max 258 at n=4096.
_PINNED_F_DIGESTS = {1024: "a702c21ac3306f4e", 4096: "8751f771248e76ad"}


@pytest.mark.parametrize(
    "n, seed, k, digest",
    [
        # sha256 of repr(sorted(matching)), pinned from an engine that
        # enumerated every path and filtered augmenting ones afterwards.
        (1024, 1, 3, "b8ff195137863748"),
        (4096, 2, 2, "cf9784c1931235b6"),
    ],
)
def test_benchmark_scale_matching_is_pinned(n, seed, k, digest):
    g = gen_random_bounded(n, 3, seed)
    eng = Engine(g, k=k)
    m = eng.materialize()
    assert hashlib.sha256(repr(sorted(m)).encode()).hexdigest()[:16] == digest
    assert m == abstract_distributed_mm(g, k, eng.seeds)
    sample = random.Random(seed).sample(g.sorted_edges(), 50)
    per_query = Engine(g, k=k, cache_mode="per_query")
    answers, fs = [], []
    for e in sample:
        answers.append(per_query.query(e))
        fs.append(per_query.last_stats.f)
    assert answers == [e in m for e in sample]
    # f is the budget unit: a change to what it counts moves refusals.
    assert hashlib.sha256(repr(fs).encode()).hexdigest()[:16] == _PINNED_F_DIGESTS[n]


def _tracer_layers() -> dict:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_queries_reach_the_enumerators_through_module_globals(monkeypatch):
    # perfbench/layertrace.py times the layers by swapping the lca globals
    # it lists in LAYERS and reads the Stats fields below; a query that
    # bypassed them would leave the benchmark trace blind, and a name
    # missing from lca would stop the benchmark.
    for name in _tracer_layers():
        assert callable(getattr(lca, name)), name
    assert lca.greedy_mis is oracles.greedy_mis
    assert lca.intersection_edges is oracles.intersection_edges
    calls = collections.Counter()
    for name in ("iter_intersecting", "paths_through_edge"):

        def counted(*args, _fn=getattr(lca, name), _name=name, **kwargs):
            # Every engine enumeration follows the previous phase's partners.
            assert callable(kwargs["mate"])
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(lca, name, counted)
    eng = Engine(gen_random_bounded(64, 3, 5), k=3)
    eng.query(eng.graph.sorted_edges()[0])
    assert calls["iter_intersecting"] > 0
    assert calls["paths_through_edge"] > 0
    s = eng.last_stats
    assert s.f == sum(s.f_by_phase.values()) > 0
    assert s.relevant_set_sizes
