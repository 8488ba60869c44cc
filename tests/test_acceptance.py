"""End-to-end acceptance checks.

One test per shipped guarantee, each ending in a single visible PASS line
with its headline numbers.  The matching-validity check near the middle
audits every matching the earlier tests materialized, so the module is
meant to run top to bottom (plain ``pytest`` does that).
"""

import collections
import itertools
import math
import random
import statistics
import time

import numpy as np
import pytest

from lcamatch.graph import Graph, gen_random_bounded
from lcamatch.lca import Engine
from lcamatch.oracles import (
    abstract_distributed_mm,
    find_augmenting_path,
    max_matching_bruteforce,
    verify_matching,
)
from lcamatch.ordering import eval_poly, init_seeds
from lcamatch.paths import iter_intersecting, paths_through_edge
from lcamatch.querytree import tail_ccdf

from conftest import (
    alternates,
    batch_primary_ranks,
    brute_paths_through_edge,
    mate_of,
    random_matching,
    simple_paths,
    small_corpus,
)

# Everything materialized by the first four tests, audited by the fifth.
MATERIALIZED: dict[str, tuple[Graph, frozenset]] = {}


def _register(tag: str, g: Graph, m) -> None:
    MATERIALIZED[tag] = (g, frozenset(m))


def _report(capsys, idx: int, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {idx} {name}: PASS ({detail})")


def _bounded_small_graphs(count: int, rng: random.Random) -> list[Graph]:
    """Random graphs with 8..14 vertices, degree <= 4, at most 24 edges."""
    graphs = []
    gen = 1000
    while len(graphs) < count:
        n = rng.randrange(8, 15)
        d = rng.randrange(2, 5)
        g = gen_random_bounded(n, d, gen)
        gen += 1
        if 1 <= g.edge_count <= 24:
            graphs.append(g)
    return graphs


def test_1_approximation_ratio(capsys):
    start = time.perf_counter()
    graphs = _bounded_small_graphs(50, random.Random(1))
    runs = 0
    worst = 1.0
    for gi, g in enumerate(graphs):
        opt, _ = max_matching_bruteforce(g)
        for k in (1, 2, 3):
            floor = -(-(k - 1) * opt // k)  # ceil((1 - 1/k) * opt)
            for seed in range(5):
                eng = Engine(g, k=k, rng_seed=seed)
                m = eng.materialize()
                _register(f"c1/g{gi}/k{k}/s{seed}", g, m)
                assert len(m) >= floor, (
                    f"graph {gi} k={k} seed={seed}: got {len(m)}, "
                    f"need {floor} of optimum {opt}"
                )
                if opt:
                    worst = min(worst, len(m) / opt)
                runs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(capsys, 1, "approximation-ratio",
            f"{runs} runs, worst ratio {worst:.3f}, {elapsed:.1f}s")


def test_2_no_short_augmenting_path(capsys):
    start = time.perf_counter()
    combos = [(n, d) for n in (50, 200, 1000) for d in (3, 4, 5)]
    runs = 0
    for i in range(20):
        n, d = combos[i % len(combos)]
        g = gen_random_bounded(n, d, 4000 + i)
        for k in (1, 2, 3):
            eng = Engine(g, k=k, rng_seed=k)
            m = eng.materialize()
            _register(f"c2/g{i}/k{k}", g, m)
            horizon = 2 * k - 1
            witness = find_augmenting_path(g, m, horizon)
            assert witness is None, (
                f"n={n} d={d} k={k}: augmenting path of length "
                f"{len(witness) - 1} remained"
            )
            runs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(capsys, 2, "no-short-augmenting-path",
            f"{runs} runs up to n=1000, {elapsed:.1f}s")


def test_3_local_global_equivalence(capsys):
    start = time.perf_counter()
    corpus = small_corpus(min_instances=100, max_vertices=30)
    assert len(corpus) >= 100
    assert all(g.vertex_count <= 30 for g in corpus)
    compared = 0
    for gi, g in enumerate(corpus):
        n = max(2, g.vertex_count)
        d = max(1, g.degree_bound)
        for k in (1, 2, 3):
            for seed in range(10):
                ss = init_seeds(k, n, seed)
                local = Engine(g, k=k, seeds=ss).materialize()
                reference = abstract_distributed_mm(g, k, ss)
                for e in g.sorted_edges():
                    assert (e in local) == (e in reference), (
                        f"graph {gi} k={k} seed={seed}: disagreement on {e}"
                    )
                    compared += 1
                _register(f"c3/g{gi}/k{k}/s{seed}", g, local)
    elapsed = time.perf_counter() - start
    _report(capsys, 3, "local-global-equivalence",
            f"{len(corpus)} graphs x 3 k x 10 seeds, "
            f"{compared} edge comparisons, {elapsed:.1f}s")


def test_4_order_and_cache_independence(capsys):
    start = time.perf_counter()
    rng = random.Random(4)
    pairs = 0
    vectors = 0
    i = 0
    while pairs < 100:
        n = rng.randrange(6, 13)
        d = rng.randrange(2, 4)
        g = gen_random_bounded(n, d, 5000 + i)
        i += 1
        if g.edge_count == 0:
            continue
        k = 1 + pairs % 3
        ss = init_seeds(k, max(2, n), rng.randrange(1 << 30))
        edges = g.sorted_edges()
        baseline = None
        for perm_seed in range(5):
            order = list(edges)
            random.Random(perm_seed).shuffle(order)
            for mode in ("shared", "per_query"):
                eng = Engine(g, k=k, seeds=ss, budget=10**18, cache_mode=mode)
                answers = {e: eng.query(e) for e in order}
                vector = tuple(answers[e] for e in edges)
                if baseline is None:
                    baseline = vector
                assert vector == baseline, (
                    f"pair {pairs}: mode={mode} perm={perm_seed} diverged"
                )
                vectors += 1
        _register(f"c4/p{pairs}", g,
                  {e for e, keep in zip(edges, baseline) if keep})
        pairs += 1
    elapsed = time.perf_counter() - start
    _report(capsys, 4, "order-and-cache-independence",
            f"{pairs} (graph, seed) pairs, {vectors} answer vectors, "
            f"{elapsed:.1f}s")


def test_5_matching_validity(capsys):
    tags = set(MATERIALIZED)
    for prefix in ("c1/", "c2/", "c3/", "c4/"):
        assert any(t.startswith(prefix) for t in tags), (
            f"nothing registered under {prefix}; run the whole module in order"
        )
    for tag, (g, m) in MATERIALIZED.items():
        assert verify_matching(g, m), f"{tag}: materialized set is not a matching"
    _report(capsys, 5, "matching-validity",
            f"{len(MATERIALIZED)} materialized matchings audited")


def test_6_path_counting_bounds(capsys):
    # Each triple draws its own random matching, and both enumerators run
    # against it as the engine runs them.
    start = time.perf_counter()
    rng = random.Random(6)
    triples = 0
    oracle_checks = 0
    found = collections.Counter()
    gen = 6000
    while triples < 1000:
        n = rng.randrange(4, 13)
        d = rng.randrange(2, 6)
        g = gen_random_bounded(n, d, gen)
        gen += 1
        if g.edge_count == 0:
            continue
        dmax = max(g.degree(v) for v in range(n))
        e = rng.choice(g.sorted_edges())
        ell = rng.choice((1, 3, 5))
        matching = random_matching(g, random.Random(gen))
        mate = mate_of(g, matching)
        paths = paths_through_edge(g, e, ell, mate=mate)
        found[ell] += len(paths)
        edge_bound = ell * (dmax - 1) ** (ell - 1)
        assert len(paths) <= edge_bound
        if paths:
            p = rng.choice(paths)
            neighbors = sorted(iter_intersecting(g, p, mate=mate))
            assert len(neighbors) <= dmax * (ell + 1) * edge_bound
        if n <= 10:
            expected = brute_paths_through_edge(g, e, ell)
            assert paths == [q for q in expected if alternates(q, matching)]
            if paths:
                assert neighbors == [
                    q
                    for q in simple_paths(g, ell)
                    if q != p and alternates(q, matching) and set(q) & set(p)
                ]
            oracle_checks += 1
        triples += 1
    assert found[3] > 0 and found[5] > 0, found
    elapsed = time.perf_counter() - start
    _report(capsys, 6, "path-counting-bounds",
            f"{triples} triples, {oracle_checks} oracle comparisons, "
            f"alternating paths found by length {dict(sorted(found.items()))}, "
            f"{elapsed:.1f}s")


def _decision_tail(n: int, k: int, seed: int):
    """Decisions per query over 3000 sampled edges, and their tail fit."""
    g = gen_random_bounded(n, 3, seed)
    eng = Engine(g, k=k, rng_seed=seed, cache_mode="per_query")
    counts = []
    for e in random.Random(seed).sample(g.sorted_edges(), 3000):
        # Default budget: a refused query raises and fails the check.
        eng.query(e)
        counts.append(len(eng.last_stats.relevant_set_sizes))
    return statistics.fmean(counts), tail_ccdf(counts)


def test_7_query_tree_tail(capsys):
    # The query-tree bound: one query's decisions have an exponentially
    # decaying tail that does not grow with n.  At n=2048, k=3, phase 5 ranks
    # over a domain of 2048^6 = 2^66 >= 2^61, where encodings are folded into
    # the field.
    start = time.perf_counter()
    seed = 11
    details = []
    fits = {}
    for n, k in ((4096, 2), (16384, 2), (2048, 3)):
        mean, est = _decision_tail(n, k, seed)
        assert est.slope is not None and est.slope < 0, f"n={n} k={k}: slope {est.slope}"
        assert est.r_squared >= 0.9, f"n={n} k={k}: R^2 {est.r_squared:.4f}"
        fits[n, k] = mean, est.slope
        details.append(f"n={n} k={k} slope={est.slope:.4f} R2={est.r_squared:.3f} "
                       f"mean={mean:.1f}")
    (mean_small, slope_small), (mean_large, slope_large) = fits[4096, 2], fits[16384, 2]
    assert abs(slope_large - slope_small) <= 0.25 * abs(slope_small), fits
    assert mean_large <= 1.25 * mean_small, fits
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(capsys, 7, "query-tree-tail", "; ".join(details) + f", {elapsed:.1f}s")


def test_8_query_cost_scaling(capsys):
    start = time.perf_counter()
    sizes = (2**8, 2**10, 2**12, 2**14)
    max_f = {}
    for n in sizes:
        g = gen_random_bounded(n, 3, 8000 + n)
        ss = init_seeds(2, n, 8)
        eng = Engine(g, k=2, seeds=ss, cache_mode="per_query")
        edges = g.sorted_edges()
        sample = random.Random(80 + n).sample(edges, min(200, len(edges)))
        worst = 0
        for e in sample:
            eng.query(e)
            worst = max(worst, eng.last_stats.f)
        max_f[n] = worst
    ratio = max_f[sizes[-1]] / max_f[sizes[0]]
    linear_ratio = sizes[-1] / sizes[0]
    assert ratio < linear_ratio * 0.1, (
        f"max f grew by {ratio:.1f}x across a {linear_ratio}x size range"
    )
    # report how the worst query cost tracks a power of log n
    xs = np.log([math.log(n) for n in sizes])
    ys = np.log([max_f[n] for n in sizes])
    exponent, offset = np.polyfit(xs, ys, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(capsys, 8, "query-cost-scaling",
            f"max f {[max_f[n] for n in sizes]} for n {list(sizes)}, "
            f"ratio {ratio:.2f} < {linear_ratio * 0.1:.1f}, "
            f"fit f ~ {math.exp(offset):.2f}*(ln n)^{exponent:.2f}, "
            f"{elapsed:.1f}s")


def test_9_ordering_uniformity_and_collisions(capsys):
    # every degree-1 polynomial pair value is hit exactly once across the
    # 49 coefficient choices, for every pair of distinct evaluation points
    modulus = 7
    for x, y in itertools.permutations(range(modulus), 2):
        seen = {}
        for a0 in range(modulus):
            for a1 in range(modulus):
                pair = (
                    eval_poly((a0, a1), x, modulus),
                    eval_poly((a0, a1), y, modulus),
                )
                assert pair not in seen, f"seed collision at points ({x},{y})"
                seen[pair] = (a0, a1)
        assert len(seen) == modulus * modulus

    # primary ranks collide for only a tiny fraction of seed draws
    g = gen_random_bounded(50, 4, 9000)
    all_paths = simple_paths(g, 3)
    assert len(all_paths) > 100
    collisions = 0
    trials = 1000
    for s in range(trials):
        seed = init_seeds(2, 50, s).phase(3)
        ranks = batch_primary_ranks(all_paths, seed)
        if len(set(ranks)) < len(all_paths):
            collisions += 1
    fraction = collisions / trials
    assert fraction <= 0.05, f"collision fraction {fraction:.3f}"
    _report(capsys, 9, "ordering-uniformity-and-collisions",
            f"49/49 seed pairs uniform at modulus 7; "
            f"{collisions}/{trials} seeds with any rank collision on "
            f"{len(all_paths)} paths")
