"""Command-line front end.

Usage:
    lcamatch query --graph FILE --eps EPS --edge "u v" [--verbose]
        [--rng-seed S | --seed-blob HEX|@FILE]
    lcamatch materialize --graph FILE --eps EPS [--format text|records]
        [--rng-seed S | --seed-blob HEX|@FILE]
    lcamatch bench --n 256,1024 --d 3 --eps 0.5 --trials 3 [--queries 50]
        [--budget B] [--rng-seed S]

Every command is deterministic given its seed: --rng-seed, 0 when not given,
or --seed-blob.  Only query and materialize take --seed-blob: bench draws
graphs of several sizes, so no one seed set fits it.  Answers go to stdout;
query --verbose writes its work record to stderr.

Work counters (query --verbose, bench records): ``f`` counts work units, the
budgeted unit: one per question about a vertex's partner after some phase,
memoized or not, and one per phase-1 decision computed.  Path enumeration
asks a partner at every matched step, so ``f`` bounds a query's time.  Each
greedy-MIS decision computed for an augmenting path has a size: 1 plus the
lower-ranked augmenting neighbours it scanned before it was settled.

query --verbose prints one JSON object: ``f``, ``f_by_phase``, ``decisions``
(the MIS decisions the query made), ``relevant_max`` (their largest size)
and ``wall_time`` (seconds, timed around the call by the CLI).  A query the
budget refuses prints its record too, with ``f == budget + 1``, before the
error line.

bench prints one JSON record per trial.  It samples ``--queries`` edges per
trial, each queried with a fresh per-query memo.  A query that ``--budget``
refuses counts in ``refused``; its ``f`` (``budget + 1``) enters
``f_mean``/``f_max`` and nothing else.  Over the answered queries,
``decisions_max`` is the most MIS decisions one query made, and
``tail_slope``/``tail_r_squared`` fit ``log Pr[decisions >= N]``
(``querytree.tail_ccdf``; null when too few queries reach the tail).
``valid`` and ``no_short_augmenting_path`` check a full ``materialize()``
under the default budget: the matching does not depend on the budget.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Iterator

from .graph import GraphFormatError, gen_random_bounded, load_graph
from .lca import DEFAULT_BUDGET, BudgetExceededError, Engine
from .ordering import seedset_from_blob
from .querytree import tail_ccdf


def _edge_arg(text: str) -> tuple[int, int]:
    parts = text.split()
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"edge must be 'u v', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"edge endpoints must be integers: {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")
    return values


def _blob_file_pieces(path: str) -> Iterator[str]:
    # seedset_from_blob inflates piece by piece, so a file that is not a
    # blob (say /dev/zero) is refused at its first chunk, not read whole.
    with open(path, "r", encoding="ascii") as fh:
        while chunk := fh.read(1 << 16):
            yield chunk


def _load_graph_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh)


def _build_engine(args: argparse.Namespace, g) -> Engine:
    blob, seeds = args.seed_blob, None
    if blob is not None:
        # Hex never starts with "@".  A file carries blobs too long for one
        # command-line argument (the kernel caps those at 128 KiB).
        seeds = seedset_from_blob(
            _blob_file_pieces(blob[1:]) if blob.startswith("@") else blob
        )
    return Engine(g, eps=args.eps, seeds=seeds, rng_seed=args.rng_seed, budget=args.budget)


def _certify(g, matching: frozenset[tuple[int, int]], k: int) -> tuple[bool, bool]:
    """Whether ``matching`` is vertex-disjoint, and whether it also leaves no
    augmenting path of at most ``2k - 1`` edges (exhaustive search)."""
    from .oracles import find_augmenting_path, verify_matching  # not for query

    valid = verify_matching(g, matching)
    return valid, valid and find_augmenting_path(g, matching, 2 * k - 1) is None


def cmd_query(args: argparse.Namespace) -> int:
    g = _load_graph_file(args.graph)
    engine = _build_engine(args, g)
    start = time.perf_counter()
    try:
        answer = engine.query(args.edge)
    finally:
        # A refused query's record too, ahead of main's error line; an
        # invalid edge leaves none.
        wall_time = time.perf_counter() - start
        s = engine.last_stats
        if args.verbose and s is not None:
            import json  # a plain query starts without it

            sizes = s.relevant_set_sizes
            record = {"f": s.f, "f_by_phase": s.f_by_phase, "decisions": len(sizes),
                      "relevant_max": max(sizes, default=0), "wall_time": wall_time}
            print(json.dumps(record, sort_keys=True), file=sys.stderr)
    print("true" if answer else "false")
    return 0


def cmd_materialize(args: argparse.Namespace) -> int:
    import json  # materialize and bench only: query starts without them

    g = _load_graph_file(args.graph)
    engine = _build_engine(args, g)
    found = engine.materialize()
    matching = sorted(found)
    valid, no_short = _certify(g, found, engine.k)
    summary = {
        "n": g.vertex_count,
        "edges": g.edge_count,
        "d": g.degree_bound,
        "k": engine.k,
        "size": len(matching),
        "valid": valid,
        "checked_length": 2 * engine.k - 1,
        "no_short_augmenting_path": no_short,
    }
    if args.format == "records":
        for u, v in matching:
            print(json.dumps({"type": "edge", "u": u, "v": v}, sort_keys=True))
        print(json.dumps({"type": "summary", **summary}, sort_keys=True))
    else:
        for u, v in matching:
            print(f"{u} {v}")
        for key, value in summary.items():
            print(f"{key}={json.dumps(value)}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import json
    import statistics  # bench only: query and materialize start without it

    for flag, value in (
        ("--trials", args.trials), ("--queries", args.queries), ("--rng-seed", args.rng_seed)
    ):
        if value < 0:
            raise ValueError(f"{flag} must not be negative, got {value}")
    base = args.rng_seed
    for n in args.n:
        for trial in range(args.trials):
            graph_seed = base * 1_000_003 + n * 1_009 + trial
            order_seed = graph_seed + 1
            g = gen_random_bounded(n, args.d, graph_seed)
            probe = Engine(g, eps=args.eps, rng_seed=order_seed, budget=args.budget,
                           cache_mode="per_query")
            k = probe.k
            edges = g.sorted_edges()
            picker = random.Random(order_seed)
            sample = (
                edges
                if len(edges) <= args.queries
                else picker.sample(edges, args.queries)
            )
            fs: list[int] = []
            decisions: list[int] = []
            decision_sizes: list[int] = []
            refused = 0
            for e in sample:
                try:
                    probe.query(e)
                except BudgetExceededError:
                    refused += 1
                else:
                    sizes = probe.last_stats.relevant_set_sizes
                    decisions.append(len(sizes))
                    decision_sizes.extend(sizes)
                fs.append(probe.last_stats.f)
            tail = tail_ccdf(decisions)
            matching = Engine(g, k=k, seeds=probe.seeds).materialize()
            valid, no_short = _certify(g, matching, k)
            record = {
                "trial": trial,
                "n": n,
                "d": args.d,
                "k": k,
                "graph_seed": graph_seed,
                "order_seed": order_seed,
                "edges": len(edges),
                "queries": len(sample),
                "refused": refused,
                "matching_size": len(matching),
                "valid": valid,
                "no_short_augmenting_path": no_short,
                "f_mean": round(statistics.fmean(fs), 3) if fs else 0.0,
                "f_max": max(fs, default=0),
                "relevant_mean": (
                    round(statistics.fmean(decision_sizes), 3) if decision_sizes else 0.0
                ),
                "relevant_max": max(decision_sizes, default=0),
                "decisions_max": max(decisions, default=0),
                "tail_slope": tail.slope,
                "tail_r_squared": tail.r_squared,
            }
            print(json.dumps(record, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcamatch",
        description="Per-edge membership queries for an approximate maximum matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags query and materialize share.
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--graph", required=True, help="edge-list file ('n m d' header)")
    engine.add_argument("--eps", type=float, required=True, help="approximation slack")
    engine.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    group = engine.add_mutually_exclusive_group()
    # Engine reads None as 0.  A default of 0 would let argparse take an
    # explicit "--rng-seed 0" for the default and allow --seed-blob with it.
    group.add_argument("--rng-seed", type=int, default=None,
                       help="integer seed (default 0)")
    group.add_argument("--seed-blob", type=str, default=None,
                       help="hex seed blob, or @FILE to read it from FILE")

    q = sub.add_parser("query", parents=[engine], help="answer one edge-membership query")
    q.add_argument("--edge", type=_edge_arg, required=True, help="edge as 'u v'")
    q.add_argument("--verbose", action="store_true",
                   help="the query's work record on stderr, as one JSON object")
    q.set_defaults(func=cmd_query)

    m = sub.add_parser("materialize", parents=[engine],
                       help="query every edge and print the matching")
    m.add_argument("--format", choices=("text", "records"), default="text")
    m.set_defaults(func=cmd_materialize)

    b = sub.add_parser(
        "bench",
        help="random-graph trials, one JSON record each: f_mean/f_max, "
             "relevant_mean/relevant_max over MIS decision sizes, refused "
             "queries, and the tail of MIS decisions per query",
    )
    b.add_argument("--n", type=_int_list, required=True, help="comma list of sizes")
    b.add_argument("--d", type=int, required=True, help="degree bound")
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--trials", type=int, default=1)
    b.add_argument("--queries", type=int, default=50, help="sampled queries per trial")
    b.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="per sampled query, refusals count in 'refused'; the "
                        "validity check uses the default, as the matching does "
                        "not depend on the budget")
    b.add_argument("--rng-seed", type=int, default=0, help="integer seed (default 0)")
    b.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, BudgetExceededError, ValueError, OSError, MemoryError) as exc:
        # A MemoryError from a failed allocation usually has no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
