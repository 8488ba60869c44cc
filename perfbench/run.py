"""Benchmark for the lcamatch query engine.

Run from the repository root:

    python3 perfbench/run.py --workload query-k2 --seed 1 --seconds 30 --trace 0

Workloads are defined in ``perfbench/workloads.json`` (parameters, why each
was chosen, which layer should move which metric).  From ``--seed`` the run
draws a few random bounded-degree graphs and, for query workloads, a sample
of distinct edges per graph.  The engine sees only the generated graphs.

Load is one closed-loop caller in this process, with no worker threads: the
next ``Engine.query`` starts only after the previous one returned.  A
*round* gives every graph a fresh engine and answers its sample (or calls
``materialize()`` once).  Rounds repeat on identical input until the next
one would end after ``--seconds``; at least one round always runs, and a
traced run alternates untraced and traced rounds.  Every round must produce
the same answer digest.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
listed in ``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics, measured by wrapping the engine's layer calls from outside (see
``layertrace.py``), and the spans are written to ``perfbench/out/``.  Lines
before it are a readable report with further figures (refusals, f_max,
sample counts, digests).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from layertrace import LAYERS, Tracer  # noqa: E402

# Figures printed in the report but not tracked in BENCHMARK.json, because
# they can be 0 or vary across seeds by more than a bound may allow; the
# reasons are in workloads.json ("tracking_note").
REPORT_UNITS = {
    "query_samples": "count",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "refused_frac": "ratio",
    "f_mean": "count",
    "f_max": "count",
    "materialize_edges_per_s": "1/s",
}


def load_lcamatch():
    """Import lcamatch from this checkout's sources, never an installed copy."""
    pkg = SRC / "lcamatch"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: lcamatch sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import lcamatch
    import lcamatch.lca
    import lcamatch.oracles

    if Path(lcamatch.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported lcamatch from {lcamatch.__file__}, not {pkg}")
    return lcamatch


def make_inputs(lcamatch, spec: dict, degree: int, seed: int) -> list:
    """(graph, edge sample or None) per graph; a pure function of the seed."""
    rng = random.Random(seed)
    inputs = []
    for _ in range(spec["graphs"]):
        g = lcamatch.gen_random_bounded(spec["n"], degree, rng.getrandbits(32))
        edges = None
        if spec["mode"] == "query":
            edges = rng.sample(g.sorted_edges(), min(spec["queries_per_graph"], g.edge_count))
        inputs.append((g, edges))
    return inputs


def time_setup(g, engine_kwargs: dict, repeats: int, tag: str) -> dict:
    """Median set-up phase times over ``repeats`` fresh interpreters."""
    from lcamatch.graph import dump_graph

    OUT.mkdir(exist_ok=True)
    path = OUT / f"graph-{tag}.txt"
    path.write_text(dump_graph(g), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(path), json.dumps(engine_kwargs)]
    samples = []
    try:
        # One extra start first, discarded: it may still be writing bytecode.
        for i in range(repeats + 1):
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True, timeout=120, check=True
            )
            sample = json.loads(proc.stdout.splitlines()[-1])
            if Path(sample["module"]).resolve().parent != (SRC / "lcamatch").resolve():
                sys.exit(f"perfbench: set-up probe imported {sample['module']}")
            if i:
                samples.append(sample)
    finally:
        path.unlink(missing_ok=True)
    parts = ("import_s", "load_s", "init_seeds_s")
    out = {key: statistics.median(s[key] for s in samples) for key in parts}
    out["setup_s"] = statistics.median(sum(s[key] for key in parts) for s in samples)
    return out


class Round:
    """What one pass over every input, each with a fresh engine, produced."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0
        self.latencies: list[tuple[bool, float]] = []  # (refused, seconds)
        self.f: list[int] = []
        self.f_by_phase: dict[int, int] = {}
        self.closures = 0
        self.closure_members = 0
        self.closure_max = 0
        self.memo_entries: list[int] = []
        self.rank_entries: list[int] = []
        self.errors: list[str] = []
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def end_pass(self, eng) -> None:
        self.memo_entries.append(len(getattr(eng, "_memo", ())))
        self.rank_entries.append(len(getattr(eng, "_ranks", ())))
        self._digest.update(b"|")

    def record(self, e, outcome, start: float, end: float, stats) -> None:
        self.latencies.append((outcome is None, end - start))
        self.f.append(stats.f)
        for ell, c in stats.f_by_phase.items():
            self.f_by_phase[ell] = self.f_by_phase.get(ell, 0) + c
        sizes = stats.relevant_set_sizes
        self.closures += len(sizes)
        self.closure_members += sum(sizes)
        self.closure_max = max([self.closure_max, *sizes])
        mark = "R" if outcome is None else int(outcome)
        self._digest.update(f"{e[0]}-{e[1]}:{mark};".encode())
        if self.tracer is not None:
            self.tracer.end_query(len(self.tracer.query_spans), start, end, outcome)


def run_pass(lcamatch, rnd: Round, g, edges, engine_kwargs: dict, check: bool) -> None:
    """One fresh engine over one graph, timed query by query."""
    eng = lcamatch.Engine(g, **engine_kwargs)
    answer = eng.query
    tracer = rnd.tracer
    answers: list[tuple[tuple[int, int], bool | None]] = []

    def timed_query(e):
        if tracer is not None:
            tracer.begin_query()
        outcome = None
        start = time.perf_counter()
        try:
            outcome = answer(e)
            return outcome
        finally:
            end = time.perf_counter()
            rnd.record(e, outcome, start, end, eng.last_stats)
            answers.append((e, outcome))

    start = time.perf_counter()
    if edges is None:
        # materialize() calls self.query per edge; the instance attribute
        # shadows the method so each of those calls is timed too.
        eng.query = timed_query
        matching = eng.materialize()
    else:
        for e in edges:
            try:
                timed_query(e)
            except lcamatch.BudgetExceededError:
                pass
    rnd.wall_s += time.perf_counter() - start
    rnd.end_pass(eng)

    chosen = [e for e, outcome in answers if outcome]
    covered = {v for e in chosen for v in e}
    if len(covered) != 2 * len(chosen):
        rnd.errors.append("two edges answered true share a vertex")
    if edges is None:
        if len(answers) != g.edge_count or set(chosen) != matching:
            rnd.errors.append("materialize() disagrees with its own per-edge queries")
        if check:
            check_matching(rnd, g, eng.k, matching)


def check_matching(rnd: Round, g, k: int, matching) -> None:
    from lcamatch.oracles import find_augmenting_path, verify_matching

    if not verify_matching(g, matching):
        rnd.errors.append("materialized edge set is not a matching")
        return
    witness = find_augmenting_path(g, matching, 2 * k - 1)
    if witness is not None:
        rnd.errors.append(f"augmenting path {tuple(witness)} of length <= {2 * k - 1} remains")


def run_rounds(lcamatch, inputs, engine_kwargs: dict, seconds: float, traced: bool) -> list[Round]:
    deadline = time.perf_counter() + seconds
    plan = [False, True] if traced else [False]
    rounds: list[Round] = []
    while True:
        cycle_start = time.perf_counter()
        for with_trace in plan:
            tracer = Tracer(lcamatch.lca) if with_trace else None
            rnd = Round(tracer)
            check = not rounds
            with tracer.installed() if tracer else contextlib.nullcontext():
                for g, edges in inputs:
                    run_pass(lcamatch, rnd, g, edges, engine_kwargs, check)
            rounds.append(rnd)
        now = time.perf_counter()
        if now + (now - cycle_start) > deadline:
            return rounds


def nearest_rank(ordered: list, p: float) -> float:
    return ordered[math.ceil(p * len(ordered)) - 1][1]


def end_to_end(rounds: list[Round], setup: dict, materialize: bool) -> dict:
    """Timings are medians over rounds, so a burst of load on the machine
    during one round does not move them; counts are the same in every round."""

    def timed(r: Round) -> dict:
        # A refused query ranks above every answered one (sort key refused-first).
        lat = sorted(r.latencies)
        return {
            "query_p50_ms": nearest_rank(lat, 0.50) * 1e3,
            "query_p95_ms": nearest_rank(lat, 0.95) * 1e3,
            "queries_per_s": len(lat) / r.wall_s,
        }

    per_round = [timed(r) for r in rounds]
    out = {name: statistics.median(t[name] for t in per_round) for name in per_round[0]}
    first = rounds[0]
    n = len(first.latencies)
    refused = sum(1 for refused, _ in first.latencies if refused)
    out.update({
        "query_samples": n * len(rounds),
        "answered_frac": (n - refused) / n,
        "refused_frac": refused / n,
        "f_mean": sum(first.f) / n,
        "f_max": max(first.f),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if materialize:
        out["materialize_edges_per_s"] = out["queries_per_s"]
    return out


def per_layer(rounds: list[Round], setup: dict, phases: list[int]) -> dict:
    traced = [r for r in rounds if r.tracer is not None]
    untraced = [r for r in rounds if r.tracer is None]

    def mean(fn):
        return statistics.fmean(fn(r) for r in traced)

    totals = [r.tracer.layer_totals() for r in traced]

    def layer(prefix: str, i: int):
        return statistics.fmean(t[prefix][i] for t in totals)

    rank_calls = layer("ordering.rank", 0)
    rank_s = layer("ordering.rank", 1)
    scanned = layer("paths.intersecting", 2)
    members = mean(lambda r: r.closure_members)
    closures = mean(lambda r: r.closures)
    out = {
        "lcamatch.import_s": setup["import_s"],
        "graph.load_s": setup["load_s"],
        "ordering.init_seeds_s": setup["init_seeds_s"],
        "ordering.rank_calls": rank_calls,
        "ordering.rank_s": rank_s,
        "ordering.rank_us_per_call": rank_s / rank_calls * 1e6 if rank_calls else 0.0,
        "ordering.rank_cache_entries": mean(lambda r: statistics.fmean(r.rank_entries)),
        "paths.intersecting_calls": layer("paths.intersecting", 0),
        "paths.intersecting_out": scanned,
        "paths.intersecting_s": layer("paths.intersecting", 1),
        "paths.through_edge_calls": layer("paths.through_edge", 0),
        "paths.through_edge_s": layer("paths.through_edge", 1),
        "lca.closures": closures,
        "lca.closure_size_mean": members / closures if closures else 0.0,
        "lca.closure_size_max": max(r.closure_max for r in traced),
        "lca.greedy_mis_s": layer("lca.greedy_mis", 1),
        "lca.intersection_edges_s": layer("lca.intersection_edges", 1),
        "lca.closure_yield": members / scanned if scanned else 0.0,
        "lca.self_s": mean(lambda r: r.tracer.self_s),
        "lca.query_s": mean(lambda r: sum(s[2] - s[1] for s in r.tracer.query_spans)),
        "lca.memo_entries": mean(lambda r: statistics.fmean(r.memo_entries)),
        "trace.overhead_frac": statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced)
        - 1.0,
    }
    for ell in phases:
        out[f"lca.f_by_phase.{ell}"] = mean(lambda r: r.f_by_phase.get(ell, 0) / len(r.f))
    return out


def write_trace(workload: str, seed: int, rounds: list[Round]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "query_span": ["qid", "start_s", "end_s", "outcome"],
        "child_span": ["qid", "layer", "calls", "busy_s", "out"],
        "rounds": [
            {"query_spans": r.tracer.query_spans, "child_spans": r.tracer.child_spans}
            for r in rounds
            if r.tracer is not None
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny graphs, for the smoke test")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in config["workloads"]:
        ap.error(f"unknown workload {args.workload!r}")
    spec = dict(config["workloads"][args.workload])
    setup_repeats = 5
    if args.toy:
        spec.update(config["toy"])
        setup_repeats = spec.pop("setup_repeats")

    lcamatch = load_lcamatch()
    inputs = make_inputs(lcamatch, spec, config["degree_bound"], args.seed)
    engine_kwargs = spec["engine"]
    setup = time_setup(inputs[0][0], engine_kwargs, setup_repeats, f"{args.workload}-seed{args.seed}")
    originals = {name: getattr(lcamatch.lca, name) for name in LAYERS}
    rounds = run_rounds(lcamatch, inputs, engine_kwargs, args.seconds, bool(args.trace))

    errors = [e for r in rounds for e in r.errors]
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        errors.append(f"rounds gave different answers: digests {sorted(digests)}")
    if args.trace:
        tracked = bench["per_layer"]
        phases = [
            int(m["name"].rsplit(".", 1)[1])
            for m in tracked
            if m["name"].startswith("lca.f_by_phase.")
        ]
        values = per_layer(rounds, setup, phases)
        trace_path = write_trace(args.workload, args.seed, rounds)
        for name, fn in originals.items():
            if getattr(lcamatch.lca, name) is not fn:
                errors.append(f"wrapper on lcamatch.lca.{name} was not removed")
    else:
        values = end_to_end([r for r in rounds if r.tracer is None], setup, spec["mode"] == "materialize")
        tracked = bench["end_to_end"]
        trace_path = None
    units = {m["name"]: m["unit"] for m in tracked}
    units.update(REPORT_UNITS)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} rounds {len(rounds)}")
    for name in sorted(values):
        print(f"  {name:30s} {values[name]:>16.6g} {units.get(name, '')}")
    agree = "traced and untraced rounds agree" if args.trace else "all rounds agree"
    print(f"  answer digest {rounds[0].digest} ({agree}: {len(digests) == 1})")
    if trace_path is not None:
        print(f"  trace written to {trace_path.relative_to(ROOT)}")
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    metrics = {}
    for m in tracked:
        # A metric missing from the computed values is a KeyError here,
        # so BENCHMARK.json and this file cannot drift apart silently.
        name = m["name"]
        metrics[name] = {"value": values[name], "unit": m["unit"]}
    attempted = sum(len(r.latencies) for r in rounds)
    result = {"correct": not errors, "attempted": attempted, "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
