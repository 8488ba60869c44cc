"""Smoke test of the benchmark itself, on toy-sized graphs (well under a minute).

    python3 perfbench/smoke.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that traced and untraced runs give the same answer digest, that
the layer wrappers are gone after a traced run (also when the run fails),
and that the benchmark refuses to run without the lcamatch sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layertrace import LAYERS, Tracer  # noqa: E402


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {msg}")


def run_toy(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def check_output(workload: str, trace: int, bench: dict) -> str:
    result, report = run_toy(workload, trace)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    check(result["correct"] is True, f"{workload} trace={trace} not correct")
    check(result["attempted"] >= 1 and result["failed"] == 0, f"{workload}: attempted/failed")
    tracked = bench["per_layer" if trace else "end_to_end"]
    check(list(result["metrics"]) == [m["name"] for m in tracked], f"{workload}: metric names")
    for m in tracked:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{workload}: unit of {m['name']}")
        check(isinstance(got["value"], (int, float)), f"{workload}: value of {m['name']}")
    if not trace:
        for name, unit in run.REPORT_UNITS.items():
            if name == "materialize_edges_per_s" and not workload.startswith("materialize"):
                continue
            row = [ln.split() for ln in report.splitlines() if ln.split()[:1] == [name]]
            check(len(row) == 1 and row[0][2:] == [unit], f"{workload}: report row for {name}")
    check("rounds agree: True" in report, f"{workload}: rounds disagree")
    return report.split("answer digest ")[1].split()[0]


def check_wrappers_restored() -> None:
    lcamatch = run.load_lcamatch()
    originals = {name: getattr(lcamatch.lca, name) for name in LAYERS}
    inputs = run.make_inputs(lcamatch, {"mode": "query", "n": 64, "graphs": 1, "queries_per_graph": 8}, 3, 5)
    rounds = run.run_rounds(lcamatch, inputs, {"k": 2, "cache_mode": "per_query"}, 0.0, traced=True)
    check(any(r.tracer is not None and r.tracer.child_spans for r in rounds), "traced round recorded no spans")
    check(all(getattr(lcamatch.lca, n) is f for n, f in originals.items()), "wrappers left after a traced run")
    tracer = Tracer(lcamatch.lca)
    try:
        with tracer.installed():
            check(lcamatch.lca.rank is not originals["rank"], "rank was not wrapped")
            raise KeyError("boom")
    except KeyError:
        pass
    check(all(getattr(lcamatch.lca, n) is f for n, f in originals.items()), "wrappers left after an error")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "query-k2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(), "ran without lcamatch sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in bench["workloads"]:
        untraced = check_output(w["name"], 0, bench)
        traced = check_output(w["name"], 1, bench)
        check(untraced == traced, f"{w['name']}: digest {untraced} untraced, {traced} traced")
        print(f"smoke: {w['name']} ok (digest {untraced})")
    check_wrappers_restored()
    check_refuses_without_sources()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
