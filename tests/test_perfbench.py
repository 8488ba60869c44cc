import importlib.util
import subprocess
import sys
from pathlib import Path

import lcamatch.lca
from lcamatch import BudgetExceededError, Engine, gen_random_bounded


def test_benchmark_smoke_run_passes():
    # perfbench drives the engine through lca globals and Stats fields; an
    # engine change that drops one should fail here, not in a benchmark run.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "smoke.py")],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_names_perfbench_reads_by_lookup_exist():
    # perfbench reads the memo sizes through getattr(eng, name, ()) and wraps
    # lca globals by name, so a rename would read 0 or fail only in a traced
    # run; pin every name here.
    g = gen_random_bounded(64, 3, 1)
    eng = Engine(g, k=3, rng_seed=1)
    eng.materialize()
    assert len(eng._memo) > 0  # lca.memo_entries
    assert len(eng._ranks) > 0  # ordering.rank_cache_entries
    # run.py reads last_stats after a refusal too: it must be the refused
    # call's record, not the previous answer's.
    budget = 150
    eng = Engine(g, k=3, rng_seed=1, budget=budget, cache_mode="per_query")
    outcomes = set()
    for e in g.sorted_edges():
        try:
            eng.query(e)
            outcomes.add("answered")
        except BudgetExceededError:
            outcomes.add("refused")
            s = eng.last_stats
            assert s.f == budget + 1
            assert sum(s.f_by_phase.values()) == s.f
            assert isinstance(s.relevant_set_sizes, list)
    assert outcomes == {"answered", "refused"}
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for name in layertrace.LAYERS:
        assert callable(getattr(lcamatch.lca, name)), name
