"""Time lcamatch set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py GRAPH_FILE ENGINE_KWARGS_JSON

Imports ``lcamatch`` (taken from ``PYTHONPATH``), loads the graph file the
way the CLI does, builds an ``Engine`` and prints one JSON object with the
three phase times in seconds.  ``run.py`` starts this script once per
set-up sample, so every import is a fresh one.
"""

import json
import sys
import time

t0 = time.perf_counter()
import lcamatch  # noqa: E402

t1 = time.perf_counter()
with open(sys.argv[1], "r", encoding="utf-8") as fh:
    graph = lcamatch.load_graph(fh)
t2 = time.perf_counter()
lcamatch.Engine(graph, **json.loads(sys.argv[2]))
t3 = time.perf_counter()

print(json.dumps({
    "module": lcamatch.__file__,
    "import_s": t1 - t0,
    "load_s": t2 - t1,
    "init_seeds_s": t3 - t2,
}))
