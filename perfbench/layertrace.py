"""Outside-in layer trace of lcamatch queries.

The query engine in ``lcamatch.lca`` reaches every other layer through five
module globals.  :class:`Tracer` swaps each for a timing wrapper while a
traced pass runs and puts the originals back afterwards, so the engine's
source is never edited.

Spans: one per query, plus one child span per (query, layer) that sums all
of that layer's calls made by the query.  Leaf layers such as ``rank`` and
``iter_intersecting`` run thousands of times per query, so aggregating keeps
the trace small enough to hold in memory for a whole run.

A layer's busy time excludes wrapped calls nested inside it (``greedy_mis``
calls ``rank`` through the engine's rank key), so the layer times of a
query plus its self time add up to the query span.
"""

from __future__ import annotations

import operator
import time
from contextlib import contextmanager

# lcamatch.lca global -> layer metric prefix.
LAYERS = {
    "rank": "ordering.rank",
    "iter_intersecting": "paths.intersecting",
    "paths_through_edge": "paths.through_edge",
    "greedy_mis": "lca.greedy_mis",
    "intersection_edges": "lca.intersection_edges",
}

# Layers whose return value is a collection of paths worth counting.
_COUNTED = ("iter_intersecting", "paths_through_edge")


class Tracer:
    """Collects query spans and per-layer child spans in memory."""

    def __init__(self, lca_module) -> None:
        self._lca = lca_module
        self.query_spans: list[tuple] = []  # (qid, start_s, end_s, outcome)
        self.child_spans: list[tuple] = []  # (qid, layer, calls, busy_s, out)
        self._acc: dict[str, list] | None = None
        self._nested: list[float] = []
        self._covered = 0.0
        self.self_s = 0.0  # query span time not covered by any layer

    @contextmanager
    def installed(self):
        """Wrap the engine's layer globals; always restore them on exit."""
        originals = {name: getattr(self._lca, name) for name in LAYERS}
        try:
            for name, fn in originals.items():
                setattr(self._lca, name, self._wrap(name, fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(self._lca, name, fn)

    def _wrap(self, name: str, fn):
        nested = self._nested
        counted = name in _COUNTED

        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                inner = nested.pop()
                if nested:
                    nested[-1] += dt
                else:
                    self._covered += dt
                acc = self._acc[name]
                acc[0] += 1
                acc[1] += dt - inner
            if counted:
                # iter_intersecting returns a set iterator: length_hint reads
                # its size without consuming it.
                acc[2] += operator.length_hint(res)
            return res

        return wrapper

    def begin_query(self) -> None:
        self._acc = {name: [0, 0.0, 0] for name in LAYERS}
        self._covered = 0.0

    def end_query(self, qid: int, start: float, end: float, outcome) -> None:
        self.query_spans.append((qid, start, end, outcome))
        self.self_s += (end - start) - self._covered
        for name, (calls, busy, out) in self._acc.items():
            if calls:
                self.child_spans.append((qid, LAYERS[name], calls, busy, out))
        self._acc = None

    def layer_totals(self) -> dict[str, list]:
        """Per layer prefix: [calls, busy_s, out] summed over all spans."""
        totals = {prefix: [0, 0.0, 0] for prefix in LAYERS.values()}
        for _qid, layer, calls, busy, out in self.child_spans:
            t = totals[layer]
            t[0] += calls
            t[1] += busy
            t[2] += out
        return totals
