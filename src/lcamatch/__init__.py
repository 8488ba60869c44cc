"""Local computation of approximate maximum matchings on bounded-degree graphs."""

from .graph import Graph, GraphFormatError, gen_random_bounded, load_graph, mk_edge
from .lca import DEFAULT_BUDGET, BudgetExceededError, Engine, Stats
from .ordering import (
    Seed,
    SeedSet,
    init_seeds,
    rank,
    seedset_from_blob,
    seedset_to_blob,
)
from .paths import PathKey, canonical_key, paths_through_edge
from .querytree import TailEstimate, TreeSample, simulate_query_tree, tail_ccdf

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphFormatError",
    "gen_random_bounded",
    "load_graph",
    "mk_edge",
    "Engine",
    "Stats",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "Seed",
    "SeedSet",
    "init_seeds",
    "rank",
    "seedset_to_blob",
    "seedset_from_blob",
    "PathKey",
    "canonical_key",
    "paths_through_edge",
    "TreeSample",
    "TailEstimate",
    "simulate_query_tree",
    "tail_ccdf",
    "__version__",
]
