"""Community-quality metrics for network partitions, with parallel backends.

The top-level names resolve lazily (PEP 562): ``commqual.X`` imports the
module that defines ``X`` on first use, so ``import commqual.graph`` loads
that module alone and not the engine, the metrics or the benchmark.
"""

from importlib import import_module

# the names each submodule exports at the top level
_EXPORTS = {
    "graph": (
        "Network", "NodeCommunityMap", "OverlapError", "ParseError",
        "Partition", "PartitionShard", "build_contingency", "load_edge_list",
        "parse_community_lines", "shard",
    ),
    "info_metrics": ("ContingencyTable", "InfoMetrics", "nats_to_bits"),
    "matching_metrics": ("MatchingMetrics",),
    "pair_metrics": (
        "DegenerateIndexError", "PairCounts", "PairMetrics",
        "adjusted_rand_index", "jaccard_index", "pair_stripe_partial",
        "rand_index",
    ),
    "intrinsic_metrics": (
        "CommunityRow", "CommunityStats", "IntrinsicReport",
        "community_measures", "community_stats",
    ),
    "engine": (
        "BackendConfig", "EngineError", "PhaseTiming", "RingMessage",
        "WorkerStats", "run_info_metrics", "run_intrinsic_metrics",
        "run_matching_metrics", "run_pair_metrics",
    ),
    "bench": (
        "GeneratorParams", "ScalingResult", "StudyError", "StudyRow",
        "generate_network", "perturb_partition", "run_scaling_study",
        "speedup_efficiency",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
