"""Community-quality metrics for network partitions, with parallel backends."""

from .graph import (
    Network,
    NodeCommunityMap,
    OverlapError,
    ParseError,
    Partition,
    PartitionShard,
    build_contingency,
    load_communities,
    load_edge_list,
    parse_community_lines,
    shard,
)
from .info_metrics import (
    ContingencyTable,
    nats_to_bits,
    normalized_mutual_information,
    variation_of_information,
)
from .matching_metrics import MatchMaxima, f_measure, nvd
from .pair_metrics import (
    DegenerateIndexError,
    PairCounts,
    adjusted_rand_index,
    jaccard_index,
    pair_counts_bruteforce,
    pair_counts_fast,
    pair_counts_striped,
    rand_index,
)
from .intrinsic_metrics import (
    CommunityRow,
    CommunityStats,
    IntrinsicReport,
    community_measures,
    community_stats,
    intrinsic_report,
    modularity,
    modularity_density,
)
from .engine import (
    BackendConfig,
    EngineError,
    InfoMetrics,
    MatchingMetrics,
    PairMetrics,
    PhaseTiming,
    RingMessage,
    WorkerStats,
    run_info_metrics,
    run_intrinsic_metrics,
    run_matching_metrics,
    run_pair_metrics,
)
from .bench import (
    GeneratorParams,
    ScalingResult,
    StudyError,
    StudyRow,
    generate_network,
    perturb_partition,
    run_scaling_study,
    speedup_efficiency,
)

__version__ = "0.1.0"
