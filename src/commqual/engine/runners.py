"""Metric evaluation across the sequential, shared-memory, and ring backends.

Every backend evaluates a family with the same kernel.  The extrinsic
families (info, matching, pair) reduce the contingency cells n_ij, which
worker p builds for the ground rows ``p::w`` with
:func:`~commqual.graph.contingency_rows` and reduces with the functions the
sequential path applies to the whole table.  The backends differ only in
where a worker's node -> detected label array comes from: ``shm`` workers
read the parent's copy-on-write, ``ring`` workers scatter their own detected
shard and each shard received over the ring.  The intrinsic family runs
:func:`~commqual.intrinsic_metrics.stats_from_labels` on the CSR rows of
communities ``p::w`` of the shared network under both ``shm`` and ``ring``:
no subgraph is built and no message is sent.

The parent writes the per-row or per-community partial results into arrays
indexed by id and reduces them as the sequential path does, so float
results are identical across backends and worker counts.

All entry points return ``(result, PhaseTiming)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..graph import (
    build_contingency, contingency_rows, scatter_labels, shard,
)
from ..info_metrics import (
    mi_row_terms, normalized_mutual_information, partition_entropy,
    variation_of_information, vi_row_terms,
)
from ..matching_metrics import MatchMaxima, f_measure, nvd
from ..pair_metrics import (
    PairCounts, adjusted_rand_index, choose2_sum, covered_labels,
    jaccard_index, pair_counts_fast, pair_counts_striped, rand_index,
)
from ..intrinsic_metrics import (
    IntrinsicReport, StatsTable, community_measures, intrinsic_report,
    modularity_density_terms, modularity_terms, node_labels, stats_from_labels,
)
from .transport import (
    RING, SEQ, BackendConfig, PhaseTiming, WorkerStats, run_workers,
)


@dataclass
class InfoMetrics:
    vi: float
    nmi: float


@dataclass
class MatchingMetrics:
    f_measure: float
    nvd: float


@dataclass
class PairMetrics:
    counts: PairCounts
    rand: float
    adjusted_rand: float
    jaccard: float


def _sequential_timing(compute_s):
    stats = WorkerStats(worker_id=0, total_s=compute_s, compute_s=compute_s)
    return PhaseTiming.from_workers([stats])


def _check_universe(ground, detected):
    if ground.universe_size != detected.universe_size:
        raise ValueError("partitions declare different universe sizes")


def _records_of(shard_obj):
    return list(zip(shard_obj.comm_ids.tolist(), shard_obj.communities))


def _circulated_labels(ctx, cols):
    """Node -> column id array and column sizes, scattered from this worker's
    own shard of ``cols`` and every shard received in one ring circulation."""
    records = _records_of(shard(cols, ctx.num_workers, ctx.worker_id))
    gathered = list(records)
    for _origin, foreign in ctx.circulate(records):
        gathered.extend(foreign)
    with ctx.compute():
        ids = [rid for rid, _ in gathered]
        members = [values for _, values in gathered]
        sizes = np.zeros(len(cols.communities), dtype=np.int64)
        sizes[ids] = [values.size for values in members]
        return scatter_labels(ids, members), sizes


def _own_rows(ctx, rows, cols, col_of):
    """This worker's row slice of the (rows x cols) contingency table.

    ``col_of`` is the parent's node -> column array; on the ring it is
    unused and the labels come from one circulation of the column shards.
    """
    col_sizes = cols.sizes
    if ctx.ring_enabled:
        col_of, col_sizes = _circulated_labels(ctx, cols)
    with ctx.compute():
        return contingency_rows(rows, col_of, col_sizes,
                                ctx.num_workers, ctx.worker_id)


def _run_family(worker, args, config):
    return run_workers(
        worker, args, config.num_workers,
        ring=config.backend == RING,
        channel_capacity=config.channel_capacity,
        timer_enabled=config.timer_enabled,
    )


def _gather_rows(out, key, num_rows, dtype=np.float64):
    """Per-row worker results, written back to one array indexed by row id."""
    w = len(out)
    full = np.zeros(num_rows, dtype=dtype)
    for p, (payload, _stats) in enumerate(out):
        full[p::w] = payload[key]
    return full


# ---------------------------------------------------------------------------
# Information-theoretic family
# ---------------------------------------------------------------------------


def _info_worker(ctx, ground, detected, detected_labels):
    w, p = ctx.num_workers, ctx.worker_id
    table = _own_rows(ctx, ground, detected, detected_labels)
    with ctx.compute():
        return {"vi": vi_row_terms(table)[p::w], "mi": mi_row_terms(table)[p::w]}


def run_info_metrics(ground, detected, config=None):
    """VI and NMI of detected against ground truth."""
    config = config or BackendConfig()
    _check_universe(ground, detected)
    n = ground.universe_size

    if config.backend == SEQ:
        t0 = time.perf_counter()
        table = build_contingency(ground, detected)
        result = InfoMetrics(
            vi=variation_of_information(table),
            nmi=normalized_mutual_information(table),
        )
        return result, _sequential_timing(time.perf_counter() - t0)

    out = _run_family(
        _info_worker, (ground, detected, detected.node_map().comm_of), config)
    k = len(ground.communities)
    vi_rows = _gather_rows(out, "vi", k)
    mi_rows = _gather_rows(out, "mi", k)
    h = partition_entropy(ground.sizes, n) + partition_entropy(detected.sizes, n)
    result = InfoMetrics(
        vi=-float(vi_rows.sum()) / n,
        nmi=1.0 if h == 0.0 else 2.0 * float(mi_rows.sum()) / h,
    )
    return result, PhaseTiming.from_workers([s for _, s in out])


# ---------------------------------------------------------------------------
# Best-match family
# ---------------------------------------------------------------------------


def _matching_worker(ctx, ground, detected, detected_labels):
    m = MatchMaxima.from_contingency(
        _own_rows(ctx, ground, detected, detected_labels))
    if ctx.ring_enabled:
        # phase 2: own detected columns against every circulated ground shard
        cols = MatchMaxima.from_contingency(_own_rows(ctx, detected, ground, None))
        m = MatchMaxima(m.max_normed, m.max_t, cols.max_t)
    return {"max_normed": m.max_normed, "max_t": m.max_t, "max_d": m.max_d}


def run_matching_metrics(ground, detected, config=None):
    """F-measure and normalized Van Dongen distance."""
    config = config or BackendConfig()
    _check_universe(ground, detected)
    n = ground.universe_size

    if config.backend == SEQ:
        t0 = time.perf_counter()
        m = MatchMaxima.from_contingency(build_contingency(ground, detected))
        result = MatchingMetrics(
            f_measure=f_measure(m, ground.sizes, n),
            nvd=nvd(m, n),
        )
        return result, _sequential_timing(time.perf_counter() - t0)

    out = _run_family(
        _matching_worker, (ground, detected, detected.node_map().comm_of), config)
    merged = MatchMaxima.empty(len(ground.communities), len(detected.communities))
    for payload, _stats in out:
        merged = merged.merge(MatchMaxima(
            payload["max_normed"], payload["max_t"], payload["max_d"]))
    result = MatchingMetrics(
        f_measure=f_measure(merged, ground.sizes, n),
        nvd=nvd(merged, n),
    )
    return result, PhaseTiming.from_workers([s for _, s in out])


# ---------------------------------------------------------------------------
# Pair-counting family
# ---------------------------------------------------------------------------


def _pair_worker(ctx, ground, detected, detected_labels):
    w, p = ctx.num_workers, ctx.worker_id
    table = _own_rows(ctx, ground, detected, detected_labels)
    with ctx.compute():
        return {"a11": choose2_sum(table.counts),
                "row_pairs": choose2_sum(ground.sizes[p::w]),
                "col_pairs": choose2_sum(detected.sizes[p::w])}


def _pair_brute_worker(ctx, ground_comm_of, detected_comm_of, universe_size):
    from ..graph import NodeCommunityMap
    w, p = ctx.num_workers, ctx.worker_id
    with ctx.compute():
        m1 = NodeCommunityMap(ground_comm_of, universe_size)
        m2 = NodeCommunityMap(detected_comm_of, universe_size)
        counts = pair_counts_striped(m1, m2, num_stripes=w, stripe_id=p)
    return {"a11": counts.a11, "a10": counts.a10,
            "a01": counts.a01, "a00": counts.a00}


def run_pair_metrics(ground, detected, config=None, method="fast"):
    """Pair confusion counts and the Rand, adjusted Rand, Jaccard indices.

    ``method="bruteforce"`` switches the seq and shm backends to the striped
    all-pairs scan (the ring backend rejects it).
    """
    config = config or BackendConfig()
    _check_universe(ground, detected)
    if method not in ("fast", "bruteforce"):
        raise ValueError(f"unknown pair-counting method {method!r}")
    gmap, dmap = ground.node_map(), detected.node_map()
    covered_labels(gmap, dmap)
    n = ground.universe_size

    if config.backend == SEQ:
        t0 = time.perf_counter()
        if method == "bruteforce":
            counts = pair_counts_striped(gmap, dmap)
        else:
            counts = pair_counts_fast(build_contingency(ground, detected))
        return _pair_result(counts), _sequential_timing(time.perf_counter() - t0)

    if method == "bruteforce":
        if config.backend == RING:
            raise ValueError("the ring backend has no brute-force mode")
        out = run_workers(
            _pair_brute_worker, (gmap.comm_of, dmap.comm_of, n),
            config.num_workers, timer_enabled=config.timer_enabled)
        counts = PairCounts(0, 0, 0, 0)
        for payload, _stats in out:
            counts = counts + PairCounts(payload["a11"], payload["a10"],
                                         payload["a01"], payload["a00"])
        return _pair_result(counts), PhaseTiming.from_workers([s for _, s in out])

    out = _run_family(_pair_worker, (ground, detected, dmap.comm_of), config)
    a11, row_pairs, col_pairs = (sum(payload[key] for payload, _ in out)
                                 for key in ("a11", "row_pairs", "col_pairs"))
    counts = PairCounts.from_pair_totals(a11, row_pairs, col_pairs, n)
    return _pair_result(counts), PhaseTiming.from_workers([s for _, s in out])


def _pair_result(counts):
    return PairMetrics(
        counts=counts,
        rand=rand_index(counts),
        adjusted_rand=adjusted_rand_index(counts),
        jaccard=jaccard_index(counts),
    )


# ---------------------------------------------------------------------------
# Intrinsic family
# ---------------------------------------------------------------------------


def _intrinsic_worker(ctx, network, partition, comm_of):
    w, p = ctx.num_workers, ctx.worker_id
    m = network.edge_count
    with ctx.compute():
        sh = shard(partition, w, p)
        table = stats_from_labels(network, comm_of, sh.comm_ids, sh.communities)
        return {"q": modularity_terms(table, m),
                "qds": modularity_density_terms(table, m, sizes=partition.sizes),
                "in": table.in_edges, "out": table.out_edges,
                "unassigned": table.unassigned_edges}


def run_intrinsic_metrics(network, partition, config=None):
    """Modularity, modularity density, and the per-community measures."""
    config = config or BackendConfig()
    if partition.label_space > network.node_count:
        raise ValueError("partition references nodes beyond the network")
    if network.edge_count <= 0:
        raise ValueError("network has no edges")

    if config.backend == SEQ:
        t0 = time.perf_counter()
        report = intrinsic_report(network, partition)
        return report, _sequential_timing(time.perf_counter() - t0)

    # every worker reads the network it needs from the shared CSR, so even
    # the ring backend opens no circulation
    out = run_workers(
        _intrinsic_worker, (network, partition, node_labels(network, partition)),
        config.num_workers, ring=False, timer_enabled=config.timer_enabled)
    k = len(partition.communities)
    columns = {key: _gather_rows(out, key, k, dtype)
               for key, dtype in (("q", np.float64), ("qds", np.float64),
                                  ("in", np.int64), ("out", np.int64),
                                  ("unassigned", np.int64))}
    empty = np.empty(0, dtype=np.int64)
    table = StatsTable(
        ids=np.arange(k, dtype=np.int64), size=partition.sizes,
        in_edges=columns["in"], out_edges=columns["out"],
        unassigned_edges=columns["unassigned"], ci=empty, cj=empty, cnt=empty)
    report = IntrinsicReport(
        q=math.fsum(columns["q"]), qds=math.fsum(columns["qds"]),
        total_edges=network.edge_count, rows=community_measures(table),
    )
    return report, PhaseTiming.from_workers([s for _, s in out])
