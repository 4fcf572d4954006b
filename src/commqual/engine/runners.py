"""Metric evaluation across the sequential, shared-memory, and ring backends.

Every backend evaluates a family with the same worker code.  For the
extrinsic families (info, matching, pair) worker p builds the contingency
cells n_ij of the ground rows ``p::w`` with
:func:`~commqual.graph.build_contingency` and reduces them per row; ``seq``
is the one-worker run of that code, in process, whose single row slice is
the whole table.  The backends differ only in the worker count and in where
a worker's node -> detected label array comes from: ``seq`` and ``shm``
workers read the parent's (``shm`` copy-on-write), ``ring`` workers scatter
their own detected shard and each shard received in one circulation of the
ring.  The three comparison runners first move both partitions into one
dense label space 0..u-1 (:func:`_shared_labels`), so label-indexed arrays
and ring messages scale with the u nodes covered, whatever the int64 ids.
The intrinsic family runs
:func:`~commqual.intrinsic_metrics.stats_from_labels` on the CSR rows of
communities ``p::w`` of the shared network under both ``shm`` and ``ring``:
no subgraph is built and no message is sent.

The parent writes the per-row or per-community partial results into arrays
indexed by id and reduces them in one pass, as the intrinsic family's
sequential :func:`~commqual.intrinsic_metrics.intrinsic_report` does, so
float results are identical across backends and worker counts.

All entry points return ``(result, PhaseTiming)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..graph import build_contingency, rank_labels, scatter_labels, shard
from ..info_metrics import mi_row_terms, partition_entropy, vi_row_terms
from ..matching_metrics import MatchMaxima, f_measure, nvd
from ..pair_metrics import (
    PairCounts, adjusted_rand_index, choose2_sum, jaccard_index,
    pair_counts_striped, rand_index,
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


def _shared_labels(ground, detected):
    """The pair over one dense label space 0..u-1, u the number of labels
    either partition uses.  When no label reaches the larger covered count,
    that partition holds every label below it and the pair is already dense;
    otherwise both are ranked jointly, which keeps every set relation."""
    if ground.universe_size != detected.universe_size:
        raise ValueError("partitions declare different universe sizes")
    if (max(ground.label_space, detected.label_space)
            > max(ground.covered_count, detected.covered_count)):
        ground, detected = rank_labels(ground, detected)
    return ground, detected


def _circulated_labels(ctx, detected):
    """Node -> detected id array, scattered from this worker's own shard of
    ``detected`` and every shard received in one ring circulation.  A shard
    travels as three records: community ids, sizes and members."""
    own = shard(detected, ctx.num_workers, ctx.worker_id)
    records = list(enumerate((own.comm_ids, own.sizes, own.members)))
    shards = [records] + [foreign for _origin, foreign in ctx.circulate(records)]
    with ctx.compute():
        ids, sizes, members = (np.concatenate([values for _, values in column])
                               for column in zip(*shards))
        return scatter_labels(ids, sizes, members)


def _own_rows(ctx, ground, detected, detected_labels):
    """This worker's row slice of the (ground x detected) contingency table.

    ``detected_labels`` is the parent's node -> detected id array; on the
    ring it is None and the labels come from one circulation of the detected
    shards.
    """
    if detected_labels is None:
        detected_labels = _circulated_labels(ctx, detected)
    with ctx.compute():
        return build_contingency(ground, detected, detected_labels,
                                 ctx.num_workers, ctx.worker_id)


def _run_family(worker, args, config):
    """``seq`` is the one-worker run, which executes inline."""
    workers = 1 if config.backend == SEQ else config.num_workers
    return run_workers(worker, args, workers, ring=config.backend == RING)


def _run_rows(worker, ground, detected, config):
    """Run a contingency-row worker.  ``seq`` and ``shm`` workers read the
    parent's node -> detected id array; ring workers get None and circulate
    the detected shards instead."""
    labels = None if config.backend == RING else detected.node_map().comm_of
    return _run_family(worker, (ground, detected, labels), config)


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
    ground, detected = _shared_labels(ground, detected)
    n = ground.universe_size
    out = _run_rows(_info_worker, ground, detected, config)
    k = len(ground)
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
    # max_d covers only this worker's rows; the parent's merge makes it exact
    table = _own_rows(ctx, ground, detected, detected_labels)
    with ctx.compute():
        m = MatchMaxima.from_contingency(table)
    return {"max_normed": m.max_normed, "max_t": m.max_t, "max_d": m.max_d}


def run_matching_metrics(ground, detected, config=None):
    """F-measure and normalized Van Dongen distance."""
    config = config or BackendConfig()
    ground, detected = _shared_labels(ground, detected)
    n = ground.universe_size
    out = _run_rows(_matching_worker, ground, detected, config)
    merged = MatchMaxima.empty(len(ground), len(detected))
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


def _pair_brute_worker(ctx, gmap, dmap):
    with ctx.compute():
        counts = pair_counts_striped(gmap, dmap, num_stripes=ctx.num_workers,
                                     stripe_id=ctx.worker_id)
    return {"a11": counts.a11, "a10": counts.a10,
            "a01": counts.a01, "a00": counts.a00}


def run_pair_metrics(ground, detected, config=None, method="fast"):
    """Pair confusion counts and the Rand, adjusted Rand, Jaccard indices.

    ``method="bruteforce"`` switches the seq and shm backends to the striped
    all-pairs scan (the ring backend rejects it).
    """
    config = config or BackendConfig()
    ground, detected = _shared_labels(ground, detected)
    if method not in ("fast", "bruteforce"):
        raise ValueError(f"unknown pair-counting method {method!r}")
    # over one dense space 0..u-1 the node sets agree exactly when both
    # partitions cover all u labels
    u = max(ground.label_space, detected.label_space)
    if not ground.covered_count == detected.covered_count == u:
        raise ValueError("partitions cover different node sets")
    n = ground.universe_size
    if u != n:
        raise ValueError("pair counting requires full universe coverage")

    if method == "bruteforce":
        if config.backend == RING:
            raise ValueError("the ring backend has no brute-force mode")
        out = _run_family(_pair_brute_worker,
                          (ground.node_map(), detected.node_map()), config)
        counts = PairCounts(0, 0, 0, 0)
        for payload, _stats in out:
            counts = counts + PairCounts(payload["a11"], payload["a10"],
                                         payload["a01"], payload["a00"])
    else:
        out = _run_rows(_pair_worker, ground, detected, config)
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
        table = stats_from_labels(network, comm_of, sh.comm_ids, sh.sizes,
                                  sh.members)
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
        config.num_workers)
    k = len(partition)
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
