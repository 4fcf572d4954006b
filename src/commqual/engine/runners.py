"""Metric evaluation across the sequential, shared-memory, and ring backends.

The runners only orchestrate: hand out shards, run the workers, merge their
partial results and finish them; the metric modules own every formula.
Every family follows one contract.  A worker's partial is a tuple of
plain columns over every community, holding the merge identity outside
the worker's shard (pair's is the one exact count a11); the parent merges
the partials in worker order with one element-wise operation
(:func:`merge_partials`); and the family's finish takes the merged partial
and the runner's two inputs.

For the extrinsic families (info, matching, pair) worker p builds the
contingency cells n_ij of its row slice of ground communities
(:func:`~commqual.graph.shard` decides which) with
:func:`~commqual.graph.build_contingency` and reduces them to the family's
partial: :func:`~commqual.info_metrics.info_partial`,
:func:`~commqual.matching_metrics.matching_partial` or
:func:`~commqual.pair_metrics.pair_partial`.  One row driver runs all three
on every backend.  ``seq`` is the one-worker run of that code, in process,
whose single row slice is the whole table.  The backends differ only in the
worker count and in where a worker's node -> detected label array comes
from: ``seq`` and ``shm`` workers read the parent's (``shm`` copy-on-write),
``ring`` workers scatter their own detected shard and each shard received in
one circulation of the ring.  The driver first moves both partitions into
one dense label space 0..u-1 (:func:`shared_labels`), so label-indexed
arrays and ring messages scale with the u nodes covered, whatever the int64
ids.  The intrinsic family runs
:func:`~commqual.intrinsic_metrics.intrinsic_partial` on its shard of
communities of the shared network under every backend: the worker reads the
CSR rows of its communities' members, builds no subgraph and sends no
message, and ``seq`` is again the one-worker run.

The merges are exact: per-row VI/MI sums, pair counts and the intrinsic
columns are added (+0.0 and 0 outside a shard, and no term is -0.0), and
the best-match maxima are combined by element-wise max.  So float results
are identical across backends and worker counts.

All entry points return ``(result, PhaseTiming)``.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from ..graph import build_contingency, rank_labels, scatter_labels, shard
from ..info_metrics import info_finish, info_partial
from ..matching_metrics import matching_finish, matching_partial
from ..pair_metrics import (
    PairMetrics, pair_counts_striped, pair_finish, pair_partial,
)
from ..intrinsic_metrics import intrinsic_finish, intrinsic_partial
from .transport import RING, BackendConfig, run_workers


def shared_labels(ground, detected):
    """The pair over one dense label space 0..u-1, u the number of labels
    either partition uses.  When no label reaches the larger covered count,
    that partition holds every label below it and the pair is already dense;
    otherwise both are ranked jointly, which keeps every set relation.  A
    caller running several families on one pair ranks it once here, and
    each runner then finds it dense."""
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
    ids, sizes, members = (np.concatenate([values for _, values in column])
                           for column in zip(*shards))
    return scatter_labels(ids, sizes, members)


def _row_worker(ctx, partial, ground, detected, detected_labels):
    """``partial`` of this worker's row slice of the (ground x detected)
    contingency table.  ``detected_labels`` is the parent's node -> detected
    id array; on the ring it is None and the labels come from one
    circulation of the detected shards."""
    if detected_labels is None:
        detected_labels = _circulated_labels(ctx, detected)
    return partial(build_contingency(ground, detected, detected_labels,
                                     ctx.num_workers, ctx.worker_id))


def merge_partials(op, partials):
    """The workers' partials, each a sequence of columns, merged in worker
    order by the element-wise ``op`` applied column by column:
    ``operator.add`` for sums and counts, ``np.maximum`` for maxima."""
    return reduce(lambda a, b: tuple(map(op, a, b)), partials)


def _run_rows(partial, op, finish, ground, detected, config):
    """``finish`` of the ``op``-merged ``partial`` of every worker's row
    slice of the contingency table, on the backend of ``config``."""
    config = config or BackendConfig()
    ground, detected = shared_labels(ground, detected)
    ring = config.backend == RING
    labels = None if ring else detected.node_map().comm_of
    partials, timing = run_workers(_row_worker,
                                   (partial, ground, detected, labels),
                                   config.num_workers, ring=ring)
    return finish(merge_partials(op, partials), ground, detected), timing


def run_info_metrics(ground, detected, config=None):
    """VI and NMI of detected against ground truth."""
    return _run_rows(info_partial, operator.add, info_finish, ground,
                     detected, config)


def run_matching_metrics(ground, detected, config=None):
    """F-measure and normalized Van Dongen distance."""
    return _run_rows(matching_partial, np.maximum, matching_finish, ground,
                     detected, config)


def _pair_brute_worker(ctx, gmap, dmap):
    return pair_counts_striped(gmap, dmap, num_stripes=ctx.num_workers,
                               stripe_id=ctx.worker_id)


def check_pair_method(method, backend):
    """ValueError unless ``backend`` runs the pair-counting ``method``."""
    if method not in ("fast", "bruteforce"):
        raise ValueError(f"unknown pair-counting method {method!r}")
    if method == "bruteforce" and backend == RING:
        raise ValueError("the ring backend has no brute-force mode")


def run_pair_metrics(ground, detected, config=None, method="fast"):
    """Pair confusion counts and the Rand, adjusted Rand, Jaccard indices.

    ``method="bruteforce"`` switches the seq and shm backends to the striped
    all-pairs scan (the ring backend rejects it).
    """
    config = config or BackendConfig()
    ground, detected = shared_labels(ground, detected)
    check_pair_method(method, config.backend)
    # over one dense space 0..u-1 the node sets agree exactly when both
    # partitions cover all u labels
    u = max(ground.label_space, detected.label_space)
    if not ground.covered_count == detected.covered_count == u:
        raise ValueError("partitions cover different node sets")
    if u != ground.universe_size:
        raise ValueError("pair counting requires full universe coverage")

    if method == "fast":
        return _run_rows(pair_partial, operator.add, pair_finish, ground,
                         detected, config)
    stripes, timing = run_workers(_pair_brute_worker,
                                  (ground.node_map(), detected.node_map()),
                                  config.num_workers)
    return PairMetrics.from_counts(reduce(operator.add, stripes)), timing


# ---------------------------------------------------------------------------
# Intrinsic family
# ---------------------------------------------------------------------------


def _intrinsic_worker(ctx, network, partition):
    return intrinsic_partial(network, partition, ctx.num_workers,
                             ctx.worker_id)


def run_intrinsic_metrics(network, partition, config=None):
    """Modularity, modularity density, and the per-community measures."""
    config = config or BackendConfig()
    if partition.label_space > network.node_count:
        raise ValueError("partition references nodes beyond the network")
    if network.edge_count <= 0:
        raise ValueError("network has no edges")
    # every worker reads the network it needs from the shared CSR, so even
    # the ring backend opens no circulation
    partials, timing = run_workers(_intrinsic_worker, (network, partition),
                                   config.num_workers)
    return intrinsic_finish(merge_partials(operator.add, partials), network,
                            partition), timing


# each family's runner, under the name the CLI and the scaling study use
RUNNERS = {"info": run_info_metrics, "matching": run_matching_metrics,
           "pair": run_pair_metrics, "intrinsic": run_intrinsic_metrics}
FAMILIES = tuple(RUNNERS)
