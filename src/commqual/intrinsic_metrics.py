"""Intrinsic partition quality: modularity, modularity density, and
per-community structural measures.

These need only the network and one partition (no ground truth).  The
partition must live in the network's dense node-id space.  One kernel,
:func:`community_stats`, reads the CSR rows of the requested communities'
members in a few whole-array passes and returns a columnar
:class:`StatsTable`: per-community size, internal, boundary and unassigned
edge counts, plus the cross-community cells sorted by (community, neighbour).
Every metric below is an array expression over that table, evaluated
element by element, so a worker that runs the kernel on communities
``p::w`` gets each community's terms bit for bit as the whole-partition run
does.  The module owns the family's partial and finish:
:func:`intrinsic_partial` is one worker's terms and edge counts, as columns
over every community that hold zeros outside its shard, so partials merge
by element-wise ``+``, and :func:`intrinsic_finish` reduces the merged
columns.
:func:`~commqual.engine.run_intrinsic_metrics` runs the two on every
backend; its ``seq`` run is the one-worker call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import concat_ranges


@dataclass
class CommunityStats:
    """Edge counts around one community.

    ``in_edges`` counts edges with both endpoints inside, ``out_edges`` edges
    with exactly one endpoint inside.  ``neighbor_edges`` maps neighboring
    community id -> number of connecting edges.  Edges to nodes assigned to no
    community are counted in ``out_edges`` and flagged in ``unassigned_edges``.
    """

    community_id: int
    size: int
    in_edges: int
    out_edges: int
    neighbor_edges: dict = field(default_factory=dict)
    unassigned_edges: int = 0


@dataclass
class StatsTable:
    """:class:`CommunityStats` of the communities ``ids``, as columns.

    ``size``, ``in_edges``, ``out_edges`` and ``unassigned_edges`` are int64
    arrays aligned with ``ids``.  Cell ``t`` says that the community at
    position ``ci[t]`` shares ``cnt[t]`` edges with community id ``cj[t]``;
    cells are sorted by ``(ci, cj)``.  ``len`` counts the communities, and
    iteration gives their :class:`CommunityStats` objects, built on demand.
    """

    ids: np.ndarray
    size: np.ndarray
    in_edges: np.ndarray
    out_edges: np.ndarray
    unassigned_edges: np.ndarray
    ci: np.ndarray
    cj: np.ndarray
    cnt: np.ndarray

    def __len__(self):
        return self.ids.size

    def __iter__(self):
        bounds = np.searchsorted(self.ci, np.arange(len(self) + 1)).tolist()
        cj, cnt = self.cj.tolist(), self.cnt.tolist()
        columns = (self.ids, self.size, self.in_edges, self.out_edges,
                   self.unassigned_edges)
        for i, (k, size, inn, out, una) in enumerate(
                zip(*(c.tolist() for c in columns))):
            lo, hi = bounds[i], bounds[i + 1]
            yield CommunityStats(k, size, inn, out,
                                 dict(zip(cj[lo:hi], cnt[lo:hi])), una)


@dataclass
class CommunityRow:
    """The six per-community measures, plus identifying info."""

    community_id: int
    size: int
    intra_edges: int
    intra_density: float
    contraction: float
    inter_edges: int
    expansion: float
    conductance: float
    degenerate: bool = False  # no incident edges at all; conductance forced to 0


@dataclass
class IntrinsicReport:
    q: float
    qds: float
    total_edges: int
    rows: list

    KEYS = ("q", "qds", "edges", "communities")

    @property
    def community_count(self):
        return len(self.rows)

    def values(self):
        """The aggregate values, in :attr:`KEYS` order."""
        return (self.q, self.qds, self.total_edges, self.community_count)


def community_stats(network, partition, community_ids=None):
    """The :class:`StatsTable` of the given community ids (default all),
    from one pass over the CSR rows of their members.

    Every node of the network first gets its community id, -1 when
    unassigned: int32 whenever the community ids fit, which halves the
    kernel's per-edge label arrays.  The members' CSR rows are then gathered
    community after community, so every community owns one contiguous run
    of edge ends.  Per end, the neighbour's label is compared with the run's
    own id; run sums give the internal and unassigned ends, and one sort of
    ``position * n + label`` over the crossing ends gives the cells.  Cost
    is proportional to the total degree of the communities requested.
    """
    if partition.label_space > network.node_count:
        raise ValueError("partition references nodes beyond the network")
    dtype = np.int32 if len(partition) <= 2**31 - 1 else np.int64
    comm_of = np.full(network.node_count, -1, dtype=dtype)
    comm_of[partition.members] = np.repeat(np.arange(len(partition)),
                                           partition.sizes)
    if community_ids is None:
        community_ids = np.arange(len(partition))
    ids = np.asarray(community_ids, dtype=np.int64).reshape(-1)
    size, members = partition.take(ids)
    starts = network.indptr[members]
    ends = network.indptr[members + 1]

    # edge ends of the community at position i: [run[i], run[i + 1])
    row_end = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=row_end[1:])
    run = row_end[np.concatenate(([0], np.cumsum(size)))]
    total = np.diff(run)

    nbr = comm_of[network.indices[concat_ranges(starts, ends)]]
    inside = nbr == np.repeat(ids.astype(comm_of.dtype), total)
    in_ends = _run_sums(inside, run)
    unassigned = _run_sums(nbr < 0, run)

    cross = np.logical_not(inside, out=inside)
    cross &= nbr >= 0
    n = max(comm_of.size, 1)  # > every community id and every position
    key_type = np.int32 if ids.size * n <= 2**31 - 1 else np.int64
    key = np.repeat(np.arange(0, ids.size * n, n, dtype=key_type),
                    total - in_ends - unassigned)
    key += nbr[cross].astype(key_type, copy=False)
    key.sort()
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts_at = np.flatnonzero(first)
    cnt = np.diff(np.append(starts_at, key.size))
    ci, cj = np.divmod(key[starts_at].astype(np.int64), n)

    return StatsTable(ids=ids, size=size, in_edges=in_ends // 2,
                      out_edges=total - in_ends, unassigned_edges=unassigned,
                      ci=ci, cj=cj, cnt=cnt)


def _run_sums(flags, run):
    """Number of true ``flags`` in each run ``[run[i], run[i + 1])``."""
    out = np.zeros(run.size - 1, dtype=np.int64)
    nonempty = run[1:] > run[:-1]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(flags, run[:-1][nonempty],
                                        dtype=np.int64)
    return out


def _squares(x):
    """``v ** 2`` of every element as Python computes it for a float (libm
    ``pow``).  That differs from numpy's ``x * x`` in the last bit on 878 of
    1,000,000 uniform values and on 1 of the 5,716 Qds squares of a 200k
    planted input; the loop keeps Q and Qds bit-identical to earlier output."""
    return np.array([v ** 2 for v in x.tolist()], dtype=np.float64)


def _internal_density(size, in_edges):
    """2 in_c / (n_c (n_c - 1)), and 0 for single-node communities."""
    d = np.zeros(size.size)
    big = size > 1
    nc = size[big]
    d[big] = 2.0 * in_edges[big] / (nc * (nc - 1))
    return d


def modularity_terms(stats, total_edges):
    """Per-community Q terms in_c/m - ((2 in_c + out_c) / 2m)^2, in ``stats``
    order."""
    if total_edges <= 0:
        raise ValueError("network has no edges")
    m = float(total_edges)
    return stats.in_edges / m - _squares(
        (2 * stats.in_edges + stats.out_edges) / (2 * m))


def modularity_density_terms(stats, total_edges, sizes):
    """Per-community terms of the modularity density Qds, in ``stats`` order:
    the modularity term weighted by internal pair density (0 for a
    single-node community), less, per neighbour, the shared edge fraction
    times the cross-pair density.  ``sizes`` is indexed by community id, as
    ``Partition.sizes`` is.  Each community's split penalties are subtracted
    one neighbour at a time in ascending neighbour id order.
    """
    if total_edges <= 0:
        raise ValueError("network has no edges")
    m = float(total_edges)
    inn, out, cnt, ci = stats.in_edges, stats.out_edges, stats.cnt, stats.ci
    d_c = _internal_density(stats.size, inn)
    terms = inn / m * d_c
    terms -= _squares((2 * inn + out) / (2 * m) * d_c)
    d_cc = cnt / (stats.size[ci] * sizes[stats.cj].astype(np.float64))
    np.subtract.at(terms, ci, cnt / (2 * m) * d_cc)
    return terms


def community_measures(ids, size, in_edges, out_edges):
    """The six measures of each community ``ids[i]``, from aligned columns."""
    nc, inn, out = size, in_edges, out_edges
    volume = 2 * inn + out
    degenerate = volume == 0
    conductance = np.zeros(nc.size)
    np.divide(out, volume, out=conductance, where=~degenerate)
    columns = (ids, nc, inn, _internal_density(nc, inn), 2.0 * inn / nc,
               out, out / nc, conductance, degenerate)
    return [CommunityRow(*values)
            for values in zip(*(c.tolist() for c in columns))]


def intrinsic_partial(network, partition, num_workers=1, worker_id=0):
    """Worker ``worker_id``'s share of the intrinsic metrics, as the columns
    ``(q, qds, in_edges, out_edges)`` over every community: the Q and Qds
    terms and the internal and boundary edge counts of its communities
    ``worker_id::num_workers`` (the modulo sharding of
    :func:`~commqual.graph.shard`), and +0.0 or 0 at every other community,
    so the partials of all workers merge by element-wise ``+``.  The terms
    are those of the whole-partition table, bit for bit, because each is
    computed element by element and Qds reads neighbour sizes from
    ``partition.sizes``; no term is -0.0, so adding zeros keeps its bits."""
    # community_stats gathers the members, so only the ids are taken here
    ids = np.arange(worker_id, len(partition), num_workers, dtype=np.int64)
    table = community_stats(network, partition, ids)
    m = network.edge_count
    partial = []
    for values in (modularity_terms(table, m),
                   modularity_density_terms(table, m, partition.sizes),
                   table.in_edges, table.out_edges):
        column = np.zeros(len(partition), dtype=values.dtype)
        column[ids] = values
        partial.append(column)
    return tuple(partial)


def intrinsic_finish(merged, network, partition):
    """The :class:`IntrinsicReport` of ``partition`` on ``network`` from the
    merged :func:`intrinsic_partial`.  Q and Qds are exactly rounded sums
    (``math.fsum``) of the terms, so they do not depend on how the
    communities were sharded, and the rows come out in community id order."""
    q, qds, in_edges, out_edges = merged
    return IntrinsicReport(q=math.fsum(q), qds=math.fsum(qds),
                           total_edges=network.edge_count,
                           rows=community_measures(
                               np.arange(len(partition)), partition.sizes,
                               in_edges, out_edges))
