"""Intrinsic partition quality: modularity, modularity density, and
per-community structural measures.

These need only the network and one partition (no ground truth).  The
partition must live in the network's dense node-id space.  Per-community
inputs are summarized in :class:`CommunityStats`; every metric below is a pure
function of those counts, so sharded evaluation sums the same per-community
contributions in a different grouping.
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

    @property
    def community_count(self):
        return len(self.rows)

    def means(self):
        """Unweighted means of the six measures across communities."""
        k = len(self.rows)
        acc = {"intra_edges": 0.0, "intra_density": 0.0, "contraction": 0.0,
               "inter_edges": 0.0, "expansion": 0.0, "conductance": 0.0}
        for r in self.rows:
            acc["intra_edges"] += r.intra_edges
            acc["intra_density"] += r.intra_density
            acc["contraction"] += r.contraction
            acc["inter_edges"] += r.inter_edges
            acc["expansion"] += r.expansion
            acc["conductance"] += r.conductance
        return {name: val / k for name, val in acc.items()}


def node_labels(network, partition):
    """Dense node id -> community id over the whole network; -1 unassigned."""
    if partition.label_space > network.node_count:
        raise ValueError("partition references nodes beyond the network")
    comm_of = np.full(network.node_count, -1, dtype=np.int64)
    assigned = partition.node_map().comm_of
    comm_of[:assigned.size] = assigned
    return comm_of


def community_stats(network, partition, community_ids=None):
    """Gather :class:`CommunityStats` for the given community ids (default all).

    One vectorized pass per community over its incident adjacency rows, so the
    cost is proportional to the total degree of the communities requested.
    """
    comm_of = node_labels(network, partition)
    if community_ids is None:
        community_ids = range(len(partition.communities))
    return stats_from_labels(network, comm_of, community_ids,
                             [partition.communities[k] for k in community_ids])


def stats_from_labels(network, comm_of, community_ids, communities):
    """:class:`CommunityStats` of each community ``community_ids[i]`` with
    members ``communities[i]``, given as dense ids of ``network`` whose nodes
    carry the community ids ``comm_of``."""
    out = []
    for k, members in zip(community_ids, communities):
        idx = concat_ranges(network.indptr[members], network.indptr[members + 1])
        labels = comm_of[network.indices[idx]]
        internal_ends = int(np.count_nonzero(labels == k))
        unassigned = int(np.count_nonzero(labels == -1))
        cross = labels[(labels != k) & (labels >= 0)]
        pairs = {}
        if cross.size:
            ids, cnts = np.unique(cross, return_counts=True)
            pairs = {int(i): int(c) for i, c in zip(ids, cnts)}
        out.append(CommunityStats(
            community_id=int(k),
            size=int(members.size),
            in_edges=internal_ends // 2,
            out_edges=int(labels.size - internal_ends),
            neighbor_edges=pairs,
            unassigned_edges=unassigned,
        ))
    return out


def modularity_terms(stats, total_edges):
    """Per-community Q terms in_c/m - ((2 in_c + out_c) / 2m)^2, in ``stats``
    order."""
    if total_edges <= 0:
        raise ValueError("network has no edges")
    m = float(total_edges)
    return np.array([s.in_edges / m - ((2 * s.in_edges + s.out_edges) / (2 * m)) ** 2
                     for s in stats], dtype=np.float64)


def modularity(stats, total_edges):
    """Q = sum_c [ in_c/m - ((2 in_c + out_c) / 2m)^2 ], summed exactly
    rounded so the result does not depend on how communities are grouped."""
    return math.fsum(modularity_terms(stats, total_edges))


def modularity_density_terms(stats, total_edges, sizes=None):
    """Per-community terms of :func:`modularity_density`, in ``stats`` order."""
    if total_edges <= 0:
        raise ValueError("network has no edges")
    if sizes is None:
        sizes = {s.community_id: s.size for s in stats}
    m = float(total_edges)
    terms = np.zeros(len(stats))
    for i, s in enumerate(stats):
        nc = s.size
        d_c = 2.0 * s.in_edges / (nc * (nc - 1)) if nc > 1 else 0.0
        term = s.in_edges / m * d_c
        term -= ((2 * s.in_edges + s.out_edges) / (2 * m) * d_c) ** 2
        for j, e_cc in s.neighbor_edges.items():
            d_cc = e_cc / (nc * float(sizes[j]))
            term -= e_cc / (2 * m) * d_cc
        terms[i] = term
    return terms


def modularity_density(stats, total_edges, sizes=None):
    """Density-weighted modularity with a split penalty.

    Each community's term weighs the modularity contribution by its internal
    pair density and subtracts, per neighboring community, the product of
    shared edge fraction and cross-pair density.  ``sizes`` maps community id
    to size and is required when ``stats`` does not cover all communities;
    single-node communities have internal density 0 by convention.  Terms are
    summed exactly rounded, as in :func:`modularity`.
    """
    return math.fsum(modularity_density_terms(stats, total_edges, sizes))


def community_measures(stats):
    """Expand stats into the six per-community measures."""
    rows = []
    for s in stats:
        nc = s.size
        volume = 2 * s.in_edges + s.out_edges
        rows.append(CommunityRow(
            community_id=s.community_id,
            size=nc,
            intra_edges=s.in_edges,
            intra_density=(2.0 * s.in_edges / (nc * (nc - 1)) if nc > 1 else 0.0),
            contraction=2.0 * s.in_edges / nc,
            inter_edges=s.out_edges,
            expansion=s.out_edges / nc,
            conductance=(s.out_edges / volume if volume > 0 else 0.0),
            degenerate=volume == 0,
        ))
    return rows


def intrinsic_report(network, partition):
    """Full sequential evaluation: Q, Qds, and all per-community rows."""
    stats = community_stats(network, partition)
    return IntrinsicReport(
        q=modularity(stats, network.edge_count),
        qds=modularity_density(stats, network.edge_count),
        total_edges=network.edge_count,
        rows=community_measures(stats),
    )
