"""Graph and partition containers plus file ingestion.

A :class:`Network` is an undirected, unweighted graph held in CSR form over
dense internal node ids 0..n-1.  Input files may use arbitrary non-negative
integer labels; the original labels are kept in ``orig_ids`` so results can be
reported in the caller's vocabulary.

A :class:`Partition` is a list of disjoint communities (sorted label arrays)
over a declared universe of ``universe_size`` nodes.  Coverage may be partial:
nodes of the universe that appear in no community are simply unassigned.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed input line (reported with its line number)."""


class OverlapError(ValueError):
    """A node was listed in more than one community."""


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class Network:
    """Undirected unweighted graph in CSR adjacency form.

    ``indptr``/``indices`` follow the usual CSR convention: the neighbors of
    dense node ``v`` are ``indices[indptr[v]:indptr[v+1]]``, sorted ascending.
    Every edge appears in both endpoint rows; self loops are never stored.
    """

    __slots__ = (
        "node_count",
        "edge_count",
        "indptr",
        "indices",
        "orig_ids",
        "self_loops_dropped",
        "duplicates_dropped",
    )

    def __init__(self, node_count, edge_count, indptr, indices, orig_ids,
                 self_loops_dropped=0, duplicates_dropped=0):
        self.node_count = int(node_count)
        self.edge_count = int(edge_count)
        self.indptr = indptr
        self.indices = indices
        self.orig_ids = orig_ids
        self.self_loops_dropped = int(self_loops_dropped)
        self.duplicates_dropped = int(duplicates_dropped)

    @classmethod
    def from_edge_array(cls, u, v, orig_ids=None, node_count=None):
        """Build a network from endpoint arrays of dense node ids.

        Self loops and duplicate edges (either orientation) are dropped and
        counted.  ``orig_ids`` maps dense ids back to input labels; when
        omitted the labels are the dense ids themselves.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("endpoint arrays differ in length")
        if node_count is None:
            node_count = int(max(u.max(initial=-1), v.max(initial=-1)) + 1)
        node_count = int(node_count)

        loops = u == v
        self_loops = int(np.count_nonzero(loops))
        if self_loops:
            keep = ~loops
            u, v = u[keep], v[keep]

        # canonical orientation, then dedupe on the combined key
        a = np.minimum(u, v)
        b = np.maximum(u, v)
        key = a * node_count + b
        uniq = np.unique(key)
        duplicates = int(key.size - uniq.size)
        a = (uniq // node_count).astype(np.int64)
        b = (uniq % node_count).astype(np.int64)

        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        order = np.lexsort((dst, src))
        indices = np.ascontiguousarray(dst[order])
        counts = np.bincount(src, minlength=node_count)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        if orig_ids is None:
            orig_ids = np.arange(node_count, dtype=np.int64)
        return cls(node_count, uniq.size, indptr, indices, orig_ids,
                   self_loops, duplicates)

    def degrees(self):
        return np.diff(self.indptr)

    def neighbors(self, v):
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def to_dense(self, labels):
        """Translate original node labels to dense ids (error on unknown)."""
        labels = np.asarray(labels, dtype=np.int64)
        pos = np.searchsorted(self.orig_ids, labels)
        pos_c = np.minimum(pos, self.orig_ids.size - 1)
        bad = (pos >= self.orig_ids.size) | (self.orig_ids[pos_c] != labels)
        if bad.any():
            missing = labels[bad][0]
            raise ValueError(f"node {missing} not present in the network")
        return pos

    def validate(self):
        """Check structural invariants; raises AssertionError on violation."""
        assert self.indptr.size == self.node_count + 1
        assert self.indptr[0] == 0 and self.indptr[-1] == self.indices.size
        assert self.indices.size == 2 * self.edge_count
        if self.edge_count == 0:
            return
        src = np.repeat(np.arange(self.node_count), self.degrees())
        assert not np.any(src == self.indices), "self loop present"
        fwd = np.stack([src, self.indices])
        rev = np.stack([self.indices, src])
        f = np.unique(fwd[0] * self.node_count + fwd[1])
        r = np.unique(rev[0] * self.node_count + rev[1])
        assert f.size == self.indices.size, "duplicate adjacency entry"
        assert np.array_equal(f, r), "adjacency not symmetric"


def load_edge_list(stream):
    """Parse an edge-list stream: one ``u v`` pair per line.

    Blank lines and lines starting with ``#`` are skipped.  Node ids must be
    non-negative integers.  Self loops and duplicate edges are dropped with a
    warning.  Labels are compacted to dense ids; the sorted unique labels are
    retained in ``orig_ids``.
    """
    us, vs = [], []
    for lineno, raw in enumerate(stream, 1):
        if isinstance(raw, bytes):
            raw = raw.decode("ascii", errors="replace")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node id in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative node id in {line!r}")
        us.append(u)
        vs.append(v)
    if not us:
        raise ParseError("no edges found in input")

    u = np.array(us, dtype=np.int64)
    v = np.array(vs, dtype=np.int64)
    labels = np.unique(np.concatenate([u, v]))
    net = Network.from_edge_array(
        np.searchsorted(labels, u),
        np.searchsorted(labels, v),
        orig_ids=labels,
        node_count=labels.size,
    )
    if net.self_loops_dropped:
        logger.warning("dropped %d self loop(s)", net.self_loops_dropped)
    if net.duplicates_dropped:
        logger.warning("dropped %d duplicate edge(s)", net.duplicates_dropped)
    return net


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


class NodeCommunityMap:
    """Dense node-label -> community-id lookup; -1 marks unassigned."""

    __slots__ = ("comm_of", "universe_size")

    def __init__(self, comm_of, universe_size):
        self.comm_of = comm_of
        self.universe_size = int(universe_size)

    @property
    def covered_count(self):
        return int(np.count_nonzero(self.comm_of >= 0))

    @property
    def covers_universe(self):
        return self.covered_count == self.universe_size

    def covered_nodes(self):
        return np.flatnonzero(self.comm_of >= 0)


class Partition:
    """Disjoint communities over a node universe.

    Communities are stored as sorted int64 arrays of node labels and keep the
    integer ids implied by input order (community k = k-th line / k-th list).
    """

    __slots__ = ("communities", "universe_size", "_sizes")

    def __init__(self, communities, universe_size):
        comms = []
        for members in communities:
            arr = np.unique(np.asarray(members, dtype=np.int64))
            if arr.size == 0:
                raise ValueError("empty community")
            if arr[0] < 0:
                raise ValueError("negative node id in community")
            comms.append(arr)
        if not comms:
            raise ValueError("partition has no communities")
        universe_size = int(universe_size)
        if universe_size <= 0:
            raise ValueError("universe size must be positive")

        flat = np.concatenate(comms)
        uniq, counts = np.unique(flat, return_counts=True)
        if uniq.size != flat.size:
            node = int(uniq[counts > 1][0])
            raise OverlapError(f"node {node} appears in more than one community")
        if uniq.size > universe_size:
            raise ValueError(
                f"{uniq.size} distinct nodes exceed declared universe of {universe_size}")

        self.communities = comms
        self.universe_size = universe_size
        self._sizes = None

    def __len__(self):
        return len(self.communities)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.universe_size == other.universe_size
                and len(self) == len(other)
                and all(np.array_equal(a, b)
                        for a, b in zip(self.communities, other.communities)))

    @property
    def sizes(self):
        if self._sizes is None:
            self._sizes = np.array([c.size for c in self.communities], dtype=np.int64)
        return self._sizes

    @property
    def covered_count(self):
        return int(self.sizes.sum())

    @property
    def covers_universe(self):
        return self.covered_count == self.universe_size

    @property
    def label_space(self):
        return int(max(c[-1] for c in self.communities) + 1)

    def node_map(self):
        return NodeCommunityMap(
            scatter_labels(range(len(self.communities)), self.communities),
            self.universe_size)

    @classmethod
    def from_node_map(cls, node_map):
        """Inverse of :meth:`node_map`: group labels by community id."""
        comm_of = node_map.comm_of
        covered = np.flatnonzero(comm_of >= 0)
        if covered.size == 0:
            raise ValueError("node map assigns no nodes")
        ids = comm_of[covered]
        order = np.argsort(ids, kind="stable")
        ids_sorted = ids[order]
        nodes_sorted = covered[order]
        bounds = np.flatnonzero(np.diff(ids_sorted)) + 1
        groups = np.split(nodes_sorted, bounds)
        present = np.concatenate([[ids_sorted[0]], ids_sorted[bounds]])
        if present[0] != 0 or present[-1] != len(groups) - 1:
            raise ValueError("community ids are not contiguous from 0")
        return cls(groups, node_map.universe_size)


def scatter_labels(comm_ids, communities):
    """Node label -> community id array over the labels the communities use,
    -1 for labels in no community.  Member arrays must be sorted."""
    comm_of = np.full(max(int(c[-1]) for c in communities) + 1, -1,
                      dtype=np.int64)
    for k, members in zip(comm_ids, communities):
        comm_of[members] = k
    return comm_of


def parse_community_lines(stream):
    """Read raw community member lists: one community per line, ids
    whitespace-separated.  No partition semantics are checked here."""
    comms = []
    for lineno, raw in enumerate(stream, 1):
        if isinstance(raw, bytes):
            raw = raw.decode("ascii", errors="replace")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            members = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node id") from None
        if any(m < 0 for m in members):
            raise ParseError(f"line {lineno}: negative node id")
        comms.append(members)
    if not comms:
        raise ParseError("no communities found in input")
    return comms


def load_communities(stream, universe_size):
    """Parse a community file into a :class:`Partition`.

    Community ids follow line order.  A node listed on two different lines is
    an :class:`OverlapError`.
    """
    return Partition(parse_community_lines(stream), universe_size)


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


@dataclass
class PartitionShard:
    """The communities of one worker: ids k with k mod num_workers == owner_id."""

    owner_id: int
    num_workers: int
    comm_ids: np.ndarray
    communities: list
    universe_size: int

    def __len__(self):
        return len(self.communities)

    @property
    def sizes(self):
        return np.array([c.size for c in self.communities], dtype=np.int64)


def shard(partition, num_workers, worker_id):
    """Extract the communities owned by ``worker_id`` under modulo sharding."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if not 0 <= worker_id < num_workers:
        raise ValueError(f"worker_id {worker_id} outside [0, {num_workers})")
    ids = np.arange(worker_id, len(partition.communities), num_workers, dtype=np.int64)
    comms = [partition.communities[k] for k in ids]
    return PartitionShard(worker_id, num_workers, ids, comms, partition.universe_size)


def local_subgraph(network, shard_obj):
    """Subgraph induced by a shard's members plus their direct neighbors.

    Keeps exactly the edges incident to shard members, which is enough to
    evaluate any per-community structural measure of the shard without
    touching the rest of the graph.  ``orig_ids`` of the result maps back to
    the parent's dense ids.
    """
    own = (np.concatenate(shard_obj.communities) if shard_obj.communities
           else np.empty(0, dtype=np.int64))
    if own.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return Network(0, 0, np.zeros(1, dtype=np.int64), empty, empty)

    counts = network.indptr[own + 1] - network.indptr[own]
    src = np.repeat(own, counts)
    gather = [network.indices[network.indptr[v]:network.indptr[v + 1]] for v in own]
    dst = np.concatenate(gather) if gather else np.empty(0, dtype=np.int64)

    nodes = np.unique(np.concatenate([own, dst]))
    u = np.searchsorted(nodes, src)
    v = np.searchsorted(nodes, dst)
    return Network.from_edge_array(u, v, orig_ids=nodes, node_count=nodes.size)


# ---------------------------------------------------------------------------
# Contingency
# ---------------------------------------------------------------------------


def build_contingency(ground, detected):
    """Sparse table of community overlaps |c_i ∩ c'_j| between two partitions.

    Runs in O(n log n) over covered nodes.  Returns a
    :class:`~commqual.info_metrics.ContingencyTable`.
    """
    if ground.universe_size != detected.universe_size:
        raise ValueError("partitions declare different universe sizes")
    return contingency_rows(ground, detected.node_map().comm_of, detected.sizes)


def contingency_rows(rows, col_of, col_sizes, num_workers=1, worker_id=0):
    """Contingency cells of the rows ``worker_id::num_workers`` of ``rows``.

    ``col_of`` maps a node label to its column (detected community) id, with
    -1 or a label past its end meaning unassigned; ``col_sizes`` are the
    column marginals.  One sort over ``row * num_cols + column`` gives those
    rows' cells in (row, column) order, exactly as :func:`build_contingency`
    lists them, so a per-row reduction of a row slice repeats the full
    table's arithmetic.  The table keeps the full marginals.
    """
    from .info_metrics import ContingencyTable

    own = shard(rows, num_workers, worker_id)
    members = (np.concatenate(own.communities) if len(own)
               else np.empty(0, dtype=np.int64))
    row_of = np.repeat(own.comm_ids, own.sizes)
    cols = np.full(members.size, -1, dtype=np.int64)
    inside = members < col_of.size
    cols[inside] = col_of[members[inside]]
    both = cols >= 0
    ncols = len(col_sizes)
    uniq, counts = np.unique(row_of[both] * ncols + cols[both],
                             return_counts=True)
    return ContingencyTable(
        rows=uniq // ncols,
        cols=uniq % ncols,
        counts=counts.astype(np.int64),
        row_sizes=rows.sizes.copy(),
        col_sizes=np.array(col_sizes, dtype=np.int64),
        universe_size=rows.universe_size,
    )
