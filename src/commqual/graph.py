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

import io
import logging
import warnings
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed input line (reported with its line number)."""


class OverlapError(ValueError):
    """A node was listed in more than one community."""


_INT64_MAX = int(np.iinfo(np.int64).max)


def _sorted_unique(x):
    """``np.unique(x)`` through one sort and a neighbour mask.

    A plain ``np.unique`` takes a hash-based path on numpy 2.x that is tens of
    times slower than sorting for large integer arrays; the result is the
    same flattened, sorted array of distinct values.
    """
    s = np.sort(x, axis=None)
    if s.size == 0:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def concat_ranges(starts, ends):
    """Indices [s0..e0) ++ [s1..e1) ++ ... as one int64 array.

    Built in one buffer: ones, with the jump to each range's start written
    at its first slot, then summed cumulatively in place.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    keep = ends > starts
    if not keep.all():
        starts, ends = starts[keep], ends[keep]
    lens = ends - starts
    out = np.ones(int(lens.sum()), dtype=np.int64)
    if out.size:
        out[0] = starts[0]
        out[np.cumsum(lens[:-1])] = starts[1:] - ends[:-1] + 1
        np.cumsum(out, out=out)
    return out


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
        key = np.minimum(u, v) * node_count + np.maximum(u, v)
        uniq = _sorted_unique(key)
        duplicates = int(key.size - uniq.size)
        a, b = np.divmod(uniq, node_count)

        # both orientations sorted by (row, column): rows in order, each
        # row's neighbours ascending
        both = np.sort(np.concatenate([uniq, b * node_count + a]))
        indices = both % node_count
        counts = np.bincount(np.concatenate([a, b]), minlength=node_count)
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
        f = _sorted_unique(src * self.node_count + self.indices)
        r = _sorted_unique(self.indices * self.node_count + src)
        assert f.size == self.indices.size, "duplicate adjacency entry"
        assert np.array_equal(f, r), "adjacency not symmetric"


def load_edge_list(stream):
    """Parse an edge-list stream: one ``u v`` pair per line.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped; a ``#`` after data on the same line is an error.  Node ids must
    be non-negative integers that fit in int64.  Self loops and duplicate
    edges are dropped with a warning.  Labels are compacted to dense ids in
    label order, the sorted unique labels retained in ``orig_ids``: through a
    presence mask and a lookup table when the largest label is below the
    number of endpoints, by sorting otherwise.

    ``stream`` is a binary or text file object, or any iterable of lines.
    A binary stream is read whole and, when well formed, parsed in one pass
    by ``np.loadtxt``; anything else goes through the line-at-a-time parser,
    which reports the first bad line.  Both give the same :class:`Network`
    and the same :class:`ParseError`.
    """
    edges = None
    if isinstance(stream, (io.BufferedIOBase, io.RawIOBase)):
        data = stream.read()  # binary streams break lines at b"\n" only
        edges = _loadtxt_edges(data)
        stream = io.BytesIO(data)
    if edges is None:
        edges = _parse_edge_lines(stream)

    edges, labels = _dense_labels(edges)
    net = Network.from_edge_array(edges[:, 0], edges[:, 1], orig_ids=labels,
                                  node_count=labels.size)
    if net.self_loops_dropped:
        logger.warning("dropped %d self loop(s)", net.self_loops_dropped)
    if net.duplicates_dropped:
        logger.warning("dropped %d duplicate edge(s)", net.duplicates_dropped)
    return net


def _dense_labels(edges):
    """``edges`` relabelled to dense ids 0..n-1 in label order, and the
    sorted distinct labels.

    Labels below the number of endpoints go through a presence mask and a
    lookup table, two O(n) passes; larger ones are sorted and searched.
    """
    top = int(edges.max())
    if top < edges.size:
        present = np.zeros(top + 1, dtype=bool)
        present[edges] = True
        labels = np.flatnonzero(present)
        dense_of = np.empty(top + 1, dtype=np.int64)
        dense_of[labels] = np.arange(labels.size)
        return dense_of[edges], labels
    labels = _sorted_unique(edges)
    return np.searchsorted(labels, edges), labels


# what ``str.strip``/``str.split`` treat as blank in ASCII text
_BLANK = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _loadtxt_edges(data):
    """The ``(k, 2)`` int64 edges of a byte buffer parsed by ``np.loadtxt``,
    or None where it might disagree with :func:`_parse_edge_lines`: a
    non-ASCII byte, a bare ``\\r`` (inside a line to the line parser, a break
    to ``loadtxt``), a ``#`` after data, any error or warning (no data, a
    float, an id beyond int64), a row without exactly two ids, or a negative
    id."""
    if (not data.isascii()
            or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
            or not _comments_lead_lines(data)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = np.loadtxt(io.BytesIO(data), dtype=np.int64, comments="#",
                               ndmin=2)
    except (ValueError, OverflowError, Warning):  # the line parser names it
        return None
    if edges.shape[0] == 0 or edges.shape[1] != 2 or edges.min() < 0:
        return None
    return edges


def _comments_lead_lines(data):
    """True when every ``#`` has only blanks before it on its line."""
    pos = data.find(b"#")
    while pos >= 0:
        start = data.rfind(b"\n", 0, pos) + 1
        if data[start:pos].strip(_BLANK):
            return False
        end = data.find(b"\n", pos)
        if end < 0:
            return True
        pos = data.find(b"#", end)
    return True


def _parse_edge_lines(lines):
    """The ``(k, 2)`` int64 edges of an iterable of lines, one at a time;
    raises :class:`ParseError` naming the first bad line."""
    us, vs = [], []
    for lineno, raw in enumerate(lines, 1):
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
        if u > _INT64_MAX or v > _INT64_MAX:
            raise ParseError(f"line {lineno}: node id beyond int64 in {line!r}")
        us.append(u)
        vs.append(v)
    if not us:
        raise ParseError("no edges found in input")
    return np.column_stack([np.array(us, dtype=np.int64),
                            np.array(vs, dtype=np.int64)])


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
        if max(members) > _INT64_MAX:
            raise ParseError(f"line {lineno}: node id beyond int64")
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

    starts, ends = network.indptr[own], network.indptr[own + 1]
    src = np.repeat(own, ends - starts)
    dst = network.indices[concat_ranges(starts, ends)]

    nodes = _sorted_unique(np.concatenate([own, dst]))
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
