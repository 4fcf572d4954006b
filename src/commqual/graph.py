"""Graph and partition containers plus file ingestion.

A :class:`Network` is an undirected, unweighted graph held in CSR form over
dense internal node ids 0..n-1.  Input files may use arbitrary non-negative
integer labels; the original labels are kept in ``orig_ids`` so results can be
reported in the caller's vocabulary.

A :class:`Partition` holds disjoint communities (flat member labels plus
offsets) over a declared universe of ``universe_size`` nodes.  Coverage may be
partial: nodes of the universe that appear in no community are simply
unassigned.
"""

from __future__ import annotations

import io
import itertools
import warnings

import numpy as np


class ParseError(ValueError):
    """Malformed input line (reported with its line number)."""


class OverlapError(ValueError):
    """A node was listed in more than one community."""


_INT64_MAX = int(np.iinfo(np.int64).max)


def _distinct(s):
    """The distinct values of the sorted 1-D array ``s``; ``s`` itself when
    no value repeats.

    With ``np.sort`` first this is ``np.unique`` through one sort and a
    neighbour mask: a plain ``np.unique`` takes a hash-based path on numpy
    2.x that is tens of times slower than sorting for large integer arrays.
    """
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s if keep.all() else s[keep]


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
        omitted the labels are the dense ids themselves.  An id outside
        ``[0, node_count)`` raises ``ValueError`` naming the first one, in
        edge order.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("endpoint arrays differ in length")
        top = int(max(u.max(initial=-1), v.max(initial=-1)))
        if node_count is None:
            node_count = top + 1
        node_count = int(node_count)
        if top >= node_count or min(u.min(initial=0), v.min(initial=0)) < 0:
            ends = np.column_stack((u, v)).ravel()
            bad = ends[np.argmax((ends < 0) | (ends >= node_count))]
            raise ValueError(f"node id {bad} outside [0, {node_count})")

        # canonical orientation, then dedupe on the combined key; each array
        # below is built in place and dropped once used.  The key
        # min * n + max is summed as min * (n - 1) + u + v, which needs no
        # temporary
        key = np.minimum(u, v)
        key *= node_count - 1
        key += u
        key += v
        loops = u == v
        del u, v
        self_loops = int(np.count_nonzero(loops))
        key[loops] = _INT64_MAX  # a self loop sorts last and is cut off
        del loops
        key.sort()
        uniq = _distinct(key[:key.size - self_loops])
        duplicates = int(key.size - self_loops - uniq.size)
        del key

        # both orientations sorted by (row, column): rows in order, each
        # row's neighbours ascending
        m = uniq.size
        both = np.empty(2 * m, dtype=np.int64)
        low, high = both[:m], both[m:]
        np.floor_divide(uniq, node_count, out=low)
        np.remainder(uniq, node_count, out=high)
        counts = np.bincount(low, minlength=node_count)
        counts += np.bincount(high, minlength=node_count)
        high *= node_count
        high += low
        low[:] = uniq
        del uniq, low, high
        both.sort()
        indices = np.remainder(both, node_count, out=both)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        if orig_ids is None:
            orig_ids = np.arange(node_count, dtype=np.int64)
        return cls(node_count, m, indptr, indices, orig_ids,
                   self_loops, duplicates)

    def degrees(self):
        return np.diff(self.indptr)

    def to_dense(self, labels):
        """Translate original node labels to dense ids; an unknown label
        raises ``ValueError`` naming the smallest one."""
        labels = np.asarray(labels, dtype=np.int64)
        pos = np.searchsorted(self.orig_ids, labels)
        if self.orig_ids.size == 0:  # a network without nodes has none of them
            bad = np.ones(labels.shape, dtype=bool)
        else:
            pos_c = np.minimum(pos, self.orig_ids.size - 1)
            bad = (pos >= self.orig_ids.size) | (self.orig_ids[pos_c] != labels)
        if bad.any():
            missing = labels[bad].min()
            raise ValueError(f"node {missing} not present in the network")
        return pos


def load_edge_list(stream):
    """Parse an edge-list stream: one ``u v`` pair per line.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped; a ``#`` after data on the same line is an error.  Node ids must
    be non-negative integers that fit in int64.  Self loops and duplicate
    edges are dropped and counted in the network's ``self_loops_dropped``
    and ``duplicates_dropped``; nothing is logged.  Labels are compacted to
    dense ids in label order, the sorted unique labels retained in
    ``orig_ids``: through a presence mask and a lookup table when the
    largest label is below twice the number of endpoints, by sorting
    otherwise.

    ``stream`` is a binary or text file object, or any iterable of lines,
    read by :func:`_read_ids`.
    """
    edges, _ = _read_ids(stream, 2)
    edges, labels = _dense_labels(edges)
    return Network.from_edge_array(edges[:, 0], edges[:, 1], orig_ids=labels,
                                   node_count=labels.size)


def _dense_labels(ids):
    """``ids`` (non-negative) overwritten with their ranks 0..n-1 among the
    distinct values; returns it and the sorted distinct values.

    When the largest value is below twice the number of ids, a presence mask
    and a lookup table (9 bytes a slot, so at most 18 an id) rank them in two
    O(n) passes, written back a slice at a time; otherwise one sort does,
    which allocates at least 24 bytes an id.  Both give the same result.
    """
    top = int(ids.max())
    if top < 2 * ids.size:
        present = np.zeros(top + 1, dtype=bool)
        present[ids] = True
        labels = np.flatnonzero(present)
        dense_of = np.empty(top + 1, dtype=np.int64)
        dense_of[labels] = np.arange(labels.size)
        for start in range(0, len(ids), _BLOCK):
            ids[start:start + _BLOCK] = dense_of[ids[start:start + _BLOCK]]
        return ids, labels
    labels, ranks = np.unique(ids, return_inverse=True)
    ids[...] = ranks.reshape(ids.shape)
    return ids, labels


# bytes per ``np.fromstring`` call of the fast reader: small enough that a
# block's temporaries stay below malloc's mmap threshold and are reused from
# one block to the next; 1 MiB blocks are mapped and faulted in again for
# every block (about 100k page faults for a 100 MB file)
_BLOCK = 1 << 16

# ``bytes.translate`` table of the fast reader's byte classes; it takes no
# other byte outside a comment
_BLANK, _NEWLINE, _DIGIT, _HASH, _OTHER = range(5)
_BYTE_CLASS = bytes(
    _BLANK if c in b" \t\r" else _NEWLINE if c == ord("\n")
    else _DIGIT if c in b"0123456789" else _HASH if c == ord("#") else _OTHER
    for c in range(256))


def _read_ids(stream, width=None):
    """``(ids, sizes)`` of a stream, as :func:`_scan_ids` returns them.

    A binary stream is read whole and, when well formed, parsed in blocks of
    about 64 KiB by ``np.fromstring`` (:func:`_scan_ids`); anything else, a
    buffer that reader refuses included, goes through :func:`_parse_lines`,
    which reports the first bad line.  Both give the same ids and the same
    :class:`ParseError`.  The file bytes are dropped on return, so no caller
    holds them through a build.
    """
    if isinstance(stream, (io.BufferedIOBase, io.RawIOBase)):
        data = stream.read()  # binary streams break lines at b"\n" only
        scanned = _scan_ids(data, width)
        if scanned is not None:
            return scanned
        stream = io.BytesIO(data)
    return _parse_lines(stream, width)


def _scan_ids(data, width=None):
    """The ids of a byte buffer and the number on each line holding any,
    parsed about 64 KiB at a time by ``np.fromstring``; or None where
    :func:`_parse_lines` might give another result.

    Returns ``(ids, sizes)``: the int64 ids in file order and, for each line
    holding any, their number.  With ``width`` every line must hold none or
    ``width`` ids, and the result is ``(ids.reshape(-1, width), None)``.
    Comment lines are blanked first.  Outside them only digits, spaces, tabs
    and ``\\r\\n`` or ``\\n`` line ends are taken.  Anything else returns
    None: a non-ASCII byte, a bare ``\\r``, a ``#`` after data, a sign or any
    other byte, an error or warning from ``fromstring``, a value count that
    differs from the number of digit runs, a value of ``INT64_MAX``
    (``fromstring`` saturates on overflow), or no ids at all.

    Every block is checked and its ids counted before any is parsed, so the
    ids fill one array of the exact size and a block's parse is dropped once
    copied into it.
    """
    if not data.isascii() or (b"\r" in data
                               and data.count(b"\r") != data.count(b"\r\n")):
        return None
    cuts, counts, sizes = [0], [], []
    while cuts[-1] < len(data):
        # cut after a newline, so every line lies in one block
        end = data.find(b"\n", cuts[-1] + _BLOCK) + 1 or len(data)
        checked = _check_block(data[cuts[-1]:end], width)
        if checked is None:
            return None
        counts.append(checked[0])
        sizes.append(checked[1])
        cuts.append(end)
    ids = np.empty(sum(counts), dtype=np.int64)
    if ids.size == 0:
        return None  # the line parser names the empty input
    at = 0
    for start, end, count in zip(cuts, cuts[1:], counts):
        if count:
            values = _parse_block(data[start:end], count)
            if values is None:
                return None
            ids[at:at + count] = values
            at += count
    if width is not None:
        return ids.reshape(-1, width), None
    return ids, np.concatenate(sizes)


def _check_block(block, width):
    """The number of digit runs in one block that ends at a line end, and
    (without ``width``) the number on each line holding any; None when the
    block holds a byte :func:`_scan_ids` refuses, or a line of other than 0
    or ``width`` runs."""
    cls = _byte_classes(block)
    if b"#" in block:
        block = _blank_comment_lines(block, cls)
        if block is None:
            return None
        cls = _byte_classes(block)
    if cls.max() > _DIGIT:
        return None
    runs = _run_starts(cls == _DIGIT)
    count = int(np.count_nonzero(runs))
    # one byte per digit run and per line end, in file order, with every
    # line closed at both ends
    run, end = bytes([_DIGIT]), bytes([_NEWLINE])
    events = end + cls[runs | (cls == _NEWLINE)].tobytes() + end
    if width is not None:
        if run * (width + 1) in events or any(
                end + run * k + end in events for k in range(1, width)):
            return None
        return count, None
    ends = np.flatnonzero(np.frombuffer(events, dtype=np.uint8) == _NEWLINE)
    per_line = np.diff(ends) - 1
    return count, per_line[per_line > 0]


def _parse_block(block, count):
    """The ``count`` int64 values of one block :func:`_check_block` took, or
    None on an error, a warning, another number of values or a value
    :func:`_scan_ids` refuses."""
    if b"#" in block:
        block = _blank_comment_lines(block, _byte_classes(block))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids = np.fromstring(block, dtype=np.int64, sep=" ")
    except (ValueError, Warning):
        return None
    if ids.size != count or ids.min() < 0 or ids.max() == _INT64_MAX:
        return None
    return ids


def _byte_classes(block):
    return np.frombuffer(block.translate(_BYTE_CLASS), dtype=np.uint8)


def _run_starts(mask):
    """True where a run of True values of ``mask`` begins."""
    first = np.empty_like(mask)
    first[:1] = mask[:1]
    np.greater(mask[1:], mask[:-1], out=first[1:])
    return first


def _blank_comment_lines(block, cls):
    """``block`` with each line whose first non-blank byte is ``#`` blanked
    from there to its end; None when a ``#`` follows data on its line."""
    hashes = np.flatnonzero(cls == _HASH)
    # bounds[i] + 1 is where line i starts and bounds[i + 1] where it ends
    bounds = np.concatenate(([-1], np.flatnonzero(cls == _NEWLINE), [cls.size]))
    line = np.searchsorted(bounds, hashes) - 1
    words = np.flatnonzero(_run_starts(cls > _NEWLINE))
    first = words[np.searchsorted(words, bounds[line] + 1)]
    if (cls[first] != _HASH).any():
        return None
    first, one = np.unique(first, return_index=True)
    buf = np.frombuffer(block, dtype=np.uint8).copy()
    buf[concat_ranges(first, bounds[line[one] + 1])] = ord(" ")
    return buf.tobytes()


def _parse_lines(lines, width=None):
    """``(ids, sizes)`` of an iterable of lines, as :func:`_scan_ids`
    returns them, parsed one line at a time; raises :class:`ParseError`
    naming the first bad line.  With ``width`` (2: an edge list) a line must
    hold none or ``width`` ids, and an error message quotes the line."""
    ids, sizes = [], []
    for lineno, raw in enumerate(lines, 1):
        if isinstance(raw, bytes):
            raw = raw.decode("ascii", errors="replace")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if width is not None and len(parts) != width:
            raise ParseError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            values = [int(tok) for tok in parts]
        except ValueError:
            problem = "non-integer node id"
        else:
            problem = ("negative node id" if min(values) < 0
                       else "node id beyond int64" if max(values) > _INT64_MAX
                       else None)
        if problem is not None:
            quoted = "" if width is None else f" in {line!r}"
            raise ParseError(f"line {lineno}: {problem}{quoted}")
        ids += values
        sizes.append(len(values))
    if not sizes:
        raise ParseError("no communities found in input" if width is None
                         else "no edges found in input")
    ids = np.array(ids, dtype=np.int64)
    if width is not None:
        return ids.reshape(-1, width), None
    return ids, np.array(sizes, dtype=np.int64)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


class NodeCommunityMap:
    """Dense node-label -> community-id lookup; -1 marks unassigned."""

    __slots__ = ("comm_of", "universe_size")

    def __init__(self, comm_of, universe_size):
        self.comm_of = comm_of
        self.universe_size = int(universe_size)

    def covered_nodes(self):
        return np.flatnonzero(self.comm_of >= 0)


class Partition:
    """Disjoint communities over a node universe.

    ``members`` holds the int64 node labels of every community, sorted within
    each, and community k is ``members[offsets[k]:offsets[k + 1]]``; ids follow
    input order (k-th line / k-th list) and a repeated node counts once.
    """

    __slots__ = ("members", "offsets", "sizes", "universe_size")

    def __init__(self, communities, universe_size):
        comms = list(communities)
        sizes = np.fromiter(map(len, comms), dtype=np.int64, count=len(comms))
        flat = np.fromiter(itertools.chain.from_iterable(comms), dtype=np.int64,
                           count=int(sizes.sum()))
        comm = np.repeat(np.arange(sizes.size), sizes)
        # the first bad community in input order names the error
        empty, negative = np.flatnonzero(sizes == 0), comm[flat < 0]
        if empty.size or negative.size:
            if negative.size == 0 or (empty.size and empty[0] < negative[0]):
                raise ValueError("empty community")
            raise ValueError("negative node id in community")
        if not comms:
            raise ValueError("partition has no communities")
        universe_size = int(universe_size)
        if universe_size <= 0:
            raise ValueError("universe size must be positive")

        # one sort of (community, label rank) orders each community and drops
        # a node repeated on its line; a label left in two places overlaps
        rank, labels = _dense_labels(flat)
        key = _distinct(np.sort(comm * labels.size + rank))
        comm, rank = np.divmod(key, labels.size)
        if key.size != labels.size:
            node = int(labels[np.argmax(np.bincount(rank) > 1)])
            raise OverlapError(f"node {node} appears in more than one community")
        self._set(labels[rank], np.bincount(comm, minlength=sizes.size),
                  universe_size)

    def _set(self, members, sizes, universe_size):
        """Community k is the next ``sizes[k]`` labels of ``members``."""
        if universe_size <= 0:
            raise ValueError("universe size must be positive")
        if members.size > universe_size:
            raise ValueError(f"{members.size} distinct nodes exceed declared "
                             f"universe of {universe_size}")
        self.members, self.sizes, self.universe_size = members, sizes, universe_size
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        return self

    def __len__(self):
        return self.sizes.size

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.universe_size == other.universe_size
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.members, other.members))

    @property
    def communities(self):
        """Sorted member array of each community, built on each call."""
        return np.split(self.members, self.offsets[1:-1])

    @property
    def covered_count(self):
        return int(self.members.size)

    @property
    def label_space(self):
        return int(self.members.max()) + 1

    def take(self, comm_ids):
        """Sizes and concatenated members of the communities ``comm_ids``."""
        ids = np.asarray(comm_ids, dtype=np.int64).reshape(-1)
        starts, ends = self.offsets[ids], self.offsets[ids + 1]
        return ends - starts, self.members[concat_ranges(starts, ends)]

    def node_map(self):
        return NodeCommunityMap(
            scatter_labels(np.arange(len(self)), self.sizes, self.members),
            self.universe_size)

    @classmethod
    def from_node_map(cls, node_map):
        """Inverse of :meth:`node_map`: group labels by community id."""
        comm_of = node_map.comm_of
        covered = np.flatnonzero(comm_of >= 0)
        if covered.size == 0:
            raise ValueError("node map assigns no nodes")
        ids = comm_of[covered]
        sizes = np.bincount(ids)
        if not sizes.all():
            raise ValueError("community ids are not contiguous from 0")
        return cls.__new__(cls)._set(covered[np.argsort(ids, kind="stable")],
                                     sizes, int(node_map.universe_size))


def scatter_labels(comm_ids, sizes, members):
    """Node label -> community id array over the labels ``members`` uses, -1
    for labels in no community; community ``comm_ids[i]`` holds the next
    ``sizes[i]`` entries of ``members``."""
    comm_of = np.full(int(members.max(initial=-1)) + 1, -1, dtype=np.int64)
    comm_of[members] = np.repeat(comm_ids, sizes)
    return comm_of


def rank_labels(*partitions):
    """The partitions with every node label replaced by its rank among the
    labels any of them uses.  Set structure, and so every extrinsic metric,
    is unchanged; label-indexed arrays shrink to the nodes covered.  The
    comparison runners call it on every pair whose labels are not already
    dense, so any int64 ids work from the library and the CLI alike."""
    ranks, _ = _dense_labels(np.concatenate([p.members for p in partitions]))
    cuts = np.cumsum([p.members.size for p in partitions])[:-1]
    return [Partition.__new__(Partition)._set(r, p.sizes, p.universe_size)
            for p, r in zip(partitions, np.split(ranks, cuts))]


def parse_community_lines(stream):
    """Read raw community member lists: one community per line, ids
    whitespace-separated.  No partition semantics are checked here.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped.  ``stream`` is a binary or text file object, or any iterable of
    lines, read by :func:`_read_ids` as an edge list is.
    """
    ids, sizes = _read_ids(stream)
    flat = iter(ids.tolist())
    return [list(itertools.islice(flat, n)) for n in sizes.tolist()]


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


class PartitionShard:
    """The communities of one worker under modulo sharding; community
    ``comm_ids[i]`` holds the next ``sizes[i]`` labels of ``members``."""

    __slots__ = ("comm_ids", "sizes", "members")

    def __init__(self, comm_ids, sizes, members):
        self.comm_ids, self.sizes, self.members = comm_ids, sizes, members

    def __len__(self):
        return self.comm_ids.size

    @property
    def communities(self):
        return np.split(self.members, np.cumsum(self.sizes)[:-1]) if len(self) else []


def shard(partition, num_workers, worker_id):
    """Extract the communities owned by ``worker_id`` under modulo sharding."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if not 0 <= worker_id < num_workers:
        raise ValueError(f"worker_id {worker_id} outside [0, {num_workers})")
    ids = np.arange(worker_id, len(partition), num_workers, dtype=np.int64)
    return PartitionShard(ids, *partition.take(ids))


# ---------------------------------------------------------------------------
# Contingency
# ---------------------------------------------------------------------------


def build_contingency(ground, detected, detected_labels=None, num_workers=1,
                      worker_id=0):
    """Sparse table of community overlaps |c_i ∩ c'_j| between two partitions,
    restricted to the ground rows ``worker_id::num_workers``.

    ``detected_labels`` maps a node label to its detected community id, with
    -1 or a label past its end meaning unassigned; it defaults to
    ``detected.node_map().comm_of``.  One sort over ``row * num_cols +
    column`` lists the cells in (row, column) order, so a per-row reduction
    of a row slice repeats the arithmetic of the full table, which is the
    one-worker call.  The marginals are always the full ``ground.sizes`` and
    ``detected.sizes``.  Returns a
    :class:`~commqual.info_metrics.ContingencyTable`.
    """
    from .info_metrics import ContingencyTable

    if ground.universe_size != detected.universe_size:
        raise ValueError("partitions declare different universe sizes")
    if detected_labels is None:
        detected_labels = detected.node_map().comm_of
    own = shard(ground, num_workers, worker_id)
    members = own.members
    row_of = np.repeat(own.comm_ids, own.sizes)
    cols = np.full(members.size, -1, dtype=np.int64)
    inside = members < detected_labels.size
    cols[inside] = detected_labels[members[inside]]
    both = cols >= 0
    ncols = len(detected)
    uniq, counts = np.unique(row_of[both] * ncols + cols[both],
                             return_counts=True)
    return ContingencyTable(
        rows=uniq // ncols,
        cols=uniq % ncols,
        counts=counts.astype(np.int64),
        row_sizes=ground.sizes.copy(),
        col_sizes=detected.sizes.copy(),
        universe_size=ground.universe_size,
    )
