import io
import tracemalloc
import warnings

import numpy as np
import pytest

from commqual.graph import (
    _BLOCK, Network, OverlapError, ParseError, Partition, _dense_labels,
    _distinct, _scan_ids, build_contingency, load_edge_list,
    parse_community_lines, shard,
)
from conftest import random_partition
from oracles import network_reference


def test_edge_list_basic():
    net = load_edge_list(io.StringIO("# comment\n1 2\n2 3\n\n3 1\n"))
    assert net.node_count == 3
    assert net.edge_count == 3
    assert net.orig_ids.tolist() == [1, 2, 3]
    assert net.indices[net.indptr[0]:net.indptr[1]].tolist() == [1, 2]


def test_edge_list_drops_and_counts():
    net = load_edge_list(io.StringIO("1 1\n1 2\n2 1\n1 2\n2 3\n"))
    assert net.self_loops_dropped == 1
    assert net.duplicates_dropped == 2
    assert net.edge_count == 2


def test_edge_list_drops_log_nothing(caplog):
    # the counts are the whole report; the CLI prints its own warnings
    caplog.set_level("DEBUG")
    # the block reader and the line parser alike
    for stream in (io.BytesIO(b"1 1\n1 2\n2 1\n"), io.StringIO("1 1\n1 2\n2 1\n")):
        net = load_edge_list(stream)
        assert (net.self_loops_dropped, net.duplicates_dropped) == (1, 1)
    assert caplog.records == []


def test_to_dense_names_the_smallest_missing_label():
    net = load_edge_list(io.StringIO("1 2\n"))
    with pytest.raises(ValueError, match="^node 97 not present in the network$"):
        net.to_dense([98, 1, 97])


def test_edge_list_bytes_stream():
    net = load_edge_list(io.BytesIO(b"0 1\n1 2\n"))
    assert net.edge_count == 2


@pytest.mark.parametrize("text,fragment", [
    ("1 2 3\n", "line 1"),
    ("1 x\n", "line 1"),
    ("0 1\n-1 2\n", "line 2"),
    ("", "no edges"),
])
def test_edge_list_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_edge_list(io.StringIO(text))


# 50,000 good lines, so a bad line lands deep in the file at line 50,001
_DEEP = "".join(f"{i} {3 * i + 1}\n" for i in range(50_000))


def _load_quietly(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may escape either path
        return load_edge_list(io.BytesIO(data))


def _assert_matches_reference(net, data):
    pairs = [tuple(map(int, line.split())) for line in data.decode().splitlines()
             if line.strip() and not line.strip().startswith("#")]
    for field, value in network_reference(pairs).items():
        actual = getattr(net, field)
        assert (actual.tolist() if hasattr(actual, "tolist") else actual) == value, field


@pytest.mark.parametrize("tail,message", [
    ("1 2 3\n", "line 50001: expected two node ids, got '1 2 3'"),
    # an even number of ids in all, so only the per-line check can refuse
    ("1\n2\n", "line 50001: expected two node ids, got '1'"),
    ("1 2 3\n4\n", "line 50001: expected two node ids, got '1 2 3'"),
    ("1 x\n", "line 50001: non-integer node id in '1 x'"),
    ("1 -2\n", "line 50001: negative node id in '1 -2'"),
    ("1 2 # c\n", "line 50001: expected two node ids, got '1 2 # c'"),
    ("1 2\r3 4\n", "line 50001: expected two node ids, got '1 2\\r3 4'"),
    ("99999999999999999999 1\n",
     "line 50001: node id beyond int64 in '99999999999999999999 1'"),
])
def test_edge_list_deep_bad_line(tail, message):
    data = (_DEEP + tail + "7 8\n").encode()
    assert _scan_ids(data, 2) is None
    with pytest.raises(ParseError) as info:
        _load_quietly(data)
    assert str(info.value) == message


@pytest.mark.parametrize("text", [
    _DEEP.replace("\n", "\r\n") + "7 8\r\n",  # CRLF
    _DEEP + "7 8",  # no final newline
    _DEEP + "  # c 1 2\n\t#\n\n7 8\n",  # comments and a blank line deep down
])
def test_edge_list_deep_good_input_takes_fast_path(text):
    data = text.encode()
    assert _scan_ids(data, 2) is not None
    _assert_matches_reference(_load_quietly(data), data)


def test_edge_list_only_comments():
    data = b"# a\n" * 50_001
    with pytest.raises(ParseError, match="^no edges found in input$"):
        _load_quietly(data)


def test_blank_lines_only():
    # np.fromstring reads a blank buffer as [0]; the readers must not
    data = b"  \n" * 50_001
    with pytest.raises(ParseError, match="^no edges found in input$"):
        _load_quietly(data)
    with pytest.raises(ParseError, match="^no communities found in input$"):
        parse_community_lines(io.BytesIO(data))


def test_edge_list_int64_edges():
    for stream in (io.StringIO(f"0 {2**63 - 1}\n"),
                   io.BytesIO(f"0 {2**63 - 1}\n".encode())):
        net = load_edge_list(stream)
        assert net.orig_ids.tolist() == [0, 2**63 - 1]
    with pytest.raises(ParseError, match="^line 2: node id beyond int64 in "):
        load_edge_list(io.StringIO(f"0 1\n0 {2**63}\n"))


def test_edge_list_bad_line_past_first_block():
    good = "".join(f"{i} {i + 1}\n" for i in range(3 * _BLOCK // 12))
    assert len(good) > 2 * _BLOCK
    lineno = good.count("\n") + 1
    data = (good + "1 x\n7 8\n").encode()
    with pytest.raises(ParseError) as info:
        _load_quietly(data)
    assert str(info.value) == f"line {lineno}: non-integer node id in '1 x'"


def test_edge_list_crlf_at_block_cut():
    body = "".join(f"{i} {i + 1}\r\n" for i in range(_BLOCK // 8))
    # leading zeros on the first id move a \r\n onto the block boundary
    pad = _BLOCK - 1 - body.rindex("\r", 0, _BLOCK)
    data = ("0" * pad + body).encode()
    assert data[_BLOCK - 1:_BLOCK + 1] == b"\r\n"
    assert _scan_ids(data, 2) is not None
    _assert_matches_reference(_load_quietly(data), data)


def test_edge_reader_peak_memory():
    # reading block by block, the reader peaks below the network build that
    # follows it; a whole-buffer scan would not
    data = "".join(f"{i} {3 * i + 1}\n" for i in range(330_000)).encode()
    assert len(data) > 4_000_000
    tracemalloc.start()
    try:
        edges, _ = _scan_ids(data, 2)
        reader_peak = tracemalloc.get_traced_memory()[1]
        u, v = edges[:, 0].copy(), edges[:, 1].copy()
        tracemalloc.reset_peak()
        Network.from_edge_array(u, v)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reader_peak <= build_peak


def test_from_edge_array_peak_memory():
    # the build sorts and reduces in place: beyond its inputs it holds the
    # key, its deduplicated copy and the two orientations, about 1.5 times
    # the CSR it returns
    rng = np.random.default_rng(21)
    u = rng.integers(0, 20_000, 300_000)
    v = rng.integers(0, 20_000, 300_000)
    tracemalloc.start()
    try:
        net = Network.from_edge_array(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.self_loops_dropped and net.duplicates_dropped
    assert peak <= 2 * (net.indptr.nbytes + net.indices.nbytes)


def test_load_edge_list_peak_memory():
    # SNAP-style binary input: a header, tabs, both orientations of every
    # edge, sparse labels.  The file bytes go once parsed and the ids are
    # held once, ranked in place: the peak is the ids plus the build, about
    # 3.3 times the network returned (8.7 times when the bytes, a second
    # copy of the ids and the build's temporaries were all held)
    rng = np.random.default_rng(22)
    u = 3 * rng.integers(0, 20_000, 150_000) + 1
    v = 3 * rng.integers(0, 20_000, 150_000) + 1
    text = "".join(f"{a}\t{b}\n{b}\t{a}\n" for a, b in zip(u.tolist(), v.tolist()))
    data = ("# Nodes: 20000\n" + text).encode()
    tracemalloc.start()
    try:
        net = _load_quietly(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.duplicates_dropped >= 150_000
    out = net.indptr.nbytes + net.indices.nbytes + net.orig_ids.nbytes
    assert peak <= 4 * out


@pytest.mark.parametrize("pairs", [
    [(0, 1), (1, 2), (5, 3)],  # largest label = endpoints - 1: lookup table
    [(0, 1), (1, 2), (6, 3)],  # largest label = endpoints: lookup table
    [(1, 2), (2, 3), (3, 1), (4, 1), (2, 1)],  # 1-based
    [(3 * u + 1, 3 * v + 1) for u, v in
     [(0, 1), (1, 2), (2, 0), (3, 4), (4, 0), (7, 7), (4, 3)]],  # 3i+1
    [(2**62, 2**62 + 5), (2**62 + 5, 3), (3, 2**62), (9, 9)],  # near 2^62: sorted
])
def test_edge_list_label_mapping(pairs):
    data = "".join(f"{u} {v}\n" for u, v in pairs).encode()
    for stream in (io.BytesIO(data), io.StringIO(data.decode())):
        net = load_edge_list(stream)
        for field, value in network_reference(pairs).items():
            actual = getattr(net, field)
            assert (actual.tolist() if hasattr(actual, "tolist") else actual) == value, field
    missing = max(max(p) for p in pairs) + 1
    with pytest.raises(ValueError) as info:
        net.to_dense([min(min(p) for p in pairs), missing])
    assert str(info.value) == f"node {missing} not present in the network"


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(9)
    for x in (np.empty(0, dtype=np.int64), np.array([5]),
              rng.integers(-50, 50, size=(300, 2)), rng.integers(0, 10**12, 1000)):
        got = _distinct(np.sort(x, axis=None))
        assert got.dtype == x.dtype
        assert np.array_equal(got, np.unique(x))


@pytest.mark.parametrize("size", [1, 2, 7, 500])
@pytest.mark.parametrize("top", ["size-1", "2size-1", "2size", "2**62"])
def test_dense_labels_matches_np_unique(size, top):
    # the lookup table ranks while the largest id is below 2 * size, a sort
    # from there on; both must agree with np.unique
    largest = {"size-1": size - 1, "2size-1": 2 * size - 1, "2size": 2 * size,
               "2**62": 2**62}[top]
    rng = np.random.default_rng(size)
    ids = rng.integers(0, largest + 1, size=size, dtype=np.int64)
    ids[rng.integers(size)] = largest
    # the ids are ranked in place, also through a strided view
    for shaped in (ids.copy(), ids.reshape(-1, 1).copy(),
                   np.column_stack([ids, ids])[:, 1]):
        want_labels, want_ranks = np.unique(shaped, return_inverse=True)
        ranks, labels = _dense_labels(shaped)
        assert ranks is shaped
        assert np.array_equal(labels, want_labels)
        assert ranks.shape == shaped.shape
        assert np.array_equal(ranks.reshape(-1), want_ranks.reshape(-1))


def test_from_edge_array_matches_reference():
    rng = np.random.default_rng(13)
    for n in (1, 2, 30, 200):
        u = rng.integers(0, n, size=4 * n)
        v = rng.integers(0, n, size=4 * n)
        net = Network.from_edge_array(u, v, node_count=n)
        # a self loop at every node keeps the reference's labels at 0..n-1
        pairs = list(zip(u.tolist(), v.tolist()))
        ref = network_reference(pairs + [(x, x) for x in range(n)])
        assert net.indptr.tolist() == ref["indptr"]
        assert net.indices.tolist() == ref["indices"]
        assert net.edge_count == ref["edge_count"]
        assert net.duplicates_dropped == ref["duplicates_dropped"]
        assert net.self_loops_dropped == int(np.count_nonzero(u == v))


def test_csr_invariants_random():
    # conftest.random_graph(rng, 200, 8), with its pairs kept for the reference
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.integers(0, 200, size=1600)
        v = rng.integers(0, 200, size=1600)
        keep = u != v
        net = Network.from_edge_array(u[keep], v[keep], node_count=200)
        pairs = list(zip(u[keep].tolist(), v[keep].tolist()))
        ref = network_reference(pairs + [(x, x) for x in range(200)])
        assert net.indptr.tolist() == ref["indptr"]
        assert net.indices.tolist() == ref["indices"]
        assert net.edge_count == ref["edge_count"]
        assert int(net.degrees().sum()) == 2 * net.edge_count


def test_to_dense():
    net = load_edge_list(io.StringIO("10 20\n20 30\n"))
    assert net.to_dense([10, 30, 20]).tolist() == [0, 2, 1]
    with pytest.raises(ValueError, match="node 99"):
        net.to_dense([10, 99])


def test_to_dense_on_a_network_without_nodes():
    net = Network.from_edge_array([], [])
    assert net.node_count == 0 and net.edge_count == 0
    ref = network_reference([])
    assert net.indptr.tolist() == ref["indptr"]
    assert net.indices.tolist() == ref["indices"]
    assert net.to_dense([]).tolist() == []
    with pytest.raises(ValueError) as info:
        net.to_dense([5, 7])
    assert str(info.value) == "node 5 not present in the network"


def test_partition_validation():
    with pytest.raises(OverlapError, match="node 3"):
        Partition([[1, 2, 3], [3, 4]], 6)
    with pytest.raises(ValueError):
        Partition([[1, 2], []], 6)
    with pytest.raises(ValueError):
        Partition([], 6)
    with pytest.raises(ValueError):
        Partition([[0, 1, 2]], 2)  # more nodes than universe
    p = Partition([[2, 1], [5]], 6)
    assert p.communities[0].tolist() == [1, 2]  # sorted on construction
    assert p.sizes.tolist() == [2, 1]
    assert p.covered_count != p.universe_size


def test_load_communities():
    p = Partition(parse_community_lines(io.StringIO("1 2 3\n4 5 6\n")), 6)
    assert len(p) == 2
    assert p.covered_count == p.universe_size
    with pytest.raises(OverlapError, match="node 2"):
        Partition(parse_community_lines(io.StringIO("1 2\n2 3\n")), 6)
    with pytest.raises(ParseError):
        Partition(parse_community_lines(io.StringIO("1 a\n")), 6)


# 50,000 good community lines, so a bad line lands at line 50,001
_DEEP_COMMUNITIES = "".join(f"{i} {3 * i + 1} {3 * i + 2}\n" for i in range(50_000))


def _parse_quietly(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return parse_community_lines(io.BytesIO(data))


@pytest.mark.parametrize("tail,message", [
    ("1 x\n", "line 50001: non-integer node id"),
    ("1 -2\n", "line 50001: negative node id"),
    ("99999999999999999999 1\n", "line 50001: node id beyond int64"),
    ("1 2 # c\n", "line 50001: non-integer node id"),
])
def test_community_lines_deep_bad_line(tail, message):
    data = (_DEEP_COMMUNITIES + tail + "7 8\n").encode()
    assert _scan_ids(data) is None
    with pytest.raises(ParseError) as info:
        _parse_quietly(data)
    assert str(info.value) == message


@pytest.mark.parametrize("text", [
    _DEEP_COMMUNITIES.replace("\n", "\r\n") + "7 8\r\n",  # CRLF
    "# Undirected graph\n# FromNodeId\tToNodeId\n" + _DEEP_COMMUNITIES,  # SNAP
    _DEEP_COMMUNITIES + "  # c 1 2\n\t#\n\n \t\n7 8\n",  # deep comments, blanks
    _DEEP_COMMUNITIES + "7 8",  # no final newline
], ids=["crlf", "snap-header", "deep-comments", "no-final-newline"])
def test_community_lines_deep_good_input_takes_fast_path(text):
    data = text.encode()
    assert _scan_ids(data) is not None
    got = _parse_quietly(data)
    assert got == parse_community_lines(io.StringIO(text))
    assert len(got) >= 50_000


def test_node_map_roundtrip():
    rng = np.random.default_rng(3)
    p = random_partition(rng, 300, 12)
    back = Partition.from_node_map(p.node_map())
    assert back == p
    m = p.node_map()
    assert m.covered_nodes().size == m.universe_size
    assert m.covered_nodes().size == 300


def test_shard_modulo_rule():
    rng = np.random.default_rng(5)
    p = random_partition(rng, 200, 11)
    k = len(p)
    seen = []
    for w in range(4):
        s = shard(p, 4, w)
        assert all(int(c) % 4 == w for c in s.comm_ids)
        seen.extend(s.comm_ids.tolist())
    assert sorted(seen) == list(range(k))
    with pytest.raises(ValueError):
        shard(p, 0, 0)
    with pytest.raises(ValueError):
        shard(p, 2, 2)


def test_contingency_t1(t1_ground, t1_detected):
    t = build_contingency(t1_ground, t1_detected)
    cells = dict(zip(zip(t.rows.tolist(), t.cols.tolist()), t.counts.tolist()))
    assert cells == {(0, 0): 2, (0, 1): 1, (1, 1): 3}
    assert t.row_sizes.tolist() == [3, 3]
    assert t.col_sizes.tolist() == [2, 4]
    assert int(t.counts.sum()) == 6


def test_contingency_marginals_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(50, 400))
        p1 = random_partition(rng, n, int(rng.integers(2, 20)))
        p2 = random_partition(rng, n, int(rng.integers(2, 20)))
        t = build_contingency(p1, p2)
        row_tot = np.zeros(t.num_rows, dtype=np.int64)
        np.add.at(row_tot, t.rows, t.counts)
        col_tot = np.zeros(t.num_cols, dtype=np.int64)
        np.add.at(col_tot, t.cols, t.counts)
        assert row_tot.tolist() == t.row_sizes.tolist()
        assert col_tot.tolist() == t.col_sizes.tolist()


def test_contingency_partial_coverage():
    p1 = Partition([[0, 1], [2, 3]], 10)
    p2 = Partition([[0, 2], [1]], 10)
    t = build_contingency(p1, p2)
    assert int(t.counts.sum()) == 3  # only nodes covered by both sides
    assert t.universe_size == 10


def test_contingency_universe_mismatch():
    p1 = Partition([[0, 1]], 4)
    p2 = Partition([[0, 1]], 5)
    with pytest.raises(ValueError, match="universe"):
        build_contingency(p1, p2)
