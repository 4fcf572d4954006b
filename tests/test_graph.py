import io
import warnings

import numpy as np
import pytest

from commqual.graph import (
    Network, OverlapError, ParseError, Partition, _loadtxt_edges,
    _sorted_unique, build_contingency, load_communities, load_edge_list,
    local_subgraph, shard,
)
from conftest import random_graph, random_partition, t2_network, t2_partition
from oracles import network_reference


def test_edge_list_basic():
    net = load_edge_list(io.StringIO("# comment\n1 2\n2 3\n\n3 1\n"))
    assert net.node_count == 3
    assert net.edge_count == 3
    assert net.orig_ids.tolist() == [1, 2, 3]
    assert sorted(net.neighbors(0).tolist()) == [1, 2]


def test_edge_list_drops_and_counts():
    net = load_edge_list(io.StringIO("1 1\n1 2\n2 1\n1 2\n2 3\n"))
    assert net.self_loops_dropped == 1
    assert net.duplicates_dropped == 2
    assert net.edge_count == 2


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
    ("1 x\n", "line 50001: non-integer node id in '1 x'"),
    ("1 -2\n", "line 50001: negative node id in '1 -2'"),
    ("1 2 # c\n", "line 50001: expected two node ids, got '1 2 # c'"),
    ("1 2\r3 4\n", "line 50001: expected two node ids, got '1 2\\r3 4'"),
    ("99999999999999999999 1\n",
     "line 50001: node id beyond int64 in '99999999999999999999 1'"),
])
def test_edge_list_deep_bad_line(tail, message):
    data = (_DEEP + tail + "7 8\n").encode()
    assert _loadtxt_edges(data) is None
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
    assert _loadtxt_edges(data) is not None
    _assert_matches_reference(_load_quietly(data), data)


def test_edge_list_only_comments():
    data = b"# a\n" * 50_001
    with pytest.raises(ParseError, match="^no edges found in input$"):
        _load_quietly(data)


def test_edge_list_int64_edges():
    net = load_edge_list(io.StringIO(f"0 {2**63 - 1}\n"))
    assert net.orig_ids.tolist() == [0, 2**63 - 1]
    with pytest.raises(ParseError, match="^line 2: node id beyond int64 in "):
        load_edge_list(io.StringIO(f"0 1\n0 {2**63}\n"))


@pytest.mark.parametrize("pairs", [
    [(0, 1), (1, 2), (5, 3)],  # largest label = endpoints - 1: lookup table
    [(0, 1), (1, 2), (6, 3)],  # largest label = endpoints: sorted
    [(1, 2), (2, 3), (3, 1), (4, 1), (2, 1)],  # 1-based
    [(3 * u + 1, 3 * v + 1) for u, v in
     [(0, 1), (1, 2), (2, 0), (3, 4), (4, 0), (7, 7), (4, 3)]],  # 3i+1
    [(2**62, 2**62 + 5), (2**62 + 5, 3), (3, 2**62), (9, 9)],  # near 2^62
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
        got = _sorted_unique(x)
        assert got.dtype == x.dtype
        assert np.array_equal(got, np.unique(x))


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
        assert net.duplicates_dropped == ref["duplicates_dropped"]
        assert net.self_loops_dropped == int(np.count_nonzero(u == v))
        net.validate()


def test_csr_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        net = random_graph(rng, 200, 8)
        net.validate()
        assert int(net.degrees().sum()) == 2 * net.edge_count


def test_to_dense():
    net = load_edge_list(io.StringIO("10 20\n20 30\n"))
    assert net.to_dense([10, 30, 20]).tolist() == [0, 2, 1]
    with pytest.raises(ValueError, match="node 99"):
        net.to_dense([10, 99])


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
    assert not p.covers_universe


def test_load_communities():
    p = load_communities(io.StringIO("1 2 3\n4 5 6\n"), 6)
    assert len(p) == 2
    assert p.covers_universe
    with pytest.raises(OverlapError, match="node 2"):
        load_communities(io.StringIO("1 2\n2 3\n"), 6)
    with pytest.raises(ParseError):
        load_communities(io.StringIO("1 a\n"), 6)


def test_node_map_roundtrip():
    rng = np.random.default_rng(3)
    p = random_partition(rng, 300, 12)
    back = Partition.from_node_map(p.node_map())
    assert back == p
    m = p.node_map()
    assert m.covers_universe
    assert m.covered_count == 300


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


def test_local_subgraph_triangle_fixture():
    net = t2_network()
    part = t2_partition(net)
    sub = local_subgraph(net, shard(part, 2, 0))
    # community {1,2,3} plus boundary node 4; edges: the triangle and bridge
    assert sub.node_count == 4
    assert sub.edge_count == 4
    assert sorted(net.orig_ids[sub.orig_ids].tolist()) == [1, 2, 3, 4]
    sub.validate()


def test_local_subgraph_empty_shard():
    net = t2_network()
    part = t2_partition(net)
    s = shard(part, 5, 4)  # only 2 communities, so this shard is empty
    sub = local_subgraph(net, s)
    assert sub.node_count == 0 and sub.edge_count == 0


def test_contingency_t1(t1_ground, t1_detected):
    t = build_contingency(t1_ground, t1_detected)
    assert t.cells() == {(0, 0): 2, (0, 1): 1, (1, 1): 3}
    assert t.row_sizes.tolist() == [3, 3]
    assert t.col_sizes.tolist() == [2, 4]
    assert t.total == 6


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
    assert t.total == 3  # only nodes covered by both sides
    assert t.universe_size == 10


def test_contingency_universe_mismatch():
    p1 = Partition([[0, 1]], 4)
    p2 = Partition([[0, 1]], 5)
    with pytest.raises(ValueError, match="universe"):
        build_contingency(p1, p2)
