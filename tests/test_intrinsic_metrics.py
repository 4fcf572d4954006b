import math
import operator

import numpy as np
import pytest

from commqual.engine import BackendConfig, run_intrinsic_metrics
from commqual.engine.runners import merge_partials
from commqual.graph import Network, Partition
from commqual.intrinsic_metrics import (
    community_measures, community_stats, intrinsic_partial,
    modularity_density_terms, modularity_terms,
)
from conftest import T2_EXPECTED, random_graph, random_partition, t2_network, t2_partition


def edge_set(net):
    src = np.repeat(np.arange(net.node_count), net.degrees())
    mask = src < net.indices
    return list(zip(src[mask].tolist(), net.indices[mask].tolist()))


def dense_sets(partition):
    return [set(c.tolist()) for c in partition.communities]


def report(net, part):
    """The seq run's intrinsic report."""
    return run_intrinsic_metrics(net, part)[0]


@pytest.fixture
def t2():
    net = t2_network()
    return net, t2_partition(net)


def test_t2_pinned_aggregates(t2):
    net, part = t2
    rep = report(net, part)
    assert rep.q == pytest.approx(T2_EXPECTED["q"], abs=1e-6)
    assert rep.qds == pytest.approx(T2_EXPECTED["qds"], abs=1e-6)
    assert rep.total_edges == 7


def test_t2_pinned_row(t2):
    net, part = t2
    rows = report(net, part).rows
    r = rows[0]
    got = (r.intra_edges, r.intra_density, r.contraction,
           r.inter_edges, r.expansion, r.conductance)
    for g, e in zip(got, T2_EXPECTED["row0"]):
        assert g == pytest.approx(e, abs=1e-6)
    assert not r.degenerate
    # symmetric fixture: second community matches the first
    r2 = rows[1]
    assert r2.intra_edges == r.intra_edges and r2.conductance == r.conductance


def test_empty_shard_is_identity(t2):
    # worker 2 of 3 owns neither of the two communities: zero columns
    net, part = t2
    empty = intrinsic_partial(net, part, 3, 2)
    whole = intrinsic_partial(net, part)
    assert [c.dtype for c in empty] == [np.float64, np.float64, np.int64,
                                        np.int64]
    assert [c.view(np.int64).tolist() for c in empty] == [[0, 0]] * 4
    for order in ([whole, empty], [empty, whole]):
        merged = merge_partials(operator.add, order)
        for got, want in zip(merged, whole, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_matches_reference_on_random_graphs():
    rng = np.random.default_rng(50)
    import oracles
    for _ in range(8):
        n = int(rng.integers(30, 200))
        net = random_graph(rng, n, 6)
        if net.edge_count == 0:
            continue
        part = random_partition(rng, n, int(rng.integers(2, 10)))
        edges = edge_set(net)
        comms = dense_sets(part)
        stats = community_stats(net, part)
        ref = oracles.graph_stats_reference(edges, comms)
        for s in stats:
            size, inn, out, nbrs = ref[s.community_id]
            assert (s.size, s.in_edges, s.out_edges) == (size, inn, out)
            assert s.neighbor_edges == dict(nbrs)
        q = math.fsum(modularity_terms(stats, net.edge_count))
        qds = math.fsum(modularity_density_terms(stats, net.edge_count, part.sizes))
        assert q == pytest.approx(
            oracles.modularity_reference(edges, comms), abs=1e-12)
        assert qds == pytest.approx(
            oracles.modularity_density_reference(edges, comms), abs=1e-12)


def test_subset_ids_match_full(t2):
    net, part = t2
    full = community_stats(net, part)
    only_second = community_stats(net, part, community_ids=[1])
    assert len(only_second) == 1
    s = list(only_second)[0]
    f = list(full)[1]
    assert (s.in_edges, s.out_edges, s.neighbor_edges) == (
        f.in_edges, f.out_edges, f.neighbor_edges)


def test_singleton_and_edgeless_conventions():
    # path 0-1 plus isolated node 2; communities {0,1} and {2}
    net = Network.from_edge_array([0], [1], node_count=3)
    part = Partition([[0, 1], [2]], 3)
    stats = community_stats(net, part)
    rows = community_measures(stats.ids, stats.size, stats.in_edges,
                              stats.out_edges)
    assert rows[1].size == 1
    assert rows[1].intra_density == 0.0
    assert rows[1].conductance == 0.0
    assert rows[1].degenerate
    assert not rows[0].degenerate
    # singleton density convention also feeds Qds without blowing up
    val = math.fsum(modularity_density_terms(stats, net.edge_count, part.sizes))
    assert np.isfinite(val)


def test_unassigned_neighbors_flagged():
    net = Network.from_edge_array([0, 1], [1, 2], node_count=3)
    part = Partition([[0, 1]], 3)  # node 2 unassigned
    s = list(community_stats(net, part))[0]
    assert s.in_edges == 1
    assert s.out_edges == 1
    assert s.unassigned_edges == 1
    assert s.neighbor_edges == {}


_PATH = ([0, 1], [1, 2])  # the path 0-1-2
_OUT_OF_RANGE = "partition references nodes beyond the network"


@pytest.mark.parametrize("backend,workers", [("seq", 1), ("shm", 2), ("ring", 2)])
@pytest.mark.parametrize("edges,communities,message", [
    (_PATH, [[0, 1], [3]], _OUT_OF_RANGE),
    (([0, 1], [0, 1]), [[0], [1]], "network has no edges"),  # loops only
], ids=["node range", "no edges"])
def test_intrinsic_input_rules_raise_before_any_worker(backend, workers, edges,
                                                       communities, message):
    # the runner checks both rules in the parent, so bad input is a
    # ValueError and never a worker's EngineError
    net = Network.from_edge_array(*edges)
    part = Partition(communities, 4)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_intrinsic_metrics(net, part, BackendConfig(backend, workers))


def test_community_stats_checks_the_node_range():
    net = Network.from_edge_array(*_PATH)
    with pytest.raises(ValueError, match=f"^{_OUT_OF_RANGE}$"):
        community_stats(net, Partition([[0, 1], [3]], 4))


def test_modularity_requires_edges():
    with pytest.raises(ValueError):
        math.fsum(modularity_terms([], 0))


def test_neighbor_size_lookup():
    # shard-style call: stats for one community, sizes passed explicitly
    rng = np.random.default_rng(51)
    net = random_graph(rng, 80, 5)
    part = random_partition(rng, 80, 6)
    full_stats = community_stats(net, part)
    whole = math.fsum(
        modularity_density_terms(full_stats, net.edge_count, part.sizes))
    parts = sum(
        math.fsum(modularity_density_terms(
            community_stats(net, part, community_ids=[k]),
            net.edge_count, part.sizes))
        for k in range(len(part)))
    assert parts == pytest.approx(whole, abs=1e-12)


def test_report_means(t2):
    net, part = t2
    rep = report(net, part)
    k = len(rep.rows)
    assert sum(r.intra_edges for r in rep.rows) / k == pytest.approx(3.0)
    assert (sum(r.conductance for r in rep.rows) / k
            == pytest.approx(1.0 / 7.0, abs=1e-12))
    assert rep.community_count == 2


def test_modularity_matches_networkx(t2):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(52)
    cases = [t2]
    for _ in range(6):
        n = int(rng.integers(30, 200))
        cases.append((random_graph(rng, n, 6),
                      random_partition(rng, n, int(rng.integers(2, 10)))))
    for net, part in cases:
        g = nx.Graph()
        g.add_nodes_from(range(net.node_count))
        g.add_edges_from(edge_set(net))
        want = nx.community.modularity(g, dense_sets(part))
        assert report(net, part).q == pytest.approx(want, abs=1e-12)


def test_terms_square_as_python_floats_do():
    # (33 / 82) ** 2 and (33 / 82) * (33 / 82) differ in the last bit; a term
    # keeps the value of the scalar formula
    from commqual.intrinsic_metrics import StatsTable, modularity_terms
    x = (2 * 10 + 13) / (2 * 41.0)
    assert x ** 2 != x * x
    one, empty = np.ones(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    row = StatsTable(ids=0 * one, size=5 * one, in_edges=10 * one,
                     out_edges=13 * one, unassigned_edges=0 * one,
                     ci=empty, cj=empty, cnt=empty)
    assert modularity_terms(row, 41)[0] == 10 / 41 - x ** 2
