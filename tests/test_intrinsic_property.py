"""The intrinsic kernel on random graphs and partitions against the
plain-Python oracles, its per-community terms against the same formulas
evaluated one Python float at a time (bit for bit), and each worker shard
``p::w`` against the whole-partition terms (bit for bit)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from commqual.graph import Network, Partition  # noqa: E402
from commqual.intrinsic_metrics import (  # noqa: E402
    community_stats, intrinsic_partial, modularity_density_terms,
    modularity_terms,
)


@st.composite
def graph_and_partition(draw):
    """A network on ``n`` nodes (some isolated) and a partition whose nodes
    may be unassigned (label -1) or alone in their community."""
    n = draw(st.integers(2, 24))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=60))
    pairs = [(u, v) for u, v in pairs if u != v] or [(0, 1)]
    labels = draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n))
    if max(labels) < 0:
        labels[0] = 0
    used = sorted({x for x in labels if x >= 0})
    communities = [[v for v in range(n) if labels[v] == c] for c in used]
    u, v = zip(*pairs)
    return Network.from_edge_array(u, v, node_count=n), Partition(communities, n)


def edge_set(net):
    src = np.repeat(np.arange(net.node_count), net.degrees())
    mask = src < net.indices
    return list(zip(src[mask].tolist(), net.indices[mask].tolist()))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def scalar_terms(ref, m):
    """Per-community Q and Qds terms, one Python float operation at a time,
    neighbours in ascending id order."""
    m = float(m)
    q, qds = [], []
    for k in sorted(ref):
        nc, inn, out, nbrs = ref[k]
        q.append(inn / m - ((2 * inn + out) / (2 * m)) ** 2)
        d_c = 2.0 * inn / (nc * (nc - 1)) if nc > 1 else 0.0
        term = inn / m * d_c
        term -= ((2 * inn + out) / (2 * m) * d_c) ** 2
        for j in sorted(nbrs):
            term -= nbrs[j] / (2 * m) * (nbrs[j] / (nc * float(ref[j][0])))
        qds.append(term)
    return q, qds


@settings(max_examples=300, deadline=None)
@given(graph_and_partition())
def test_kernel_matches_oracles(case):
    net, part = case
    edges = edge_set(net)
    comms = [set(c.tolist()) for c in part.communities]
    ref = oracles.graph_stats_reference(edges, comms)
    stats = community_stats(net, part)
    assert len(stats) == len(comms)
    for s in stats:
        size, inn, out, nbrs = ref[s.community_id]
        assert (s.size, s.in_edges, s.out_edges) == (size, inn, out)
        assert s.neighbor_edges == dict(nbrs)
        assert s.unassigned_edges == out - sum(nbrs.values())
    q, qds = scalar_terms(ref, net.edge_count)
    q_terms = modularity_terms(stats, net.edge_count)
    qds_terms = modularity_density_terms(stats, net.edge_count, part.sizes)
    assert bits(q_terms) == bits(q)
    assert bits(qds_terms) == bits(qds)
    assert math.fsum(q_terms) == pytest.approx(
        oracles.modularity_reference(edges, comms), abs=1e-12)
    assert math.fsum(qds_terms) == pytest.approx(
        oracles.modularity_density_reference(edges, comms), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(graph_and_partition())
def test_worker_shards_repeat_whole_partition_terms(case):
    net, part = case
    m = net.edge_count
    whole = community_stats(net, part)
    want = {"q": modularity_terms(whole, m),
            "qds": modularity_density_terms(whole, m, part.sizes),
            "in": whole.in_edges, "out": whole.out_edges}
    for w in (1, 2, 3):
        for p in range(w):
            got = intrinsic_partial(net, part, w, p)
            assert got["ids"].tolist() == list(range(len(part)))[p::w]
            for key in ("q", "qds"):
                assert bits(got[key]) == bits(want[key][p::w]), (key, w, p)
            for key in ("in", "out"):
                assert got[key].tolist() == want[key][p::w].tolist(), (key, w, p)
