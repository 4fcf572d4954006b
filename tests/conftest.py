import io

import numpy as np
import pytest

from commqual.graph import Network, Partition, load_edge_list


# Two-community fixture used throughout: ground {1,2,3},{4,5,6} against
# detected {1,2},{3,4,5,6} over six nodes.  Expected metric values below were
# worked out by hand from the definitions and are pinned to six decimals.
T1_GROUND = [{1, 2, 3}, {4, 5, 6}]
T1_DETECTED = [{1, 2}, {3, 4, 5, 6}]
T1_N = 6

T1_EXPECTED = {
    "vi": 0.693147,
    "nmi": 0.478704,
    "f_measure": 0.828571,
    "nvd": 0.166667,
    "counts": (4, 2, 3, 6),
    "rand": 0.666667,
    "ari": 0.324324,
    "jaccard": 0.444444,
}

# Two triangles joined by one bridge edge; communities = the triangles.
T2_EDGES = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)]
T2_COMMUNITIES = [{1, 2, 3}, {4, 5, 6}]

T2_EXPECTED = {
    "q": 0.357143,
    "qds": 0.341270,
    # community 0: intra, density, contraction, inter, expansion, conductance
    "row0": (3, 1.0, 2.0, 1, 0.333333, 0.142857),
}


def make_partition(community_sets, universe_size):
    return Partition([sorted(c) for c in community_sets], universe_size)


@pytest.fixture
def t1_ground():
    return make_partition(T1_GROUND, T1_N)


@pytest.fixture
def t1_detected():
    return make_partition(T1_DETECTED, T1_N)


def t2_network():
    text = "\n".join(f"{u} {v}" for u, v in T2_EDGES)
    return load_edge_list(io.StringIO(text))


def t2_partition(net):
    dense = [sorted(net.to_dense(sorted(c))) for c in T2_COMMUNITIES]
    return Partition(dense, net.node_count)


def random_partition(rng, n, k):
    """Full-coverage random partition of nodes 0..n-1 into <= k communities."""
    labels = rng.integers(0, k, size=n)
    _, dense = np.unique(labels, return_inverse=True)
    comms = [np.flatnonzero(dense == i) for i in range(dense.max() + 1)]
    return Partition(comms, n)


def random_graph(rng, n, avg_degree):
    """Erdos-Renyi-ish random graph via repeated endpoint draws."""
    m = max(1, int(n * avg_degree / 2))
    u = rng.integers(0, n, size=2 * m)
    v = rng.integers(0, n, size=2 * m)
    keep = u != v
    return Network.from_edge_array(u[keep], v[keep], node_count=n)


def as_sets(partition):
    return [set(c.tolist()) for c in partition.communities]


def fail_after(real, calls_ok, error):
    """``real`` for its first ``calls_ok`` calls, then raising ``error``:
    a stand-in for ``os.fork`` or ``os.pipe`` that hits a resource limit
    without ever asking the system for many processes or descriptors."""
    calls = iter(range(calls_ok))

    def wrapper(*args):
        if next(calls, None) is None:
            raise error
        return real(*args)

    return wrapper
