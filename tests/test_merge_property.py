"""Each comparison family's partial over the row slices of a contingency
table, merged as the engine merges worker payloads, against the partial of
the whole table (bit for bit), and its finish against the seq run of the
family's runner.  Slices are built in process with
``build_contingency(g, d, None, w, p)``, so nothing forks.  Likewise the
intrinsic partials of the ``w`` community shards, finished together,
against the seq run of ``run_intrinsic_metrics``."""

import operator

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from commqual.engine import (  # noqa: E402
    run_info_metrics, run_intrinsic_metrics, run_matching_metrics,
    run_pair_metrics,
)
from commqual.engine.runners import merge_partials  # noqa: E402
from commqual.graph import Network, Partition, build_contingency  # noqa: E402
from commqual.info_metrics import info_finish, info_partial  # noqa: E402
from commqual.intrinsic_metrics import (  # noqa: E402
    intrinsic_finish, intrinsic_partial,
)
from commqual.matching_metrics import (  # noqa: E402
    matching_finish, matching_partial,
)
from commqual.pair_metrics import (  # noqa: E402
    pair_counts_bruteforce, pair_finish, pair_partial,
)


def from_labels(labels):
    """Partition grouping node v by ``labels[v]``; -1 leaves v unassigned."""
    return Partition([[v for v, x in enumerate(labels) if x == c]
                      for c in sorted(set(labels) - {-1})], len(labels))


@st.composite
def partition_pair(draw):
    n = draw(st.integers(1, 40))
    # half the cases cover every node, so pair counting applies
    low = draw(st.sampled_from([-1, 0]))
    labels = st.lists(st.integers(low, 7), min_size=n, max_size=n).filter(
        lambda xs: max(xs) >= 0)
    return from_labels(draw(labels)), from_labels(draw(labels))


def bits(a):
    return np.asarray(a).tobytes()


@settings(max_examples=200, deadline=None)
@given(partition_pair(), st.sampled_from([1, 2, 3]))
def test_merged_row_slices_equal_the_whole_table(case, w):
    ground, detected = case
    n = ground.universe_size
    whole = build_contingency(ground, detected)
    slices = [build_contingency(ground, detected, None, w, p) for p in range(w)]

    rows = merge_partials(operator.add, [info_partial(t) for t in slices])
    assert bits(rows) == bits(info_partial(whole))
    info = info_finish(rows, ground, detected)
    seq = run_info_metrics(ground, detected)[0]
    assert (repr(info.vi), repr(info.nmi)) == (repr(seq.vi), repr(seq.nmi))

    maxima = merge_partials(np.maximum,
                            [matching_partial(t) for t in slices])
    want = matching_partial(whole)
    for key, got, expected in zip(("max_normed", "max_t", "max_d"), maxima,
                                  want, strict=True):
        assert bits(got) == bits(expected), key
    matching = matching_finish(maxima, ground, detected)
    seq = run_matching_metrics(ground, detected)[0]
    assert (repr(matching.f_measure), repr(matching.nvd)) == (
        repr(seq.f_measure), repr(seq.nvd))

    a11 = merge_partials(operator.add, [pair_partial(t) for t in slices])
    assert a11 == pair_partial(whole)
    if int(whole.counts.sum()) == n:
        if n == 1:  # no pairs: zero counts, and the indices are undefined
            assert a11 == (0,)
            assert pair_counts_bruteforce(
                ground.node_map(), detected.node_map()).as_tuple() == (0, 0, 0, 0)
            with pytest.raises(ValueError, match="no node pairs"):
                pair_finish(a11, ground, detected)
            with pytest.raises(ValueError, match="no node pairs"):
                run_pair_metrics(ground, detected)
        else:
            assert (pair_finish(a11, ground, detected)
                    == run_pair_metrics(ground, detected)[0])


@st.composite
def network_and_partition(draw):
    """A network on ``n`` nodes, some isolated, and a partition that may leave
    nodes unassigned or alone in their community."""
    n = draw(st.integers(2, 24))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=60))
    pairs = [(u, v) for u, v in pairs if u != v] or [(0, 1)]
    labels = draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n).filter(
        lambda xs: max(xs) >= 0))
    u, v = zip(*pairs)
    return Network.from_edge_array(u, v, node_count=n), from_labels(labels)


@settings(max_examples=200, deadline=None)
@given(network_and_partition(), st.sampled_from([1, 2, 3]))
def test_intrinsic_shards_finish_as_the_library_call(case, w):
    net, part = case
    got = intrinsic_finish(merge_partials(
        operator.add, [intrinsic_partial(net, part, w, p) for p in range(w)]),
        net, part)
    want = run_intrinsic_metrics(net, part)[0]
    assert (repr(got.q), repr(got.qds)) == (repr(want.q), repr(want.qds))
    assert got.total_edges == want.total_edges
    assert [repr(row) for row in got.rows] == [repr(row) for row in want.rows]
