import math
import operator

import numpy as np
import pytest

from commqual.engine import run_info_metrics
from commqual.engine.runners import merge_partials
from commqual.graph import Partition, build_contingency
from commqual.info_metrics import info_partial, nats_to_bits
from conftest import (
    T1_EXPECTED, as_sets, make_partition, random_partition,
)
import oracles


def info(ground, detected):
    """The seq run's VI and NMI."""
    return run_info_metrics(ground, detected)[0]


def test_t1_pinned_values(t1_ground, t1_detected):
    t = info(t1_ground, t1_detected)
    assert t.vi == pytest.approx(T1_EXPECTED["vi"], abs=1e-6)
    assert t.nmi == pytest.approx(T1_EXPECTED["nmi"], abs=1e-6)


def test_matches_reference_on_random_pairs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(20, 300))
        p1 = random_partition(rng, n, int(rng.integers(2, 15)))
        p2 = random_partition(rng, n, int(rng.integers(2, 15)))
        t = info(p1, p2)
        g, d = as_sets(p1), as_sets(p2)
        assert t.vi == pytest.approx(oracles.vi_reference(g, d, n), abs=1e-12)
        assert t.nmi == pytest.approx(oracles.nmi_reference(g, d, n), abs=1e-12)


def test_self_comparison():
    rng = np.random.default_rng(4)
    p = random_partition(rng, 250, 9)
    t = info(p, p)
    assert t.vi == 0.0
    assert t.nmi == pytest.approx(1.0, abs=1e-12)


def test_closed_form_block_vs_singletons():
    n = 64
    block = make_partition([set(range(n))], n)
    singles = make_partition([{i} for i in range(n)], n)
    t = info(block, singles)
    assert t.vi == pytest.approx(math.log(n), abs=1e-12)
    # MI is zero here, so NMI collapses
    assert t.nmi == pytest.approx(0.0, abs=1e-12)


def test_symmetry():
    rng = np.random.default_rng(9)
    p1 = random_partition(rng, 120, 6)
    p2 = random_partition(rng, 120, 10)
    t = info(p1, p2)
    tt = info(p2, p1)
    assert t.vi == pytest.approx(tt.vi, abs=1e-12)
    assert t.nmi == pytest.approx(tt.nmi, abs=1e-12)


def test_degenerate_single_community_pair():
    p = Partition([list(range(10))], 10)
    t = info(p, p)
    assert t.nmi == 1.0
    assert t.vi == 0.0


def test_partial_coverage_uses_declared_universe():
    # half the universe unassigned on both sides
    p1 = Partition([[0, 1], [2, 3]], 8)
    p2 = Partition([[0, 2], [1, 3]], 8)
    t = info(p1, p2)
    g = [{0, 1}, {2, 3}]
    d = [{0, 2}, {1, 3}]
    assert t.vi == pytest.approx(oracles.vi_reference(g, d, 8), abs=1e-12)


def test_empty_shard_is_identity(t1_ground, t1_detected):
    # worker 4 of 5 owns none of the two ground rows: no cells, +0.0 sums
    table = build_contingency(t1_ground, t1_detected,
                              t1_detected.node_map().comm_of, 5, 4)
    assert table.counts.size == 0
    empty = info_partial(table)
    assert empty.dtype == np.float64
    assert empty.view(np.int64).tolist() == [[0, 0], [0, 0]]
    whole = info_partial(build_contingency(t1_ground, t1_detected))
    for order in ([whole, empty], [empty, whole]):
        assert (np.asarray(merge_partials(operator.add, order)).tobytes()
                == whole.tobytes())


def test_nats_to_bits():
    assert nats_to_bits(math.log(2)) == pytest.approx(1.0, abs=1e-15)
    assert nats_to_bits(0.0) == 0.0


def test_nmi_range():
    rng = np.random.default_rng(33)
    for _ in range(10):
        p1 = random_partition(rng, 100, 8)
        p2 = random_partition(rng, 100, 8)
        v = info(p1, p2).nmi
        assert -1e-12 <= v <= 1.0 + 1e-12
