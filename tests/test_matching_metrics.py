import numpy as np
import pytest

from commqual.graph import build_contingency
from commqual.matching_metrics import MatchMaxima, f_measure, nvd
from conftest import T1_EXPECTED, as_sets, make_partition, random_partition
import oracles


def maxima_via_row_slices(p1, p2, w):
    """Merge the maxima of every worker's row slice, as the engine does."""
    labels = p2.node_map().comm_of
    m = MatchMaxima.empty(len(p1), len(p2))
    for p in range(w):
        m = m.merge(MatchMaxima.from_contingency(
            build_contingency(p1, p2, labels, w, p)))
    return m


def test_t1_pinned_values(t1_ground, t1_detected):
    t = build_contingency(t1_ground, t1_detected)
    m = MatchMaxima.from_contingency(t)
    assert f_measure(m, t1_ground.sizes, 6) == pytest.approx(
        T1_EXPECTED["f_measure"], abs=1e-6)
    assert nvd(m, 6) == pytest.approx(T1_EXPECTED["nvd"], abs=1e-6)


def test_matches_reference_on_random_pairs():
    rng = np.random.default_rng(14)
    for _ in range(15):
        n = int(rng.integers(30, 300))
        p1 = random_partition(rng, n, int(rng.integers(2, 12)))
        p2 = random_partition(rng, n, int(rng.integers(2, 12)))
        m = MatchMaxima.from_contingency(build_contingency(p1, p2))
        g, d = as_sets(p1), as_sets(p2)
        assert f_measure(m, p1.sizes, n) == pytest.approx(
            oracles.f_measure_reference(g, d, n), abs=1e-12)
        assert nvd(m, n) == pytest.approx(oracles.nvd_reference(g, d, n), abs=1e-12)


def test_sharded_scan_equals_table_path():
    rng = np.random.default_rng(27)
    for _ in range(8):
        n = int(rng.integers(40, 250))
        p1 = random_partition(rng, n, int(rng.integers(2, 14)))
        p2 = random_partition(rng, n, int(rng.integers(2, 14)))
        ref = MatchMaxima.from_contingency(build_contingency(p1, p2))
        for w in (1, 2, 4):
            m = maxima_via_row_slices(p1, p2, w)
            np.testing.assert_array_equal(m.max_normed, ref.max_normed)
            np.testing.assert_array_equal(m.max_t, ref.max_t)
            np.testing.assert_array_equal(m.max_d, ref.max_d)


def test_update_is_monotone_and_idempotent():
    # merging maxima with themselves, or with an empty set, changes nothing
    rng = np.random.default_rng(8)
    p1 = random_partition(rng, 100, 5)
    p2 = random_partition(rng, 100, 7)
    m = MatchMaxima.from_contingency(build_contingency(p1, p2))
    for other in (m, MatchMaxima.empty(len(p1), len(p2))):
        out = m.merge(other)
        np.testing.assert_array_equal(out.max_t, m.max_t)
        np.testing.assert_array_equal(out.max_d, m.max_d)
        np.testing.assert_array_equal(out.max_normed, m.max_normed)
    assert np.all(m.max_t >= 0)


def test_empty_shard_is_identity(t1_ground, t1_detected):
    # worker 4 of 5 owns none of the two ground rows: no cells, zero maxima
    table = build_contingency(t1_ground, t1_detected,
                              t1_detected.node_map().comm_of, 5, 4)
    assert table.counts.size == 0
    m = MatchMaxima.from_contingency(table)
    assert m.max_t.tolist() == [0, 0] and m.max_d.tolist() == [0, 0]


def test_merge_elementwise_max():
    a = MatchMaxima(np.array([0.5, 0.1]), np.array([3, 1]), np.array([2]))
    b = MatchMaxima(np.array([0.2, 0.9]), np.array([1, 4]), np.array([5]))
    c = a.merge(b)
    assert c.max_normed.tolist() == [0.5, 0.9]
    assert c.max_t.tolist() == [3, 4]
    assert c.max_d.tolist() == [5]


def test_identity_partitions():
    rng = np.random.default_rng(16)
    p = random_partition(rng, 200, 10)
    m = MatchMaxima.from_contingency(build_contingency(p, p))
    assert f_measure(m, p.sizes, 200) == pytest.approx(1.0, abs=1e-12)
    assert nvd(m, 200) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_block_vs_singletons():
    n = 50
    block = make_partition([set(range(n))], n)
    singles = make_partition([{i} for i in range(n)], n)
    m = MatchMaxima.from_contingency(build_contingency(block, singles))
    assert f_measure(m, block.sizes, n) == pytest.approx(2.0 / (n + 1), abs=1e-12)
    # best match covers 1 node one way, n the other
    assert nvd(m, n) == pytest.approx(1.0 - (1 + n) / (2.0 * n), abs=1e-12)
