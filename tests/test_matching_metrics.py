import numpy as np
import pytest

from commqual.engine.runners import merge_partials
from commqual.graph import build_contingency
from commqual.matching_metrics import matching_finish, matching_partial
from conftest import T1_EXPECTED, as_sets, make_partition, random_partition
import oracles


def maxima_via_row_slices(p1, p2, w):
    """Merge the maxima of every worker's row slice, as the engine does."""
    labels = p2.node_map().comm_of
    return merge_partials(np.maximum, [
        matching_partial(build_contingency(p1, p2, labels, w, p))
        for p in range(w)])


def empty_maxima(p1, p2):
    """The maxima of no cells: the identity of the element-wise max."""
    return (np.zeros(len(p1)), np.zeros(len(p1), dtype=np.int64),
            np.zeros(len(p2), dtype=np.int64))


def test_t1_pinned_values(t1_ground, t1_detected):
    t = build_contingency(t1_ground, t1_detected)
    got = matching_finish(matching_partial(t), t1_ground, t1_detected)
    assert got.f_measure == pytest.approx(T1_EXPECTED["f_measure"], abs=1e-6)
    assert got.nvd == pytest.approx(T1_EXPECTED["nvd"], abs=1e-6)


def test_matches_reference_on_random_pairs():
    rng = np.random.default_rng(14)
    for _ in range(15):
        n = int(rng.integers(30, 300))
        p1 = random_partition(rng, n, int(rng.integers(2, 12)))
        p2 = random_partition(rng, n, int(rng.integers(2, 12)))
        got = matching_finish(matching_partial(build_contingency(p1, p2)),
                              p1, p2)
        g, d = as_sets(p1), as_sets(p2)
        assert got.f_measure == pytest.approx(
            oracles.f_measure_reference(g, d, n), abs=1e-12)
        assert got.nvd == pytest.approx(oracles.nvd_reference(g, d, n),
                                        abs=1e-12)


def test_sharded_scan_equals_table_path():
    rng = np.random.default_rng(27)
    for _ in range(8):
        n = int(rng.integers(40, 250))
        p1 = random_partition(rng, n, int(rng.integers(2, 14)))
        p2 = random_partition(rng, n, int(rng.integers(2, 14)))
        ref = matching_partial(build_contingency(p1, p2))
        for w in (1, 2, 4):
            m = maxima_via_row_slices(p1, p2, w)
            for got, want in zip(m, ref, strict=True):
                np.testing.assert_array_equal(got, want)


def test_update_is_monotone_and_idempotent():
    # merging maxima with themselves, or with an empty set, changes nothing
    rng = np.random.default_rng(8)
    p1 = random_partition(rng, 100, 5)
    p2 = random_partition(rng, 100, 7)
    m = matching_partial(build_contingency(p1, p2))
    for other in (m, empty_maxima(p1, p2)):
        out = merge_partials(np.maximum, [m, other])
        for got, want in zip(out, m, strict=True):
            np.testing.assert_array_equal(got, want)
    assert np.all(m[1] >= 0)


def test_empty_shard_is_identity(t1_ground, t1_detected):
    # worker 4 of 5 owns none of the two ground rows: no cells, zero maxima
    table = build_contingency(t1_ground, t1_detected,
                              t1_detected.node_map().comm_of, 5, 4)
    assert table.counts.size == 0
    max_normed, max_t, max_d = matching_partial(table)
    assert max_t.tolist() == [0, 0] and max_d.tolist() == [0, 0]
    assert max_normed.tolist() == [0.0, 0.0]
    for got, want in zip((max_normed, max_t, max_d),
                         empty_maxima(t1_ground, t1_detected), strict=True):
        assert got.dtype == want.dtype


def test_merge_elementwise_max():
    a = (np.array([0.5, 0.1]), np.array([3, 1]), np.array([2]))
    b = (np.array([0.2, 0.9]), np.array([1, 4]), np.array([5]))
    max_normed, max_t, max_d = merge_partials(np.maximum, [a, b])
    assert max_normed.tolist() == [0.5, 0.9]
    assert max_t.tolist() == [3, 4]
    assert max_d.tolist() == [5]


def test_identity_partitions():
    rng = np.random.default_rng(16)
    p = random_partition(rng, 200, 10)
    got = matching_finish(matching_partial(build_contingency(p, p)), p, p)
    assert got.f_measure == pytest.approx(1.0, abs=1e-12)
    assert got.nvd == pytest.approx(0.0, abs=1e-12)


def test_closed_form_block_vs_singletons():
    n = 50
    block = make_partition([set(range(n))], n)
    singles = make_partition([{i} for i in range(n)], n)
    got = matching_finish(matching_partial(build_contingency(block, singles)),
                          block, singles)
    assert got.f_measure == pytest.approx(2.0 / (n + 1), abs=1e-12)
    # best match covers 1 node one way, n the other
    assert got.nvd == pytest.approx(1.0 - (1 + n) / (2.0 * n), abs=1e-12)
