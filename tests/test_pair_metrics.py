import operator

import numpy as np
import pytest

from commqual.bench import GeneratorParams, generate_network, perturb_partition
from commqual.engine import BackendConfig, run_pair_metrics
from commqual.engine.runners import merge_partials
from commqual.graph import Partition, build_contingency
from commqual.pair_metrics import (
    DegenerateIndexError, PairCounts, adjusted_rand_index, jaccard_index,
    pair_counts_bruteforce, pair_finish, pair_partial, pair_stripe_partial,
    rand_index,
)
from conftest import T1_EXPECTED, as_sets, make_partition, random_partition
import oracles


def pair_counts(ground, detected):
    """The seq run's pair counts."""
    return run_pair_metrics(ground, detected)[0].counts


def test_t1_pinned_values(t1_ground, t1_detected):
    counts = pair_counts(t1_ground, t1_detected)
    assert counts.as_tuple() == T1_EXPECTED["counts"]
    assert rand_index(counts) == pytest.approx(T1_EXPECTED["rand"], abs=1e-6)
    assert adjusted_rand_index(counts) == pytest.approx(T1_EXPECTED["ari"], abs=1e-6)
    assert jaccard_index(counts) == pytest.approx(T1_EXPECTED["jaccard"], abs=1e-6)


def test_counting_paths_agree():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(20, 200))
        p1 = random_partition(rng, n, int(rng.integers(2, 12)))
        p2 = random_partition(rng, n, int(rng.integers(2, 12)))
        ref = oracles.pair_counts_reference(as_sets(p1), as_sets(p2))
        m1, m2 = p1.node_map(), p2.node_map()
        assert pair_counts_bruteforce(m1, m2).as_tuple() == ref
        assert pair_counts(p1, p2).as_tuple() == ref
        stripe = pair_stripe_partial(m1.comm_of, m2.comm_of)
        assert pair_finish(stripe, p1, p2).counts.as_tuple() == ref


def test_striped_partials_sum_to_full():
    rng = np.random.default_rng(42)
    p1 = random_partition(rng, 150, 8)
    p2 = random_partition(rng, 150, 5)
    # one block on both sides puts every node pair in a11, so a stripe that
    # skips any pair shows
    block = make_partition([set(range(150))], 150)
    for g, d in [(p1, p2), (block, block)]:
        m1, m2 = g.node_map(), d.node_map()
        full = pair_counts_bruteforce(m1, m2)
        fast = pair_partial(build_contingency(g, d))
        for w in (1, 2, 3, 5):
            parts = [pair_stripe_partial(m1.comm_of, m2.comm_of, w, i)
                     for i in range(w)]
            assert all(type(a11) is int for a11, in parts)
            merged = merge_partials(operator.add, parts)
            assert merged == fast
            assert pair_finish(merged, g, d).counts == full
        assert full.total == 150 * 149 // 2


def test_empty_shard_is_identity(t1_ground, t1_detected):
    # worker 4 of 5 owns none of the two ground rows: no cells, a11 = 0
    table = build_contingency(t1_ground, t1_detected,
                              t1_detected.node_map().comm_of, 5, 4)
    assert table.counts.size == 0
    empty = pair_partial(table)
    assert empty == (0,) and type(empty[0]) is int
    whole = pair_partial(build_contingency(t1_ground, t1_detected))
    assert whole == (T1_EXPECTED["counts"][0],)
    for order in ([whole, empty], [empty, whole]):
        assert merge_partials(operator.add, order) == whole


def test_identity_partitions():
    rng = np.random.default_rng(43)
    p = random_partition(rng, 180, 9)
    counts = pair_counts(p, p)
    assert counts.a10 == 0 and counts.a01 == 0
    assert rand_index(counts) == 1.0
    assert adjusted_rand_index(counts) == 1.0
    assert jaccard_index(counts) == 1.0


def test_block_vs_singletons_extremes():
    n = 40
    block = make_partition([set(range(n))], n)
    singles = make_partition([{i} for i in range(n)], n)
    counts = pair_counts(block, singles)
    assert counts.a11 == 0 and counts.a00 == 0
    assert rand_index(counts) == 0.0
    assert jaccard_index(counts) == 0.0
    assert adjusted_rand_index(counts) == 0.0  # numerator zero, denominator not


def test_degenerate_conventions():
    n = 12
    singles = make_partition([{i} for i in range(n)], n)
    counts = pair_counts(singles, singles)
    assert jaccard_index(counts) == 1.0
    assert adjusted_rand_index(counts) == 1.0
    block = make_partition([set(range(n))], n)
    counts = pair_counts(block, block)
    assert adjusted_rand_index(counts) == 1.0
    # a zero denominator with disagreements present cannot arise from valid
    # counts (it implies a10 == a01 == 0); the guard still rejects corrupt input
    with pytest.raises(DegenerateIndexError):
        adjusted_rand_index(PairCounts(2, 2, 2, -2))


def test_requires_full_coverage():
    p1 = Partition([[0, 1, 2]], 5)
    p2 = Partition([[0, 1], [2]], 5)
    with pytest.raises(ValueError, match="coverage"):
        pair_counts_bruteforce(p1.node_map(), p2.node_map())
    with pytest.raises(ValueError, match="coverage"):
        pair_counts(p1, p2)


def test_mismatched_cover_sets():
    p1 = Partition([[0, 1, 2]], 3)
    p2 = Partition([[0, 1], [3]], 4)
    with pytest.raises(ValueError):
        pair_counts_bruteforce(p1.node_map(), p2.node_map())


def test_independent_labelings_near_zero_ari():
    rng = np.random.default_rng(44)
    vals = []
    for _ in range(40):
        p1 = random_partition(rng, 300, 10)
        p2 = random_partition(rng, 300, 10)
        vals.append(adjusted_rand_index(pair_counts(p1, p2)))
    assert abs(float(np.mean(vals))) < 0.02


def test_reference_indices_agree():
    rng = np.random.default_rng(45)
    p1 = random_partition(rng, 90, 6)
    p2 = random_partition(rng, 90, 4)
    counts = pair_counts(p1, p2)
    g, d = as_sets(p1), as_sets(p2)
    assert rand_index(counts) == pytest.approx(oracles.rand_reference(g, d, 90), abs=1e-12)
    assert adjusted_rand_index(counts) == pytest.approx(
        oracles.ari_reference(g, d, 90), abs=1e-12)
    assert jaccard_index(counts) == pytest.approx(
        oracles.jaccard_reference(g, d), abs=1e-12)


def test_single_rounding_indices_on_a_planted_pair():
    # RI and JI are each one int/int division of the exact counts, so every
    # backend and both counting methods report the exact value rounded once
    _net, ground = generate_network(GeneratorParams(node_count=3000, seed=11))
    detected = perturb_partition(ground, 0.1, seed=5)
    full = pair_counts_bruteforce(ground.node_map(), detected.node_map())
    rand = float(oracles.rand_exact(full.as_tuple()))
    jaccard = float(oracles.jaccard_exact(full.as_tuple()))
    for backend, workers in [("seq", 1), ("shm", 3), ("ring", 3)]:
        for method in ("fast", "bruteforce"):
            res, _ = run_pair_metrics(ground, detected,
                                      BackendConfig(backend, workers), method)
            assert res.counts == full, (backend, method)
            assert res.rand.hex() == rand.hex(), (backend, method)
            assert res.jaccard.hex() == jaccard.hex(), (backend, method)
