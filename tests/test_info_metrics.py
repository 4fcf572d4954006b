import math

import numpy as np
import pytest

from commqual.graph import Partition, build_contingency
from commqual.info_metrics import (
    nats_to_bits, normalized_mutual_information, variation_of_information,
)
from conftest import (
    T1_EXPECTED, as_sets, make_partition, random_partition,
)
import oracles


def test_t1_pinned_values(t1_ground, t1_detected):
    t = build_contingency(t1_ground, t1_detected)
    assert variation_of_information(t) == pytest.approx(T1_EXPECTED["vi"], abs=1e-6)
    assert normalized_mutual_information(t) == pytest.approx(T1_EXPECTED["nmi"], abs=1e-6)


def test_matches_reference_on_random_pairs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(20, 300))
        p1 = random_partition(rng, n, int(rng.integers(2, 15)))
        p2 = random_partition(rng, n, int(rng.integers(2, 15)))
        t = build_contingency(p1, p2)
        g, d = as_sets(p1), as_sets(p2)
        assert variation_of_information(t) == pytest.approx(
            oracles.vi_reference(g, d, n), abs=1e-12)
        assert normalized_mutual_information(t) == pytest.approx(
            oracles.nmi_reference(g, d, n), abs=1e-12)


def test_self_comparison():
    rng = np.random.default_rng(4)
    p = random_partition(rng, 250, 9)
    t = build_contingency(p, p)
    assert variation_of_information(t) == 0.0
    assert normalized_mutual_information(t) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_block_vs_singletons():
    n = 64
    block = make_partition([set(range(n))], n)
    singles = make_partition([{i} for i in range(n)], n)
    t = build_contingency(block, singles)
    assert variation_of_information(t) == pytest.approx(math.log(n), abs=1e-12)
    # MI is zero here, so NMI collapses
    assert normalized_mutual_information(t) == pytest.approx(0.0, abs=1e-12)


def test_symmetry():
    rng = np.random.default_rng(9)
    p1 = random_partition(rng, 120, 6)
    p2 = random_partition(rng, 120, 10)
    t = build_contingency(p1, p2)
    tt = build_contingency(p2, p1)
    assert variation_of_information(t) == pytest.approx(
        variation_of_information(tt), abs=1e-12)
    assert normalized_mutual_information(t) == pytest.approx(
        normalized_mutual_information(tt), abs=1e-12)


def test_degenerate_single_community_pair():
    p = Partition([list(range(10))], 10)
    t = build_contingency(p, p)
    assert normalized_mutual_information(t) == 1.0
    assert variation_of_information(t) == 0.0


def test_partial_coverage_uses_declared_universe():
    # half the universe unassigned on both sides
    p1 = Partition([[0, 1], [2, 3]], 8)
    p2 = Partition([[0, 2], [1, 3]], 8)
    t = build_contingency(p1, p2)
    g = [{0, 1}, {2, 3}]
    d = [{0, 2}, {1, 3}]
    assert variation_of_information(t) == pytest.approx(
        oracles.vi_reference(g, d, 8), abs=1e-12)


def test_nats_to_bits():
    assert nats_to_bits(math.log(2)) == pytest.approx(1.0, abs=1e-15)
    assert nats_to_bits(0.0) == 0.0


def test_nmi_range():
    rng = np.random.default_rng(33)
    for _ in range(10):
        p1 = random_partition(rng, 100, 8)
        p2 = random_partition(rng, 100, 8)
        v = normalized_mutual_information(build_contingency(p1, p2))
        assert -1e-12 <= v <= 1.0 + 1e-12
