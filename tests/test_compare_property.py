"""Invariances of the comparison families on random partitions that cover
the whole universe, run through the engine's worker code on ``seq`` (one
worker, in process, no fork): swapping ground and detected, relabelling the
nodes, into a dense or a sparse id space, and comparing a partition with
itself; and the Rand and Jaccard indices against their exact values."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from commqual.engine import (  # noqa: E402
    run_info_metrics, run_matching_metrics, run_pair_metrics,
)
from commqual.graph import Partition  # noqa: E402
from conftest import as_sets  # noqa: E402
import oracles  # noqa: E402


def from_labels(labels, rename=None):
    """Partition grouping node v (renamed to ``rename[v]``) by ``labels[v]``."""
    n = len(labels)
    rename = rename or range(n)
    return Partition([[rename[v] for v in range(n) if labels[v] == c]
                      for c in sorted(set(labels))], n)


@st.composite
def labelled_universe(draw):
    """Ground and detected labels of ``n`` nodes, and a permutation of them."""
    n = draw(st.integers(2, 40))
    labels = st.lists(st.integers(0, 7), min_size=n, max_size=n)
    return draw(labels), draw(labels), draw(st.permutations(range(n)))


def compare(ground, detected):
    info, _ = run_info_metrics(ground, detected)
    matching, _ = run_matching_metrics(ground, detected)
    pair, _ = run_pair_metrics(ground, detected)
    return info, matching, pair


def flat(results):
    info, matching, pair = results
    return (info.vi, info.nmi, matching.f_measure, matching.nvd,
            pair.counts.as_tuple(), pair.rand, pair.adjusted_rand, pair.jaccard)


@settings(max_examples=200, deadline=None)
@given(labelled_universe())
def test_swapping_ground_and_detected(case):
    g_labels, d_labels, _perm = case
    ground, detected = from_labels(g_labels), from_labels(d_labels)
    info, matching, pair = compare(ground, detected)
    info_s, matching_s, pair_s = compare(detected, ground)
    for a, b in [(info.vi, info_s.vi), (info.nmi, info_s.nmi),
                 (matching.nvd, matching_s.nvd), (pair.rand, pair_s.rand),
                 (pair.adjusted_rand, pair_s.adjusted_rand),
                 (pair.jaccard, pair_s.jaccard)]:
        assert math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12), (a, b)
    c, s = pair.counts, pair_s.counts
    assert (c.a11, c.a10, c.a01, c.a00) == (s.a11, s.a01, s.a10, s.a00)


@settings(max_examples=200, deadline=None)
@given(labelled_universe())
def test_relabelling_nodes_is_bit_exact(case):
    g_labels, d_labels, perm = case
    plain = compare(from_labels(g_labels), from_labels(d_labels))
    # the runners rank sparse ids back to 0..n-1, in the same order as perm
    for rename in (perm, [3 * p + 1 for p in perm],
                   [p * 10**11 + 7 for p in perm]):
        renamed = compare(from_labels(g_labels, rename),
                          from_labels(d_labels, rename))
        # repr tells every distinct float apart, -0.0 from 0.0 included
        assert repr(flat(renamed)) == repr(flat(plain))


@settings(max_examples=200, deadline=None)
@given(labelled_universe(), st.sampled_from([1, 3, 10**11]))
def test_self_match_identities_on_sparse_labels(case, step):
    labels, _d_labels, perm = case
    part = from_labels(labels, [p * step + 7 for p in perm])
    info, matching, pair = compare(part, part)
    assert math.copysign(1.0, info.vi) == 1.0  # +0.0, never -0.0
    assert pair.counts.a10 == pair.counts.a01 == 0
    for value, target in [(info.vi, 0.0), (info.nmi, 1.0),
                          (matching.f_measure, 1.0), (matching.nvd, 0.0),
                          (pair.rand, 1.0), (pair.adjusted_rand, 1.0),
                          (pair.jaccard, 1.0)]:
        assert math.isclose(value, target, rel_tol=0.0, abs_tol=1e-12), value


@settings(max_examples=200, deadline=None)
@given(labelled_universe())
def test_single_rounding_indices_are_correctly_rounded(case):
    # RI and JI are each one int/int division of exact counts, so the
    # reported floats are the exact values rounded once, bit for bit
    g_labels, d_labels, _perm = case
    ground, detected = from_labels(g_labels), from_labels(d_labels)
    _info, _matching, pair = compare(ground, detected)
    counts = oracles.pair_counts_reference(as_sets(ground), as_sets(detected))
    assert pair.counts.as_tuple() == counts
    assert pair.rand.hex() == float(oracles.rand_exact(counts)).hex()
    assert pair.jaccard.hex() == float(oracles.jaccard_exact(counts)).hex()
