"""Pair-counting agreement metrics: Rand, adjusted Rand, Jaccard.

All three derive from the node-pair confusion counts

* ``a11`` pairs together in both partitions
* ``a10`` together in the first only
* ``a01`` together in the second only
* ``a00`` together in neither

over all n(n-1)/2 unordered pairs.  Counts are exact Python integers.
Pair metrics require both partitions to cover the full universe.

Both counting methods produce the same partial, the exact ``(a11,)`` of a
share of the work, and share one finish (:func:`pair_finish`):
:func:`pair_partial` sums binomial(x, 2) over a row slice of contingency
cells, and :func:`pair_stripe_partial` scans a stripe of node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateIndexError(ValueError):
    """The index's denominator vanished for a non-trivial reason."""


@dataclass(frozen=True)
class PairCounts:
    a11: int
    a10: int
    a01: int
    a00: int

    @property
    def total(self):
        return self.a11 + self.a10 + self.a01 + self.a00

    def as_tuple(self):
        return (self.a11, self.a10, self.a01, self.a00)


def choose2_sum(values):
    """Exact sum of binomial(x, 2) over an integer array."""
    return int(sum(x * (x - 1) // 2 for x in values.tolist()))


def pair_stripe_partial(ground_of, detected_of, num_stripes=1, stripe_id=0):
    """``(a11,)`` of one stripe of the all-pairs scan, exact: rows i with
    i % num_stripes == stripe_id, each comparing node i's (ground, detected)
    labels against those of every node j > i (vectorized).  ``ground_of``
    and ``detected_of`` are node -> community id arrays covering every node.
    Stripes partition the node pairs, so partials merge by ``+`` into the
    a11 of :func:`pair_partial`."""
    width = int(detected_of.max()) + 1 if detected_of.size else 1
    combo = ground_of * width + detected_of
    if combo.size and int(combo.max()) < 2**31:
        combo = combo.astype(np.int32)
    return (sum(int(np.count_nonzero(combo[i + 1:] == combo[i]))
                for i in range(stripe_id, combo.size - 1, num_stripes)),)


def pair_partial(table):
    """``(a11,)`` of a row slice: the pairs together in both partitions,
    exact.  Row slices partition the cells, so partials merge by ``+``."""
    return (choose2_sum(table.counts),)


def pair_finish(merged, ground, detected):
    """The :class:`PairMetrics` of ``detected`` against ``ground`` from the
    merged ``(a11,)`` of either counting method: the pairs together in each
    partition are sums of binomial(x, 2) over community sizes, and a00 is
    the complement."""
    (a11,) = merged
    n = ground.universe_size
    row_pairs, col_pairs = choose2_sum(ground.sizes), choose2_sum(detected.sizes)
    total = n * (n - 1) // 2
    counts = PairCounts(a11, row_pairs - a11, col_pairs - a11,
                        total - row_pairs - col_pairs + a11)
    return PairMetrics(counts, rand_index(counts),
                       adjusted_rand_index(counts), jaccard_index(counts))


def rand_index(counts):
    """(a11 + a00) / total; agreement fraction over all pairs."""
    if counts.total <= 0:
        raise ValueError("no node pairs to count")
    return (counts.a11 + counts.a00) / counts.total


def adjusted_rand_index(counts):
    """Rand index corrected for chance.

    Denominator zero happens only in full-agreement corner cases (both
    partitions all-singletons or both one block); those score 1.0.  Any other
    vanishing denominator is reported as degenerate.
    """
    if counts.total <= 0:
        raise ValueError("no node pairs to count")
    a11, a10, a01 = counts.a11, counts.a10, counts.a01
    expected = (a11 + a10) * (a11 + a01) / counts.total
    denom = 0.5 * ((a11 + a10) + (a11 + a01)) - expected
    if denom == 0.0:
        if a10 == 0 and a01 == 0:
            return 1.0
        raise DegenerateIndexError("adjusted Rand denominator is zero")
    return (a11 - expected) / denom


def jaccard_index(counts):
    """a11 / (a11 + a10 + a01); both-singleton partitions score 1.0."""
    if counts.total <= 0:
        raise ValueError("no node pairs to count")
    denom = counts.a11 + counts.a10 + counts.a01
    if denom == 0:
        return 1.0
    return counts.a11 / denom


@dataclass
class PairMetrics:
    counts: PairCounts
    rand: float
    adjusted_rand: float
    jaccard: float

    KEYS = ("a11", "a10", "a01", "a00", "ri", "ari", "ji")

    def values(self):
        """The reported values, in :attr:`KEYS` order: the exact counts,
        then the Rand, adjusted Rand and Jaccard indices."""
        return self.counts.as_tuple() + (self.rand, self.adjusted_rand,
                                         self.jaccard)
