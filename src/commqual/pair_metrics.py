"""Pair-counting agreement metrics: Rand, adjusted Rand, Jaccard.

All three derive from the node-pair confusion counts

* ``a11`` pairs together in both partitions
* ``a10`` together in the first only
* ``a01`` together in the second only
* ``a00`` together in neither

over all n(n-1)/2 unordered pairs.  Counts are exact Python integers.
Pair metrics require both partitions to cover the full universe.
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

    def __add__(self, other):
        return PairCounts(self.a11 + other.a11, self.a10 + other.a10,
                          self.a01 + other.a01, self.a00 + other.a00)

    def as_tuple(self):
        return (self.a11, self.a10, self.a01, self.a00)


def choose2_sum(values):
    """Exact sum of binomial(x, 2) over an integer array."""
    return int(sum(x * (x - 1) // 2 for x in values.tolist()))


def covered_labels(map1, map2):
    """Community labels of every node; both maps must cover the full universe.

    Raises ValueError when the maps cover different node sets or leave part
    of the universe unassigned.
    """
    c1 = map1.covered_nodes()
    c2 = map2.covered_nodes()
    if not np.array_equal(c1, c2):
        raise ValueError("partitions cover different node sets")
    if c1.size != map1.universe_size:
        raise ValueError("pair counting requires full universe coverage")
    return map1.comm_of[c1], map2.comm_of[c1]


def pair_counts_bruteforce(map1, map2):
    """Literal double loop over all unordered node pairs.  O(n^2); reference
    implementation for small inputs."""
    g, d = covered_labels(map1, map2)
    gl, dl = g.tolist(), d.tolist()
    n = len(gl)
    a11 = a10 = a01 = a00 = 0
    for i in range(n - 1):
        gi, di = gl[i], dl[i]
        for j in range(i + 1, n):
            same_g = gl[j] == gi
            same_d = dl[j] == di
            if same_g:
                if same_d:
                    a11 += 1
                else:
                    a10 += 1
            elif same_d:
                a01 += 1
            else:
                a00 += 1
    return PairCounts(a11, a10, a01, a00)


def pair_counts_striped(map1, map2, num_stripes=1, stripe_id=0):
    """Row-striped pair scan: rows i with i % num_stripes == stripe_id, each
    row comparing node i against all j > i (vectorized).

    Summing the partial counts over all stripes reproduces the full counts
    exactly.
    """
    if num_stripes <= 0:
        raise ValueError("num_stripes must be positive")
    if not 0 <= stripe_id < num_stripes:
        raise ValueError("stripe_id out of range")
    g, d = covered_labels(map1, map2)
    n = g.size
    width = int(d.max()) + 1 if n else 1
    combo = g * width + d
    if combo.size and int(combo.max()) < 2**31:
        combo = combo.astype(np.int32)
        g = g.astype(np.int32)
        d = d.astype(np.int32)
    a11 = a10 = a01 = a00 = 0
    for i in range(stripe_id, n - 1, num_stripes):
        tg = g[i + 1:]
        td = d[i + 1:]
        both = int(np.count_nonzero(combo[i + 1:] == combo[i]))
        sg = int(np.count_nonzero(tg == g[i]))
        sd = int(np.count_nonzero(td == d[i]))
        rest = n - 1 - i
        a11 += both
        a10 += sg - both
        a01 += sd - both
        a00 += rest - sg - sd + both
    return PairCounts(a11, a10, a01, a00)


def pair_partial(table):
    """``(a11,)`` of a row slice: the pairs together in both partitions,
    exact.  Row slices partition the cells, so partials merge by ``+``."""
    return (choose2_sum(table.counts),)


def pair_finish(merged, ground, detected):
    """The :class:`PairMetrics` of ``detected`` against ``ground`` from the
    merged :func:`pair_partial` ``(a11,)``: the pairs together in each
    partition are sums of binomial(x, 2) over community sizes, and a00 is
    the complement."""
    (a11,) = merged
    n = ground.universe_size
    row_pairs, col_pairs = choose2_sum(ground.sizes), choose2_sum(detected.sizes)
    total = n * (n - 1) // 2
    return PairMetrics.from_counts(PairCounts(
        a11, row_pairs - a11, col_pairs - a11,
        total - row_pairs - col_pairs + a11))


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

    @classmethod
    def from_counts(cls, counts):
        return cls(counts=counts, rand=rand_index(counts),
                   adjusted_rand=adjusted_rand_index(counts),
                   jaccard=jaccard_index(counts))
