"""Best-match comparison metrics: F-measure and normalized Van Dongen.

Both reduce to three per-community maxima over the overlap table:

* ``max_normed[i]`` = max_j 2 |c_i ∩ c'_j| / (|c_i| + |c'_j|)
* ``max_t[i]``      = max_j |c_i ∩ c'_j|   (best match of a ground community)
* ``max_d[j]``      = max_i |c_i ∩ c'_j|   (best match of a detected community)

The parallel engine computes them from row slices of the table: each slice
gives the exact row maxima of its rows and a partial column maximum, and
merging per-worker copies is an element-wise max.  :func:`matching_finish`
turns the merged maxima into the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MatchingMetrics:
    f_measure: float
    nvd: float

    KEYS = ("f_measure", "nvd")

    def values(self):
        """The reported values, in :attr:`KEYS` order."""
        return (self.f_measure, self.nvd)


class MatchMaxima:
    __slots__ = ("max_normed", "max_t", "max_d")

    def __init__(self, max_normed, max_t, max_d):
        self.max_normed = max_normed
        self.max_t = max_t
        self.max_d = max_d

    @classmethod
    def empty(cls, num_ground, num_detected):
        return cls(
            np.zeros(num_ground),
            np.zeros(num_ground, dtype=np.int64),
            np.zeros(num_detected, dtype=np.int64),
        )

    def merge(self, other):
        return MatchMaxima(
            np.maximum(self.max_normed, other.max_normed),
            np.maximum(self.max_t, other.max_t),
            np.maximum(self.max_d, other.max_d),
        )

    @classmethod
    def from_contingency(cls, table):
        m = cls.empty(table.num_rows, table.num_cols)
        if table.counts.size:
            normed = 2.0 * table.counts / (
                table.row_sizes[table.rows] + table.col_sizes[table.cols])
            np.maximum.at(m.max_normed, table.rows, normed)
            np.maximum.at(m.max_t, table.rows, table.counts)
            np.maximum.at(m.max_d, table.cols, table.counts)
        return m


def f_measure(maxima, ground_sizes, universe_size):
    """Size-weighted mean of each ground community's best normalized match."""
    if universe_size <= 0:
        raise ValueError("empty universe")
    return float(np.dot(ground_sizes, maxima.max_normed)) / universe_size


def nvd(maxima, universe_size):
    """Normalized Van Dongen: 1 - (sum of best matches both ways) / (2n)."""
    if universe_size <= 0:
        raise ValueError("empty universe")
    matched = int(maxima.max_t.sum()) + int(maxima.max_d.sum())
    return 1.0 - matched / (2.0 * universe_size)


def matching_finish(maxima, row_sizes, universe_size):
    """F-measure and NVD from the merged maxima and the ground sizes."""
    return MatchingMetrics(f_measure=f_measure(maxima, row_sizes, universe_size),
                           nvd=nvd(maxima, universe_size))
