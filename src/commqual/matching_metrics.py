"""Best-match comparison metrics: F-measure and normalized Van Dongen.

Both reduce to three per-community maxima over the overlap table:

* ``max_normed[i]`` = max_j 2 |c_i ∩ c'_j| / (|c_i| + |c'_j|)
* ``max_t[i]``      = max_j |c_i ∩ c'_j|   (best match of a ground community)
* ``max_d[j]``      = max_i |c_i ∩ c'_j|   (best match of a detected community)

The module owns the family's partial and finish: :func:`matching_partial`
gives the three maxima of a row slice of the table (the exact row maxima of
its rows, zero elsewhere, and a partial column maximum), so the partials of
disjoint slices merge by element-wise ``np.maximum``, and
:func:`matching_finish` turns the merged maxima into the metrics.
:func:`~commqual.engine.run_matching_metrics` runs the two on every backend;
its ``seq`` run is the one-worker call.
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


def matching_partial(table):
    """``(max_normed, max_t, max_d)`` of the cells of ``table``: arrays over
    every ground row (the first two) and every detected column, zero where
    the table has no cell."""
    max_normed = np.zeros(table.num_rows)
    max_t = np.zeros(table.num_rows, dtype=np.int64)
    max_d = np.zeros(table.num_cols, dtype=np.int64)
    normed = 2.0 * table.counts / (
        table.row_sizes[table.rows] + table.col_sizes[table.cols])
    np.maximum.at(max_normed, table.rows, normed)
    np.maximum.at(max_t, table.rows, table.counts)
    np.maximum.at(max_d, table.cols, table.counts)
    return max_normed, max_t, max_d


def matching_finish(maxima, ground, detected):
    """F-measure and NVD of ``detected`` against ``ground`` from the merged
    :func:`matching_partial`.

    F-measure is the size-weighted mean of each ground community's best
    normalized match; the normalized Van Dongen distance is
    1 - (sum of best matches both ways) / (2n).
    """
    max_normed, max_t, max_d = maxima
    n = ground.universe_size
    matched = int(max_t.sum()) + int(max_d.sum())
    return MatchingMetrics(f_measure=float(np.dot(ground.sizes, max_normed)) / n,
                           nvd=1.0 - matched / (2.0 * n))
