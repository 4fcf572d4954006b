"""Information-theoretic comparison of two partitions (VI and NMI).

The module owns the family's partial and finish: :func:`info_partial`
reduces a row slice of the sparse contingency table of community overlaps
to per-row VI and MI sums, and :func:`info_finish` turns the merged sums
and the marginals into VI and NMI.  :func:`~commqual.engine.run_info_metrics`
runs the two on every backend; its ``seq`` run is the one-worker call.
Logarithms are natural, so VI is reported in nats; use :func:`nats_to_bits`
for a base-2 reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)


@dataclass
class InfoMetrics:
    vi: float
    nmi: float

    KEYS = ("vi", "nmi")

    def values(self):
        """The reported values, in :attr:`KEYS` order."""
        return (self.vi, self.nmi)


@dataclass
class ContingencyTable:
    """Sparse overlap table between a ground partition (rows) and a detected
    partition (columns).  Only nonzero cells are stored."""

    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    row_sizes: np.ndarray
    col_sizes: np.ndarray
    universe_size: int

    @property
    def num_rows(self):
        return self.row_sizes.size

    @property
    def num_cols(self):
        return self.col_sizes.size


def info_partial(table):
    """Row 0: the per-row sums of the VI cell terms
    n_ij log(n_ij^2 / (|c_i| |c'_j|)), row 1: the per-row sums of the MI
    cell terms (n_ij/n) log(n n_ij / (|c_i| |c'_j|)), over every ground row.

    Cells are summed per row first, then across rows by the finish: that
    keeps rounding independent of how many cells a single large community
    contributes, and lets a row slice of the table reproduce its rows' sums
    exactly.  A row slice leaves the other rows at +0.0 (a sum that starts
    from zeros is never -0.0), so the partials of disjoint slices merge
    exactly by element-wise ``+``."""
    n = table.universe_size
    ov = table.counts.astype(np.float64)
    denom = table.row_sizes[table.rows] * table.col_sizes[table.cols]
    return np.stack([np.bincount(table.rows, weights=terms,
                                 minlength=table.num_rows)
                     for terms in (ov * np.log(ov * ov / denom),
                                   (ov / n) * np.log(ov * n / denom))],
                    dtype=np.float64)  # bincount of no cells gives ints


def partition_entropy(sizes, universe_size):
    """H = -sum |c|/n log(|c|/n); zero only for a single all-covering community."""
    p = np.asarray(sizes, dtype=np.float64) / universe_size
    return -float(np.sum(p * np.log(p)))


def info_finish(rows, row_sizes, col_sizes, universe_size):
    """VI and NMI from the merged :func:`info_partial` and the marginals.

    VI(C, C') = -(1/n) sum_ij n_ij log(n_ij^2 / (|c_i| |c'_j|)); zero
    overlaps contribute nothing (0 log 0 = 0) and identical partitions give
    exactly +0.0.  NMI(C, C') = 2 I(C, C') / (H(C) + H(C')); when both
    partitions are a single community covering the universe the entropies
    vanish and the partitions are necessarily identical, which is defined
    as 1.0.
    """
    n = universe_size
    if n <= 0:
        raise ValueError("empty universe")
    h = partition_entropy(row_sizes, n) + partition_entropy(col_sizes, n)
    # 0.0 - x rather than -x: a zero VI sum must print as 0, not -0
    return InfoMetrics(vi=0.0 - float(rows[0].sum()) / n,
                       nmi=1.0 if h == 0.0 else 2.0 * float(rows[1].sum()) / h)


def nats_to_bits(value):
    return value / LN2
