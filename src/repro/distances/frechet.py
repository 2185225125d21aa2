"""Discrete Frechet distance (paper, Eq. 6).

The recurrence over the ``m x n`` distance matrix is::

    f[i, j] = max(d(q_i, p_j), min(f[i-1, j-1], f[i-1, j], f[i, j-1]))

with first-row/column accumulation by running maximum.  The discrete
Frechet distance is a metric on point sequences and is order sensitive,
so the RP-Trie for Frechet uses pivot pruning but not the re-arrangement
optimization.

:func:`frechet_distance` is the per-pair oracle of the tests and the
benchmark's recheck, and what pivot selection scores groups with: a
numpy anti-diagonal sweep that shares nothing with the batch engine or
the kernel tier.  :func:`frechet_next_column` exposes one column step so
the index can extend bounds incrementally along a trie path (paper,
Eq. 9).  :func:`frechet_banded_distance` restricts couplings to a
Sakoe-Chiba band, yielding the upper-bound screen the batch refinement
engine (:mod:`repro.distances.batch`) runs over whole candidate sets;
because the Frechet DP uses only min/max (exact float selections), its
banded and unbanded values are evaluation-order independent, so every
implementation agrees bit for bit.
"""

from __future__ import annotations

import numpy as np

from .base import Measure, register_measure
from .matrix import point_distance_matrix

__all__ = ["frechet_distance", "frechet_banded_distance",
           "frechet_next_column"]


def frechet_next_column(prev_column: np.ndarray,
                        new_distances: np.ndarray) -> np.ndarray:
    """One column step of the discrete Frechet DP (paper, Eq. 9).

    Parameters
    ----------
    prev_column:
        ``f[:, j-1]``, shape ``(m,)``.  Pass an empty array for the first
        column.
    new_distances:
        ``d(q_i, p_j)`` for the new point ``p_j``, shape ``(m,)``.

    Returns
    -------
    ``f[:, j]``, shape ``(m,)``.
    """
    m = new_distances.shape[0]
    if prev_column.size == 0:
        # First column: f[i, 0] = max(d[0..i, 0]) (running maximum).
        return np.maximum.accumulate(new_distances)
    # The in-column dependency forces a sequential scan; plain-float
    # lists run it ~10x faster than per-element numpy indexing.
    dist = new_distances.tolist()
    prev = prev_column.tolist()
    column = [0.0] * m
    running = max(dist[0], prev[0])
    column[0] = running
    for i in range(1, m):
        best_prev = min(prev[i - 1], prev[i], running)
        running = best_prev if best_prev > dist[i] else dist[i]
        column[i] = running
    return np.asarray(column)


def frechet_distance(a: np.ndarray, b: np.ndarray,
                     dm: np.ndarray | None = None) -> float:
    """Discrete Frechet distance between two point arrays.

    The DP is swept along anti-diagonals: every cell on diagonal
    ``i + j = s`` depends only on diagonals ``s-1`` and ``s-2``.  The
    cost matrix is skewed once so that diagonal ``s`` is row ``s`` of
    ``skewed`` (indexed by ``i``, ``+inf`` outside the matrix) and the
    diagonal buffers carry one ``+inf`` cell in front for the missing
    ``i = -1`` neighbour, so a diagonal is three ufunc calls on
    fixed-width buffers and the first row and column need no special
    case: what lies outside the matrix is ``+inf``, which ``min`` drops.

    ``dm`` optionally supplies the precomputed pairwise-distance matrix.
    """
    if dm is None:
        dm = point_distance_matrix(a, b)
    if dm.shape[0] > dm.shape[1]:
        dm = dm.T  # symmetric measure: sweep buffers of the shorter side
    m, n = dm.shape
    rows = np.arange(m)[:, np.newaxis]
    skewed = np.full((m + n - 1, m), np.inf)
    skewed[rows + np.arange(n), rows] = dm
    prev2, prev1, current = np.full((3, m + 1), np.inf)
    prev1[1] = dm[0, 0]
    best = np.empty(m)
    for costs in skewed[1:]:
        np.minimum(prev2[:-1], prev1[:-1], out=best)  # f[i-1, j-1], f[i-1, j]
        np.minimum(best, prev1[1:], out=best)         # f[i, j-1]
        np.maximum(costs, best, out=current[1:])
        prev2, prev1, current = prev1, current, prev2
    return float(prev1[m])


def frechet_banded_distance(a: np.ndarray, b: np.ndarray, band: int,
                            dm: np.ndarray | None = None) -> float:
    """Sakoe-Chiba-banded discrete Frechet distance (upper bound).

    Only cells with ``|i - j| <= r`` are evaluated, where
    ``r = max(band, |m - n|)`` so the end cell stays inside the band;
    out-of-band cells count as ``+inf``.  Restricting the couplings can
    only raise the optimum, so the result upper-bounds
    :func:`frechet_distance` — and equals it (bit for bit, since the DP
    only selects among cost values) when the band covers the matrix
    (``r >= max(m, n) - 1``).

    The batched kernel
    (:func:`repro.distances.batch.batch_frechet_banded`) computes the
    same quantity for whole candidate sets; the property tests compare
    the two implementations for exact equality.
    """
    if dm is None:
        dm = point_distance_matrix(a, b)
    m, n = dm.shape
    r = max(int(band), abs(m - n))
    inf = np.inf
    row = np.full(n, inf)
    hi = min(n, r + 1)
    row[:hi] = np.maximum.accumulate(dm[0, :hi])
    for i in range(1, m):
        lo = max(0, i - r)
        hi = min(n, i + r + 1)
        new = np.full(n, inf)
        for j in range(lo, hi):
            best = row[j]  # f[i-1, j]
            if j >= 1:
                if row[j - 1] < best:
                    best = row[j - 1]  # f[i-1, j-1]
                if new[j - 1] < best:
                    best = new[j - 1]  # f[i, j-1]
            cost = dm[i, j]
            new[j] = cost if cost > best else best
        row = new
    return float(row[n - 1])


register_measure(Measure(
    name="frechet",
    fn=frechet_distance,
    is_metric=True,
    order_sensitive=True,
))
