"""Numpy reference for the run-extension kernels.

A *run* is a chain of trie nodes that the best-first traversal
(:mod:`repro.core.search`) crosses in one step.  Each kernel sweeps one
bound computer's column DP (:mod:`repro.core.bounds`) over the cells of
a run: ``rows`` is the computer's per-query table of cell rows (one row
per touched grid cell, one value per query point), ``slots`` the int64
row indices of the run's cells in path order.  After every cell the
kernel derives the column's lower bound and stops as soon as it reaches
``cutoff`` — bounds never decrease along a path, so a stopped run's
bound already prunes everything beneath it.  Every kernel returns the
state after the last cell it consumed followed by that cell's bound.

These sweeps are the per-cell column steps applied along the run, one
numpy step per cell; :mod:`.cnative` holds the C translations, which
keep each step's association order and so return the same bits.
"""

from __future__ import annotations

import numpy as np

from ..dtw import dtw_next_column
from ..frechet import frechet_next_column

__all__ = ["hausdorff_run", "frechet_run", "dtw_run", "erp_run",
           "edr_run", "lcss_run", "lcss_subtree_bound"]


def hausdorff_run(r, cmax, rows, slots, slack, cutoff):
    """Algorithm 1 along a run: row minima ``r`` and the running
    maximum ``cmax`` of the column minima over point-to-centre rows;
    the bound is ``max(cmax - slack, 0)``."""
    bound = 0.0
    for slot in slots.tolist():
        dist = rows[slot]
        r = np.minimum(r, dist)
        cmax = max(cmax, float(dist.min()))
        bound = max(cmax - slack, 0.0)
        if bound >= cutoff:
            break
    return r, cmax, bound


def frechet_run(column, rows, slots, slack, cutoff):
    """Discrete Frechet column DP (Eq. 9) along a run over
    point-to-centre rows; the bound is ``max(min(column) - slack, 0)``."""
    bound = 0.0
    for slot in slots.tolist():
        column = frechet_next_column(column, rows[slot])
        bound = max(float(column.min()) - slack, 0.0)
        if bound >= cutoff:
            break
    return column, bound


def dtw_run(column, rows, slots, cutoff):
    """DTW column DP (Eq. 15) along a run over point-to-cell rows; the
    bound is the column minimum."""
    bound = 0.0
    for slot in slots.tolist():
        column = dtw_next_column(column, rows[slot])
        bound = float(column.min())
        if bound >= cutoff:
            break
    return column, bound


def erp_run(column, rows, slots, prefix, cutoff):
    """Relaxed ERP column DP along a run.  A row holds the point-to-cell
    distances of the query points followed by that of the gap point (the
    cost of a reference gap); ``prefix`` is the running sum of the exact
    query-gap costs, the weights of the in-column min-plus scan."""
    bound = 0.0
    m = len(column) - 1
    for slot in slots.tolist():
        row = rows[slot]
        gap_cell = row[m]
        candidates = np.empty(m + 1, dtype=np.float64)
        candidates[0] = column[0] + gap_cell
        np.minimum(column[:-1] + row[:m], column[1:] + gap_cell,
                   out=candidates[1:])
        column = prefix + np.minimum.accumulate(candidates - prefix)
        bound = float(column.min())
        if bound >= cutoff:
            break
    return column, bound


def edr_run(column, match, slots, cutoff):
    """Relaxed EDR column DP along a run over could-match rows: a
    min-plus scan with unit insert weight (see ``edr_distance``)."""
    bound = 0.0
    positions = np.arange(len(column), dtype=np.float64)
    for slot in slots.tolist():
        candidates = np.empty(len(column), dtype=np.float64)
        candidates[0] = column[0] + 1.0
        np.minimum(column[:-1] + np.where(match[slot], 0.0, 1.0),
                   column[1:] + 1.0, out=candidates[1:])
        column = positions + np.minimum.accumulate(candidates - positions)
        bound = float(column.min())
        if bound >= cutoff:
            break
    return column, bound


def lcss_subtree_bound(sim: float, depth: int, m: int, n_max: int) -> float:
    """LCSS distance bound for a subtree whose longest trajectory has
    ``n_max`` points, ``depth`` cells in and ``sim`` matched so far: the
    expression ``min(sim + n - depth, min(m, n)) / min(m, n)`` attains
    its maximum at ``n = n_max``."""
    n_max = max(n_max, depth)
    denom = min(m, n_max)
    best_sim = min(sim + (n_max - depth), denom)
    return max(1.0 - best_sim / denom, 0.0)


def lcss_run(column, depth, match, slots, max_traj_len, cutoff):
    """Relaxed LCSS column DP along a run over could-match rows.  The
    in-column term carries no penalty, so a running max suffices:
    ``l[i, j] = max(l[i-1, j], l[i, j-1], l[i-1, j-1] + match)``."""
    bound = 0.0
    m = len(column) - 1
    for slot in slots.tolist():
        candidates = np.empty(m + 1, dtype=np.float64)
        candidates[0] = 0.0
        np.maximum(column[1:], column[:-1] + match[slot],
                   out=candidates[1:])
        column = np.maximum.accumulate(candidates)
        depth += 1
        bound = lcss_subtree_bound(float(column[-1]), depth, m,
                                   max_traj_len)
        if bound >= cutoff:
            break
    return column, depth, bound
