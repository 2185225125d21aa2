"""Threshold-aware (early-abandoning) distance evaluation.

During top-k refinement only distances below the current k-th best
``dk`` matter, so each measure gets a cheap lower-bound prefilter:

* Hausdorff — abandon after the first directed side (already O(L^2)
  matrix work, which the full computation needs anyway);
* Frechet — dominates Hausdorff (every coupling matches each point at
  least once), and the Hausdorff value falls out of the pairwise-
  distance matrix in two reductions; when it reaches the threshold the
  expensive DP is skipped;
* DTW — a warping path visits every row and every column, so the sum of
  row minima (and of column minima) of the pairwise-distance matrix
  lower-bounds the sum of path costs;
* ERP — dominates ``|sum |a_i - g|| - sum |b_j - g|||`` (gap-cost mass
  difference, from the original ERP paper), an O(L) prefilter (like
  DTW's, a float sum in another order than the DP's: both give up
  :func:`~repro.distances.base.rounding_slack`);
* EDR — at least the length difference ``|m - n|``;
* LCSS — no useful cheap bound; computed exactly.

The contract: the returned value is exact when it is below
``threshold``; otherwise it may be any lower bound that is itself
``>= threshold``.
"""

from __future__ import annotations

import numpy as np

from .base import Measure, rounding_slack
from .dtw import dtw_distance
from .erp import erp_distance
from .frechet import frechet_distance
from .hausdorff import hausdorff_distance_threshold
from .matrix import point_distance_matrix

__all__ = ["distance_with_threshold"]


def _hausdorff_from_matrix(dm: np.ndarray) -> float:
    return float(max(dm.min(axis=1).max(), dm.min(axis=0).max()))


def distance_with_threshold(measure: Measure, a: np.ndarray, b: np.ndarray,
                            threshold: float) -> float:
    """Distance under ``measure``, early-abandoned at ``threshold``.

    Returns the exact distance when it is ``< threshold``; otherwise
    some value ``>= threshold`` (a valid lower bound, not necessarily
    the exact distance).
    """
    if not np.isfinite(threshold):
        return measure.distance(a, b)
    name = measure.name
    if name == "hausdorff":
        return hausdorff_distance_threshold(a, b, threshold)
    if name == "frechet":
        dm = point_distance_matrix(a, b)
        lower = _hausdorff_from_matrix(dm)
        if lower >= threshold:
            return lower
        return frechet_distance(a, b, dm=dm)
    if name == "dtw":
        dm = point_distance_matrix(a, b)
        lower = (max(float(dm.min(axis=1).sum()), float(dm.min(axis=0).sum()))
                 - rounding_slack(len(a) + len(b), a, b))
        if lower >= threshold:
            return lower
        return dtw_distance(a, b, dm=dm)
    if name == "erp":
        gap = np.asarray(measure.params.get("gap", (0.0, 0.0)))
        mass_a = float(np.hypot(a[:, 0] - gap[0], a[:, 1] - gap[1]).sum())
        mass_b = float(np.hypot(b[:, 0] - gap[0], b[:, 1] - gap[1]).sum())
        lower = (abs(mass_a - mass_b)
                 - rounding_slack(len(a) + len(b), a, b, gap[np.newaxis]))
        if lower >= threshold:
            return lower
        return erp_distance(a, b, gap=tuple(gap))
    if name == "edr":
        lower = float(abs(len(a) - len(b)))
        if lower >= threshold:
            return lower
        return measure.distance(a, b)
    return measure.distance(a, b)
