"""Driver-side merging of per-partition search results.

After ``mapPartitions`` computes local results, the master collects
them and reduces them into one global answer (paper, Section V-C: "the
master collects the results from each partition by collect and
determines the global top-k result").  Two reduction styles live here:

* :class:`RunningTopK` — a *wave-incremental* merge: the query planner
  folds each wave's partial results as they arrive and reads the
  running global k-th-best distance ``dk`` off the accumulator to
  broadcast into the next wave.  Folding is associative over any
  grouping of the partials (the (distance, tid) order is total), so
  wave boundaries never change the merged answer.
  :class:`RunningTopKVector` lifts this to a whole query batch — one
  accumulator per query, whose broadcast thresholds take the
  planner's certified cross-query bounds;
* the one-shot functions :func:`merge_top_k`, :func:`merge_range` and
  :func:`merge_stats`, which reduce a fully collected list of partials
  (single-shot execution, batch scheduling, tests).  ``merge_top_k``
  is a single :class:`RunningTopK` fold, so both styles share one
  tie-breaking rule.

All reductions are pure functions of the collected partials, so the
driver stays correct under any execution backend and any task
completion order.
"""

from __future__ import annotations

import heapq
from dataclasses import fields, replace
from typing import Iterable

import numpy as np

from ..core.search import SearchStats, TopKResult

__all__ = ["RunningTopK", "RunningTopKVector", "merge_stats",
           "merge_top_k", "merge_range"]


def merge_stats(partials: Iterable[SearchStats]) -> SearchStats:
    """Sum per-partition :class:`SearchStats` field by field."""
    merged = SearchStats()
    for stats in partials:
        for f in fields(SearchStats):
            setattr(merged, f.name,
                    getattr(merged, f.name) + getattr(stats, f.name))
    return merged


class RunningTopK:
    """Incremental global top-k accumulator for waved execution.

    Keeps the k globally smallest ``(distance, tid)`` pairs folded so
    far, with exactly :func:`merge_top_k`'s ordering and tie-breaking
    (ascending distance, then ascending tid).  Because that order is
    total, ``fold`` is associative: folding wave by wave, partition by
    partition, or everything at once produces the same items — which
    is what lets the planner merge incrementally without perturbing
    results.  Stats are summed across every folded partial.
    """

    def __init__(self, k: int):
        self.k = k
        self._items: list[tuple[float, int]] = []
        self._stats = SearchStats()

    @property
    def dk(self) -> float:
        """Running global k-th best distance (inf until k items seen).

        This is the threshold the planner broadcasts: it is only
        finite once k items are actually held, so a seeded search can
        never suppress a candidate that the unseeded run would keep.
        """
        if len(self._items) < self.k:
            return float("inf")
        return self._items[-1][0]

    def fold(self, partials: Iterable[TopKResult]) -> "RunningTopK":
        """Fold per-partition partials into the running global top-k."""
        partials = list(partials)
        all_items = list(self._items)
        for partial in partials:
            all_items.extend(partial.items)
        self._items = sorted(heapq.nsmallest(self.k, all_items))
        for partial in partials:
            self._stats = merge_stats((self._stats, partial.stats))
        return self

    def result(self) -> TopKResult:
        """The merged global result so far (items copied, stats shared
        via a fresh dataclass copy)."""
        return TopKResult(items=list(self._items),
                          stats=replace(self._stats))


class RunningTopKVector:
    """Per-query running merges for multi-query batched execution.

    The batch query planner (:mod:`repro.cluster.batch`) folds one
    wave's multi-query task results into one :class:`RunningTopK` per
    query and reads the whole batch's running k-th-best distances back
    as a vector to broadcast into the next wave.  Each query's fold is
    exactly the single-query fold (same ordering, same tie-breaks), so
    every per-query answer stays bit-identical to running that query
    alone.

    :meth:`broadcast_vector` min-folds the planner's certified
    cross-query bounds into the thresholds.  For metric measures those
    come from the triangle inequality: if query ``i`` already holds k
    results at distance ``dk_i`` or better, those same k trajectories
    lie within ``dk_i + d(q_i, q_j)`` of query ``j``, so query ``j``'s
    *final* k-th best can never exceed that — a sound (strictly
    applied, hence answer-preserving) threshold for ``j`` even before
    ``j`` has found k results of its own
    (:meth:`repro.cluster.query_index.QueryIndex.tighten`).
    """

    def __init__(self, num_queries: int, k: int):
        self.k = k
        self._merges = [RunningTopK(k) for _ in range(num_queries)]

    def __len__(self) -> int:
        return len(self._merges)

    def fold(self, index: int, partials: Iterable[TopKResult]) -> None:
        """Fold partial results into query ``index``'s running merge."""
        self._merges[index].fold(partials)

    def dk(self, index: int) -> float:
        """Query ``index``'s running global k-th best distance."""
        return self._merges[index].dk

    def dk_vector(self) -> np.ndarray:
        """Every query's running ``dk`` as one float vector."""
        return np.array([merge.dk for merge in self._merges])

    def broadcast_vector(self, bounds: np.ndarray | None = None,
                         ) -> np.ndarray:
        """Per-query thresholds for the next wave.

        Each query's own running ``dk``, min-folded with ``bounds`` —
        a per-query vector of externally certified upper bounds on each
        query's *final* k-th best (the batch planner's registry seeds
        and triangle bounds).  The running
        merges are never modified: the vector is a broadcast value,
        not a result.
        """
        thresholds = self.dk_vector()
        if bounds is not None:
            thresholds = np.minimum(thresholds,
                                    np.asarray(bounds, dtype=float))
        return thresholds

    def results(self) -> list[TopKResult]:
        """The merged global result of every query, in input order."""
        return [merge.result() for merge in self._merges]


def merge_top_k(partials: Iterable[TopKResult], k: int) -> TopKResult:
    """Merge per-partition :class:`TopKResult` lists into a global one.

    One-shot form of :class:`RunningTopK` (a single fold), so one-shot
    and waved execution share identical ordering and tie-breaking.
    Stats are summed across partitions so pruning effectiveness can be
    reported cluster-wide.
    """
    return RunningTopK(k).fold(partials).result()


def merge_range(partials: Iterable[TopKResult]) -> TopKResult:
    """Merge per-partition range-query results into a global one.

    Every partition already returned *all* of its trajectories within
    the radius, so the global answer is the sorted concatenation —
    there is no k to cut at.  Stats are summed as in
    :func:`merge_top_k`.
    """
    partials = list(partials)
    items: list[tuple[float, int]] = []
    for partial in partials:
        items.extend(partial.items)
    return TopKResult(items=sorted(items),
                      stats=merge_stats(p.stats for p in partials))
