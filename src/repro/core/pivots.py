"""Pivot trajectory selection (paper, Section III-B).

For metric measures the index stores, per node, the (min, max) distances
from the node's subtree to ``Np`` global pivot trajectories.  Pivots
should be far from each other; the paper adopts the practical method of
[21]: sample ``m`` groups of ``Np`` trajectories uniformly at random,
score each group by the sum of its pairwise distances, and keep the
highest-scoring group.
"""

from __future__ import annotations

import numpy as np

from ..distances.base import Measure
from ..distances.batch import exact_distances
from ..types import Trajectory
from .store import TrajectoryStore

__all__ = ["select_pivots", "downsample_trajectory", "pivot_store",
           "query_pivot_distances"]

#: Default cap on pivot trajectory length.  Pivot pruning only needs
#: *some* fixed reference objects — HR ranges and query-pivot distances
#: all reference the same object, so the triangle inequality holds for
#: any pivot geometry.  Downsampling long pivots caps the O(L^2)
#: pivot-distance cost during construction and query without affecting
#: soundness (only, mildly, pruning tightness).
DEFAULT_MAX_PIVOT_LENGTH = 128


def downsample_trajectory(traj: Trajectory, max_length: int) -> Trajectory:
    """Uniformly subsample a trajectory to at most ``max_length`` points,
    always keeping the first and last point."""
    if len(traj) <= max_length:
        return traj
    index = np.linspace(0, len(traj) - 1, max_length).round().astype(int)
    index = np.unique(index)
    return Trajectory(traj.points[index], traj_id=traj.traj_id)


def select_pivots(trajectories: list[Trajectory], measure: Measure,
                  num_pivots: int = 5, num_groups: int = 10,
                  rng: np.random.Generator | None = None,
                  max_pivot_length: int = DEFAULT_MAX_PIVOT_LENGTH,
                  ) -> list[Trajectory]:
    """Choose ``num_pivots`` pivot trajectories.

    Parameters
    ----------
    trajectories:
        Candidate pool (typically the whole local dataset).
    measure:
        Distance measure used to score groups; pivots are only useful
        for metric measures, but selection works for any.
    num_pivots:
        The paper's ``Np`` (default 5, the value used in experiments).
    num_groups:
        The paper's ``m``: number of random groups sampled.
    rng:
        Source of randomness; a fixed default seed keeps builds
        reproducible.
    max_pivot_length:
        Pivots longer than this are uniformly downsampled (see
        :data:`DEFAULT_MAX_PIVOT_LENGTH`).

    Returns
    -------
    The group of ``num_pivots`` trajectories with the largest pairwise
    distance sum.  If the pool has at most ``num_pivots`` members, the
    whole pool is returned (downsampled where needed).
    """
    if num_pivots <= 0:
        return []
    if rng is None:
        rng = np.random.default_rng(7)

    def shorten(group: list[Trajectory]) -> list[Trajectory]:
        return [downsample_trajectory(t, max_pivot_length) for t in group]

    if len(trajectories) <= num_pivots:
        return shorten(list(trajectories))

    best_group: list[Trajectory] | None = None
    best_score = -np.inf
    pool_size = len(trajectories)
    for _ in range(num_groups):
        index = rng.choice(pool_size, size=num_pivots, replace=False)
        group = shorten([trajectories[i] for i in index])
        score = _pairwise_distance_sum(group, measure)
        if score > best_score:
            best_score = score
            best_group = group
    assert best_group is not None
    return best_group


def _pairwise_distance_sum(group: list[Trajectory], measure: Measure) -> float:
    total = 0.0
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            total += measure.distance(group[i], group[j])
    return total


def pivot_store(owner) -> TrajectoryStore:
    """``owner.pivots`` as a columnar store, rows addressed by pivot
    position; built on first use, kept on ``owner`` (a trie, or the
    engine whose driver shares ``dqp`` with every partition) and
    rebuilt if its ``pivots`` list is replaced."""
    pivots = owner.pivots
    cached = getattr(owner, "_pivot_store", None)
    if cached is None or cached[0] is not pivots:
        cached = (pivots, TrajectoryStore(
            Trajectory(p.points, traj_id=i) for i, p in enumerate(pivots)))
        owner._pivot_store = cached
    return cached[1]


def query_pivot_distances(owner, measure: Measure, query: Trajectory,
                          kernels: str | None = None) -> np.ndarray:
    """``[measure.distance(query, p) for p in owner.pivots]``, bit for
    bit, as one batched kernel call (``dqp`` of the pivot bound)."""
    return exact_distances(measure, query.points, pivot_store(owner),
                           list(range(len(owner.pivots))), kernels=kernels)
