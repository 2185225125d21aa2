"""SOM-TC-style trajectory clustering via geohash coarsening.

The paper (Section V-B) clusters with SOM-TC [10] operationally: encode
every trajectory with geohash, group equal encodings, and *enlarge the
space granularity gradually* until roughly ``N / NG`` clusters remain
(``N`` = dataset cardinality, ``NG`` = number of partitions).

This module reproduces that loop: starting from a fine precision where
almost every trajectory is its own cluster, precision is decreased one
step at a time; at each step clusters whose coarsened signatures collide
merge.  The stop condition is the first precision at or below the
target cluster count (or precision 0).

Every point is hashed once, at the finest precision: a geohash is a
z-order prefix, so a coarser precision's codes are the fine codes
shifted right (exact: the scale is a power of two).  One mask per
precision marks the run starts of every trajectory's code sequence and
trajectories group by those bytes; tuple signatures (the per-trajectory
:func:`~repro.partitioning.geohash.trajectory_signature`) are only
built at the chosen precision, to order the clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..types import TrajectoryDataset
from .geohash import _vector_geohash

__all__ = ["GeohashClustering", "ClusteringResult"]


@dataclass
class ClusteringResult:
    """Cluster assignment: ``labels[i]`` is the cluster id of
    ``dataset.trajectories[i]``; ids are dense in ``[0, num_clusters)``."""

    labels: list[int]
    num_clusters: int
    precision: int


class GeohashClustering:
    """Agglomerative geohash clustering.

    Parameters
    ----------
    target_clusters:
        Desired number of clusters (the paper's ``N / NG``).
    max_precision:
        Starting (finest) precision in bisection rounds; 12 rounds
        resolve a 4096 x 4096 grid, ample for singleton clusters.
    """

    def __init__(self, target_clusters: int, max_precision: int = 12):
        if target_clusters < 1:
            raise ValueError("target_clusters must be >= 1")
        self.target_clusters = target_clusters
        self.max_precision = max_precision

    def cluster(self, dataset: TrajectoryDataset) -> ClusteringResult:
        """Cluster the dataset; see module docstring for the procedure."""
        trajectories = dataset.trajectories
        if not trajectories:
            return ClusteringResult(labels=[], num_clusters=0, precision=0)
        starts = np.cumsum([0] + [len(t) for t in trajectories])[:-1]
        fine = _vector_geohash(np.concatenate([t.points for t in trajectories]),
                               dataset.bounding_box(), self.max_precision)
        for precision in range(self.max_precision, -1, -1):
            codes = fine >> (2 * (self.max_precision - precision))
            keep = np.append(True, codes[1:] != codes[:-1])
            keep[starts] = True
            kept = codes[keep]
            bounds = np.append(np.cumsum(keep)[starts] - 1, len(kept)).tolist()
            groups: dict[bytes, list[int]] = {}
            for index in range(len(trajectories)):
                segment = kept[bounds[index]:bounds[index + 1]]
                groups.setdefault(segment.tobytes(), []).append(index)
            if len(groups) <= self.target_clusters:
                break

        labels = [0] * len(trajectories)
        # Deterministic dense ids: clusters ordered by their signature
        # (as int sequences — the byte keys would sort little-endian).
        for cluster_id, key in enumerate(sorted(
                groups, key=lambda k: np.frombuffer(k, kept.dtype).tolist())):
            for index in groups[key]:
                labels[index] = cluster_id
        return ClusteringResult(labels=labels, num_clusters=len(groups),
                                precision=precision)
