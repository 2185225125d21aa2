"""Tests for geohash, clustering and the global partitioning strategies."""

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.exceptions import PartitioningError
from repro.partitioning.clustering import GeohashClustering
from repro.partitioning.geohash import (
    geohash_cell,
    geohash_prefix,
    trajectory_signature,
)
from repro.partitioning.strategies import (
    heterogeneous_partitions,
    homogeneous_partitions,
    make_strategy,
    random_partitions,
)
from repro.types import BoundingBox, Trajectory, TrajectoryDataset

BOX = BoundingBox(0.0, 0.0, 8.0, 8.0)


class TestGeohash:
    def test_precision_zero_is_single_cell(self):
        assert geohash_cell(1.0, 7.0, BOX, 0) == 0
        assert geohash_cell(7.0, 1.0, BOX, 0) == 0

    def test_quadrants_distinct_at_precision_one(self):
        codes = {geohash_cell(x, y, BOX, 1)
                 for x, y in ((1, 1), (1, 7), (7, 1), (7, 7))}
        assert len(codes) == 4

    def test_nested_prefix_property(self):
        """Coarsening a fine geohash equals hashing coarsely."""
        rng = np.random.default_rng(0)
        for x, y in rng.uniform(0, 8, (50, 2)):
            fine = geohash_cell(x, y, BOX, 6)
            coarse = geohash_cell(x, y, BOX, 3)
            assert geohash_prefix(fine, 6, 3) == coarse

    def test_prefix_rejects_refinement(self):
        with pytest.raises(ValueError):
            geohash_prefix(0, 2, 3)

    def test_negative_precision_rejected(self):
        with pytest.raises(ValueError):
            geohash_cell(1.0, 1.0, BOX, -1)

    def test_signature_collapses_consecutive(self):
        traj = Trajectory([(0.1, 0.1), (0.2, 0.2), (7.9, 7.9)], traj_id=0)
        sig = trajectory_signature(traj, BOX, 3)
        assert len(sig) == 2

    def test_signature_close_trajectories_equal(self):
        a = Trajectory([(1.0, 1.0), (1.2, 1.1)], traj_id=0)
        b = Trajectory([(1.05, 1.04), (1.15, 1.12)], traj_id=1)
        assert (trajectory_signature(a, BOX, 2)
                == trajectory_signature(b, BOX, 2))


def _skewed_dataset(count=60, seed=0) -> TrajectoryDataset:
    """Two spatial groups of similar trajectories."""
    rng = np.random.default_rng(seed)
    ds = TrajectoryDataset(name="skewed")
    for i in range(count):
        center = (1.5, 1.5) if i % 2 == 0 else (6.5, 6.5)
        start = rng.normal(center, 0.1)
        steps = rng.normal(0, 0.05, (6, 2))
        points = np.clip(np.vstack([start, start + np.cumsum(steps, axis=0)]),
                         0.01, 7.99)
        ds.add(Trajectory(points, traj_id=i))
    return ds


def _signature_loop(dataset, target, max_precision=12):
    """The clustering as its docstring states it, one
    :func:`trajectory_signature` per trajectory and precision."""
    box = dataset.bounding_box()
    for precision in range(max_precision, -1, -1):
        groups = {}
        for index, traj in enumerate(dataset.trajectories):
            groups.setdefault(trajectory_signature(traj, box, precision),
                              []).append(index)
        if len(groups) <= target:
            break
    labels = [0] * len(dataset)
    for cluster_id, signature in enumerate(sorted(groups)):
        for index in groups[signature]:
            labels[index] = cluster_id
    return labels, len(groups), precision


def _degenerate(points_list) -> TrajectoryDataset:
    return TrajectoryDataset(trajectories=[
        Trajectory(points, traj_id=i) for i, points in enumerate(points_list)])


_WALK = [(1.0, 1.0), (1.5, 2.5), (6.0, 2.0)]
_CLUSTER_CASES = {
    "t-drive": (lambda: generate_dataset("t-drive", scale=0.0002, seed=3),
                (1, 4, 30)),
    "sf": (lambda: generate_dataset("sf", scale=0.0002, seed=4), (1, 9, 30)),
    "skewed": (lambda: _skewed_dataset(), (1, 2, 7, 1000)),
    "single trajectory": (lambda: _degenerate([_WALK]), (1, 3)),
    "single point": (lambda: _degenerate([[(2.0, 3.0)]]), (1,)),
    "zero-width box": (lambda: _degenerate(
        [[(4.0, y), (4.0, y + 1.0)] for y in range(6)]), (1, 2, 6)),
    "all identical": (lambda: _degenerate([_WALK] * 5), (1, 5)),
}


class TestClustering:
    @pytest.mark.parametrize("case", list(_CLUSTER_CASES))
    def test_one_pass_equals_the_signature_loop(self, case):
        """One geohash pass coarsened by shifts, grouped by bytes: the
        labels, cluster count and stop precision of the loop over
        :func:`trajectory_signature`."""
        make, targets = _CLUSTER_CASES[case]
        dataset = make()
        for target in targets:
            for max_precision in (12, 5, 0):
                result = GeohashClustering(
                    target, max_precision=max_precision).cluster(dataset)
                assert ((result.labels, result.num_clusters, result.precision)
                        == _signature_loop(dataset, target, max_precision))

    def test_target_cluster_count_reached(self):
        ds = _skewed_dataset()
        result = GeohashClustering(target_clusters=8).cluster(ds)
        assert 1 <= result.num_clusters <= 8

    def test_labels_dense(self):
        ds = _skewed_dataset()
        result = GeohashClustering(target_clusters=6).cluster(ds)
        assert set(result.labels) == set(range(result.num_clusters))

    def test_similar_trajectories_share_cluster(self):
        ds = _skewed_dataset()
        result = GeohashClustering(target_clusters=2).cluster(ds)
        left = {result.labels[i] for i in range(len(ds)) if i % 2 == 0}
        right = {result.labels[i] for i in range(len(ds)) if i % 2 == 1}
        # The two spatial groups do not mix at 2 clusters.
        assert left.isdisjoint(right)

    def test_empty_dataset(self):
        result = GeohashClustering(target_clusters=4).cluster(
            TrajectoryDataset())
        assert result.labels == []
        assert result.num_clusters == 0

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            GeohashClustering(target_clusters=0)


class TestStrategies:
    @pytest.mark.parametrize("strategy", [heterogeneous_partitions,
                                          homogeneous_partitions,
                                          random_partitions])
    def test_partition_is_exact_cover(self, strategy):
        ds = _skewed_dataset()
        partitions = strategy(ds, 8)
        ids = sorted(t.traj_id for part in partitions for t in part)
        assert ids == sorted(ds.ids())

    @pytest.mark.parametrize("strategy", [heterogeneous_partitions,
                                          homogeneous_partitions,
                                          random_partitions])
    def test_partition_sizes_balanced(self, strategy):
        ds = _skewed_dataset(count=61)
        sizes = [len(p) for p in strategy(ds, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_heterogeneous_spreads_similar_trajectories(self):
        """Each partition receives members of both spatial groups."""
        ds = _skewed_dataset(count=64)
        partitions = heterogeneous_partitions(ds, 4)
        for part in partitions:
            groups = {t.traj_id % 2 for t in part}
            assert groups == {0, 1}

    def test_homogeneous_concentrates_similar_trajectories(self):
        """Most partitions are dominated by one spatial group."""
        ds = _skewed_dataset(count=64)
        partitions = homogeneous_partitions(ds, 4)
        dominated = 0
        for part in partitions:
            counts = [sum(1 for t in part if t.traj_id % 2 == g)
                      for g in (0, 1)]
            if max(counts) >= 0.9 * len(part):
                dominated += 1
        assert dominated >= 3

    def test_random_deterministic_by_seed(self):
        ds = _skewed_dataset()
        a = random_partitions(ds, 4, seed=7)
        b = random_partitions(ds, 4, seed=7)
        assert [[t.traj_id for t in p] for p in a] == \
            [[t.traj_id for t in p] for p in b]

    def test_make_strategy_lookup(self):
        assert make_strategy("heterogeneous") is heterogeneous_partitions
        assert make_strategy("HOMOGENEOUS") is homogeneous_partitions
        with pytest.raises(PartitioningError):
            make_strategy("bogus")

    def test_single_partition(self):
        ds = _skewed_dataset(count=10)
        partitions = heterogeneous_partitions(ds, 1)
        assert len(partitions) == 1
        assert len(partitions[0]) == 10
