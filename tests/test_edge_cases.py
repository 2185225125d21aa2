"""Edge-case tests across modules: empty inputs, degenerate sizes,
single-element structures, over-partitioning."""

import numpy as np
import pytest

from repro.baselines.dft import DFTIndex, _segment_boxes
from repro.baselines.dita import DITAIndex
from repro.cluster.driver import merge_top_k
from repro.core.grid import Grid
from repro.core.rptrie import RPTrie
from repro.core.search import local_range_search, local_search
from repro.core.succinct import SuccinctRPTrie
from repro.core.zorder import z_encode_array
from repro.distances import get_measure
from repro.repose import Repose
from repro.types import BoundingBox, Trajectory, TrajectoryDataset


class TestEmptyIndex:
    def test_empty_trie_build_and_search(self, small_grid):
        trie = RPTrie(small_grid, "hausdorff").build([])
        query = Trajectory([(1.0, 1.0)], traj_id=0)
        assert local_search(trie, query, 5).items == []
        assert local_range_search(trie, query, 10.0).items == []
        assert trie.node_count == 0

    def test_empty_frozen_trie(self, small_grid):
        trie = RPTrie(small_grid, "hausdorff").build([])
        frozen = SuccinctRPTrie(trie)
        query = Trajectory([(1.0, 1.0)], traj_id=0)
        assert local_search(frozen, query, 5).items == []

    def test_merge_no_partials(self):
        assert merge_top_k([], k=3).items == []


class TestSingleTrajectory:
    def test_trie_with_one_trajectory(self, small_grid):
        traj = Trajectory([(1.0, 1.0), (2.0, 2.0)], traj_id=0)
        trie = RPTrie(small_grid, "hausdorff").build([traj])
        result = local_search(trie, traj, 5)
        assert result.ids() == [0]

    def test_single_point_trajectories(self, small_grid):
        """Degenerate single-point trajectories across measures."""
        a = Trajectory([(1.0, 1.0)], traj_id=0)
        b = Trajectory([(6.0, 6.0)], traj_id=1)
        for name in ("hausdorff", "frechet", "dtw", "erp"):
            trie = RPTrie(small_grid, get_measure(name)).build([a, b])
            result = local_search(trie, a, 2)
            assert result.ids()[0] == 0


class TestDegenerateGrids:
    def test_single_cell_grid(self):
        grid = Grid(0.0, 0.0, 100.0, 1)
        assert grid.z_value_of(50.0, 50.0) == 0
        assert grid.reference_point(0) == (50.0, 50.0)

    def test_delta_larger_than_span(self):
        grid = Grid.fit(BoundingBox(0, 0, 1, 1), delta=50.0)
        assert grid.resolution == 1

    def test_search_on_single_cell_grid(self):
        grid = Grid(0.0, 0.0, 10.0, 1)
        trajs = [Trajectory([(1.0, 1.0), (2.0, 2.0)], traj_id=0),
                 Trajectory([(8.0, 8.0)], traj_id=1)]
        trie = RPTrie(grid, "hausdorff").build(trajs)
        result = local_search(trie, trajs[0], 2)
        assert result.ids() == [0, 1]


class TestOverPartitioning:
    def test_more_partitions_than_trajectories(self):
        ds = TrajectoryDataset(trajectories=[
            Trajectory([(float(i), float(i)), (i + 0.5, i + 0.5)])
            for i in range(3)])
        engine = Repose.build(ds, measure="hausdorff", delta=0.5,
                              num_partitions=8)
        outcome = engine.top_k(ds.trajectories[0], 3)
        assert len(outcome.result) == 3


class TestBaselineEdges:
    def test_segment_boxes_single_point(self):
        boxes = _segment_boxes(Trajectory([(2.0, 3.0)], traj_id=0))
        assert len(boxes) == 1
        assert boxes[0].min_x == boxes[0].max_x == 2.0

    def test_dft_single_trajectory(self):
        traj = Trajectory([(0.0, 0.0), (1.0, 1.0)], traj_id=0)
        index = DFTIndex("hausdorff").build([traj])
        assert index.top_k(traj, 1).ids() == [0]

    def test_dita_coarse_grid(self):
        rng = np.random.default_rng(0)
        trajs = [Trajectory(rng.uniform(0, 1, (5, 2)), traj_id=i)
                 for i in range(10)]
        index = DITAIndex("frechet", grid_resolution=1).build(trajs)
        measure = get_measure("frechet")
        expected = sorted((measure.distance(trajs[0], t), t.traj_id)
                          for t in trajs)[:3]
        got = index.top_k(trajs[0], 3)
        assert [round(d, 9) for d in got.distances()] == \
            [round(d, 9) for d, _ in expected]


class TestVectorizedEdges:
    def test_z_encode_array_empty(self):
        out = z_encode_array(np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64))
        assert out.shape == (0,)

    def test_identical_points_distance_zero(self):
        same = np.array([(1.0, 1.0)] * 5)
        for name in ("hausdorff", "frechet", "dtw", "erp"):
            assert get_measure(name).distance(same, same) == 0.0

    def test_length_one_vs_length_many(self):
        one = np.array([(0.0, 0.0)])
        many = np.array([(0.0, 0.0), (3.0, 4.0)])
        assert get_measure("hausdorff").distance(one, many) == 5.0
        assert get_measure("frechet").distance(one, many) == 5.0
        assert get_measure("dtw").distance(one, many) == 5.0


class TestQueryEqualsDataExtremes:
    def test_all_identical_trajectories(self, small_grid):
        """Many trajectories in the same cells exercise shared leaves."""
        base = np.array([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        trajs = [Trajectory(base + 0.01 * i, traj_id=i) for i in range(20)]
        trie = RPTrie(small_grid, "hausdorff").build(trajs)
        result = local_search(trie, trajs[0], 5)
        assert len(result) == 5
        assert result.distances()[0] == 0.0

    def test_duplicate_geometry_different_ids(self, small_grid):
        points = [(1.0, 1.0), (5.0, 5.0)]
        a = Trajectory(points, traj_id=0)
        b = Trajectory(points, traj_id=1)
        trie = RPTrie(small_grid, "hausdorff").build([a, b])
        result = local_search(trie, a, 2)
        assert sorted(result.ids()) == [0, 1]
        assert result.distances() == [0.0, 0.0]


SIX_MEASURES = [("hausdorff", {}), ("frechet", {}), ("dtw", {}), ("erp", {}),
                ("edr", {"eps": 0.4}), ("lcss", {"eps": 0.4})]


@pytest.mark.parametrize("name,params", SIX_MEASURES)
class TestDegenerateInputsThroughRuns:
    """Degenerate inputs through the run-following traversal, mutable
    and frozen: an empty first level, all-identical trajectories (one
    run, one leaf), a length-1 query, and k >= N."""

    def test_empty_first_level(self, small_grid, name, params):
        from repro.core.search import probe_search
        measure = get_measure(name, **params)
        query = Trajectory([(1.0, 1.0), (1.5, 2.0)], traj_id=0)
        trie = RPTrie(small_grid, measure).build([])
        for index in (trie, SuccinctRPTrie(trie)):
            assert local_search(index, query, 3).items == []
            assert local_range_search(index, query, 5.0).items == []
            probe = probe_search(index, query)
            assert probe.bound == float("inf")
            assert probe.child_bounds == ()

    def test_identical_trajectories(self, small_grid, name, params):
        measure = get_measure(name, **params)
        points = [(1.2, 1.1), (1.9, 1.4), (2.6, 2.2), (2.7, 3.1)]
        copies = [Trajectory(points, traj_id=i) for i in range(6)]
        trie = RPTrie(small_grid, measure).build(copies)
        assert trie.stats().leaf_count == 1
        for index in (trie, SuccinctRPTrie(trie)):
            for k in (1, 4, 6, 50):  # k >= N included
                result = local_search(index, copies[2], k)
                assert result.distances() == [0.0] * min(k, 6)
                assert len(set(result.ids())) == len(result.ids())
            assert len(local_range_search(index, copies[0], 0.0)) == 6

    def test_length_one_query(self, small_grid, small_trajectories, name,
                              params):
        measure = get_measure(name, **params)
        query = Trajectory([(4.0, 4.0)], traj_id=999)
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        scan = sorted(measure.distance(query, t) for t in small_trajectories)
        for index in (trie, SuccinctRPTrie(trie)):
            for k in (1, 7, len(small_trajectories) + 5):
                result = local_search(index, query, k)
                assert result.distances() == scan[:k]
