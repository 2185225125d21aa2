"""Tests for framework-level extensions: local_indexes, distributed
insert, trie stats, and the thread execution backend end to end."""

import numpy as np
import pytest

from repro.cluster.engine import ExecutionEngine
from repro.core.rptrie import RPTrie
from repro.distances import get_measure
from repro.exceptions import IndexNotBuiltError
from repro.repose import Repose
from repro.types import Trajectory


class TestLocalIndexes:
    def test_one_index_per_partition(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=4, plan="waves")
        indexes = engine.local_indexes()
        assert len(indexes) == 4
        assert sum(ix.trie.num_trajectories for ix in indexes) == \
            len(small_dataset)

    def test_requires_build(self, small_dataset):
        from repro.core.grid import Grid
        engine = Repose(small_dataset, get_measure("hausdorff"),
                        Grid(0, 0, 0.5, 16), num_partitions=2)
        with pytest.raises(IndexNotBuiltError):
            engine.local_indexes()


class TestDistributedInsert:
    def test_inserted_found_by_query(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=4)
        rng = np.random.default_rng(8)
        new = Trajectory(rng.uniform(0.2, 7.8, (7, 2)), traj_id=4242)
        engine.insert(new)
        outcome = engine.top_k(new, 1)
        assert outcome.result.ids() == [4242]

    def test_goes_to_smallest_partition(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=4)
        sizes_before = list(engine.build_report.partition_sizes)
        target = sizes_before.index(min(sizes_before))
        new = Trajectory(np.full((5, 2), 4.0), traj_id=999)
        engine.insert(new)
        assert engine.build_report.partition_sizes[target] == \
            sizes_before[target] + 1

    def test_exactness_preserved_after_inserts(self, small_dataset):
        measure = get_measure("hausdorff")
        engine = Repose.build(small_dataset, measure=measure, delta=0.5,
                              num_partitions=4)
        rng = np.random.default_rng(9)
        added = []
        for i in range(5):
            traj = Trajectory(rng.uniform(0.2, 7.8, (6, 2)),
                              traj_id=5000 + i)
            engine.insert(traj)
            added.append(traj)
        everything = list(small_dataset.trajectories) + added
        query = added[2]
        got = engine.top_k(query, 8).result.distances()
        want = sorted(measure.distance(query, t) for t in everything)[:8]
        assert [round(d, 9) for d in got] == [round(d, 9) for d in want]

    def test_succinct_insert_rejected(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=2, succinct=True)
        with pytest.raises(IndexNotBuiltError):
            engine.insert(Trajectory([(1.0, 1.0)], traj_id=777))


class TestTrieStats:
    def test_stats_consistency(self, small_grid, small_trajectories):
        trie = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        stats = trie.stats()
        assert stats.num_trajectories == len(small_trajectories)
        assert stats.node_count == trie.node_count
        assert stats.leaf_count > 0
        assert stats.depth == trie.depth()
        assert stats.avg_leaf_occupancy >= 1.0
        assert stats.memory_bytes > 0

    def test_leaves_hold_every_trajectory(self, small_grid,
                                          small_trajectories):
        trie = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        stats = trie.stats()
        assert stats.leaf_count * stats.avg_leaf_occupancy == \
            pytest.approx(len(small_trajectories))


class TestThreadBackend:
    def test_threaded_engine_matches_serial(self, small_dataset):
        measure = get_measure("hausdorff")
        serial = Repose.build(small_dataset, measure=measure, delta=0.5,
                              num_partitions=4)
        threaded = Repose.build(small_dataset, measure=measure, delta=0.5,
                                num_partitions=4,
                                engine=ExecutionEngine("thread",
                                                       max_workers=4))
        query = small_dataset.trajectories[1]
        a = serial.top_k(query, 6).result.distances()
        b = threaded.top_k(query, 6).result.distances()
        assert [round(d, 9) for d in a] == [round(d, 9) for d in b]
