"""Tests for the distributed REPOSE framework and baseline harness."""

import numpy as np
import pytest

from repro.baselines.linear import LinearScanIndex
from repro.cluster.scheduler import ClusterSpec
from repro.distances import get_measure
from repro.exceptions import IndexNotBuiltError
from repro.repose import (
    DistributedTopK,
    Repose,
    RPTrieLocalIndex,
    make_baseline,
)
from repro.types import Trajectory


def brute_force(measure, query, dataset, k):
    return sorted((measure.distance(query, t), t.traj_id) for t in dataset)[:k]


class TestReposeBuild:
    def test_build_returns_ready_engine(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff",
                              delta=0.5, num_partitions=4)
        assert engine.build_report is not None
        assert engine.build_report.index_bytes > 0
        assert len(engine.build_report.partition_sizes) == 4

    def test_distributed_equals_brute_force(self, small_dataset):
        measure = get_measure("hausdorff")
        engine = Repose.build(small_dataset, measure=measure, delta=0.5,
                              num_partitions=4)
        query = small_dataset.trajectories[6]
        outcome = engine.top_k(query, 10)
        expected = brute_force(measure, query, small_dataset, 10)
        got = [round(d, 9) for d in outcome.result.distances()]
        assert got == [round(d, 9) for d, _ in expected]

    @pytest.mark.parametrize("strategy", ["heterogeneous", "homogeneous",
                                          "random"])
    def test_any_strategy_is_exact(self, small_dataset, strategy):
        measure = get_measure("frechet")
        engine = Repose.build(small_dataset, measure=measure, delta=0.5,
                              num_partitions=4, strategy=strategy)
        query = small_dataset.trajectories[2]
        expected = brute_force(measure, query, small_dataset, 5)
        got = engine.top_k(query, 5).result.distances()
        assert [round(d, 9) for d in got] == [round(d, 9) for d, _ in expected]

    def test_succinct_mode_is_exact(self, small_dataset):
        measure = get_measure("hausdorff")
        engine = Repose.build(small_dataset, measure=measure, delta=0.5,
                              num_partitions=4, succinct=True)
        query = small_dataset.trajectories[0]
        expected = brute_force(measure, query, small_dataset, 5)
        got = engine.top_k(query, 5).result.distances()
        assert [round(d, 9) for d in got] == [round(d, 9) for d, _ in expected]

    def test_default_delta_inferred(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff",
                              num_partitions=2)
        assert engine.grid.delta > 0

    def test_query_before_build_raises(self, small_dataset):
        measure = get_measure("hausdorff")
        from repro.core.grid import Grid
        engine = Repose(small_dataset, measure,
                        Grid(0, 0, 0.5, 16), num_partitions=2)
        with pytest.raises(IndexNotBuiltError):
            engine.top_k(small_dataset.trajectories[0], 3)

    def test_global_pivots_shared_across_partitions(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=4, num_pivots=3)
        assert len(engine.pivots) == 3


class TestQueryOutcome:
    def test_timings_reported(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=4, plan="waves")
        outcome = engine.top_k(small_dataset.trajectories[0], 5)
        assert outcome.wall_seconds > 0
        assert outcome.simulated_seconds > 0
        assert len(outcome.per_partition_seconds) == 4
        # With 64 simulated cores and 4 partitions, the makespan equals
        # the slowest partition.
        assert outcome.simulated_seconds == pytest.approx(
            max(outcome.per_partition_seconds))

    def test_fewer_cores_increase_makespan(self, small_dataset):
        """The same measured per-partition timings scheduled on fewer
        cores can never finish earlier."""
        from repro.cluster.engine import TaskTiming
        from repro.cluster.scheduler import simulate_schedule

        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=8,
                              cluster_spec=ClusterSpec(4, 4))
        outcome = engine.top_k(small_dataset.trajectories[0], 5)
        timings = [TaskTiming(i, s)
                   for i, s in enumerate(outcome.per_partition_seconds)]
        fast = simulate_schedule(timings, ClusterSpec(4, 4)).makespan
        slow = simulate_schedule(timings, ClusterSpec(1, 1)).makespan
        assert slow >= fast

    def test_batch_queries(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=2)
        batch = engine.top_k_batch(small_dataset.trajectories[:3], 4)
        assert len(batch.results) == 3
        assert all(len(result) == 4 for result in batch.results)
        # The default plan is the batched wave planner; per-query
        # sequential execution returns the same results.
        sequential = engine.top_k_batch(small_dataset.trajectories[:3], 4,
                                        plan="single")
        assert [r.items for r in sequential.results] == \
            [r.items for r in batch.results]


class TestBaselineFactory:
    @pytest.mark.parametrize("name,measure", [("ls", "hausdorff"),
                                              ("dft", "hausdorff"),
                                              ("dita", "frechet")])
    def test_baselines_exact(self, small_dataset, name, measure):
        measure_obj = get_measure(measure)
        engine = make_baseline(name, small_dataset, measure_obj,
                               num_partitions=4)
        engine.build()
        query = small_dataset.trajectories[8]
        expected = brute_force(measure_obj, query, small_dataset, 10)
        got = engine.top_k(query, 10).result.distances()
        assert [round(d, 9) for d in got] == [round(d, 9) for d, _ in expected]

    def test_unknown_baseline_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            make_baseline("quantum", small_dataset, "hausdorff")

    def test_heterogeneous_variant(self, small_dataset):
        """Heter-DFT (Table IX): DFT with REPOSE's partitioning."""
        engine = make_baseline("dft", small_dataset, "hausdorff",
                               num_partitions=4, strategy="heterogeneous")
        engine.build()
        assert engine.build_report is not None

    def test_index_bytes_require_build(self, small_dataset):
        engine = make_baseline("ls", small_dataset, "hausdorff")
        with pytest.raises(IndexNotBuiltError):
            engine.index_bytes()


class TestRPTrieLocalIndex:
    def test_adapter_interface(self, small_dataset, small_grid):
        measure = get_measure("hausdorff")
        index = RPTrieLocalIndex(small_grid, measure)
        index.build(small_dataset.trajectories)
        result = index.top_k(small_dataset.trajectories[0], 5)
        assert len(result) == 5
        assert index.memory_bytes() > 0

    def test_unbuilt_raises(self, small_grid):
        index = RPTrieLocalIndex(small_grid, get_measure("hausdorff"))
        with pytest.raises(IndexNotBuiltError):
            index.top_k(Trajectory([(0.0, 0.0)], traj_id=0), 1)
        with pytest.raises(IndexNotBuiltError):
            index.memory_bytes()


class TestDistributedGeneric:
    def test_custom_index_factory(self, small_dataset):
        engine = DistributedTopK(
            small_dataset,
            index_factory=lambda: LinearScanIndex("hausdorff"),
            strategy="random", num_partitions=3)
        engine.build()
        outcome = engine.top_k(small_dataset.trajectories[0], 3)
        assert len(outcome.result) == 3

    def test_custom_strategy_callable(self, small_dataset):
        def halves(dataset, num_partitions):
            mid = len(dataset.trajectories) // 2
            return [dataset.trajectories[:mid], dataset.trajectories[mid:]]

        engine = DistributedTopK(
            small_dataset,
            index_factory=lambda: LinearScanIndex("hausdorff"),
            strategy=halves, num_partitions=2)
        engine.build()
        assert engine.build_report.partition_sizes == [30, 30]


class TestDriverSidePivotDistances:
    """The driver computes dqp once per query; no partition repeats it."""

    @pytest.fixture
    def engine(self, small_dataset):
        return Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                            num_partitions=4, num_pivots=3, plan="waves")

    def test_batch_scheduled_forwards_dqp(self, engine, small_dataset):
        query = small_dataset.trajectories[5]
        single = engine.top_k(query, 5)
        batch = engine.top_k_batch([query], 5)
        assert batch.results[0].items == single.result.items
        # Without forwarding, every partition would recompute the
        # query-pivot distances (num_pivots per partition).
        assert (batch.results[0].stats.distance_computations
                == single.result.stats.distance_computations)

    def test_range_query_forwards_dqp(self, engine, small_dataset):
        query = small_dataset.trajectories[5]
        radius = engine.top_k(query, 5).result.kth_distance()
        outcome = engine.range_query(query, radius)
        # Re-running the same range search partition-locally (no dqp)
        # pays num_pivots extra distance computations per partition.
        from repro.cluster.driver import merge_top_k
        locals_ = [idx.range_query(query, radius)
                   for idx in engine.local_indexes()]
        recomputed = sum(r.stats.distance_computations for r in locals_)
        pivot_overhead = 3 * engine.num_partitions
        assert (outcome.result.stats.distance_computations
                == recomputed - pivot_overhead)
        merged = sorted(it for r in locals_ for it in r.items)
        assert outcome.result.items == merged

    def test_explicit_dqp_still_wins(self, engine, small_dataset):
        query = small_dataset.trajectories[1]
        dqp = np.array([engine.measure.distance(query, p)
                        for p in engine.pivots])
        explicit = engine.top_k(query, 5, dqp=dqp)
        implicit = engine.top_k(query, 5)
        assert explicit.result.items == implicit.result.items
        assert (explicit.result.stats.distance_computations
                == implicit.result.stats.distance_computations)
