"""Tests for the mini-RDD engine, partitioners and simulated scheduler."""

import pytest

from repro.cluster.engine import (
    ExecutionEngine,
    TaskTiming,
    WorkloadHints,
    choose_backend,
    require_results,
)
from repro.cluster.driver import merge_top_k
from repro.cluster.partitioner import (
    HashPartitioner,
    ListPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from repro.cluster.rdd import ClusterContext, _chunk
from repro.cluster.scheduler import ClusterSpec, simulate_schedule
from repro.core.search import TopKResult
from repro.exceptions import PartitioningError


class TestChunk:
    def test_even_split(self):
        assert _chunk(list(range(8)), 4) == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_uneven_split_front_loaded(self):
        parts = _chunk(list(range(7)), 3)
        assert [len(p) for p in parts] == [3, 2, 2]

    def test_more_partitions_than_items(self):
        parts = _chunk([1, 2], 4)
        assert [len(p) for p in parts] == [1, 1, 0, 0]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            _chunk([1], 0)


class TestPartitioners:
    def test_round_robin_cycles(self):
        p = RoundRobinPartitioner(3)
        assert [p.partition(None) for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_hash_partitioner_in_range(self):
        p = HashPartitioner(4, key=lambda s: s)
        for word in ("alpha", "beta", "gamma"):
            assert 0 <= p.partition(word) < 4

    def test_list_partitioner(self):
        class Item:
            def __init__(self, tid):
                self.traj_id = tid
        p = ListPartitioner(2, assignment={1: 0, 2: 1})
        assert p.partition(Item(1)) == 0
        assert p.partition(Item(2)) == 1
        with pytest.raises(PartitioningError):
            p.partition(Item(3))

    def test_split_collects_partitions(self):
        p = RoundRobinPartitioner(2)
        assert p.split([1, 2, 3, 4]) == [[1, 3], [2, 4]]

    def test_invalid_partition_count(self):
        with pytest.raises(PartitioningError):
            RoundRobinPartitioner(0)

    def test_out_of_range_pid_detected(self):
        class Bad(Partitioner):
            def partition(self, element):
                return 99
        with pytest.raises(PartitioningError):
            Bad(2).split([1])


class TestRDD:
    def test_map_collect(self):
        ctx = ClusterContext()
        rdd = ctx.parallelize(range(10), num_partitions=3)
        assert rdd.map(lambda v: v * 2).collect() == [v * 2 for v in range(10)]

    def test_filter(self):
        ctx = ClusterContext()
        rdd = ctx.parallelize(range(10), num_partitions=3)
        assert rdd.filter(lambda v: v % 2 == 0).collect() == [0, 2, 4, 6, 8]

    def test_map_partitions_sees_whole_partition(self):
        ctx = ClusterContext()
        rdd = ctx.parallelize(range(9), num_partitions=3)
        sums = rdd.map_partitions(lambda part: [sum(part)]).collect()
        assert sums == [3, 12, 21]

    def test_flat_map(self):
        ctx = ClusterContext()
        rdd = ctx.parallelize([1, 2], num_partitions=2)
        assert rdd.flat_map(lambda v: [v, v]).collect() == [1, 1, 2, 2]

    def test_lazy_until_action(self):
        ctx = ClusterContext()
        calls = []
        rdd = ctx.parallelize(range(4), num_partitions=2).map(
            lambda v: calls.append(v) or v)
        assert calls == []
        rdd.collect()
        assert sorted(calls) == [0, 1, 2, 3]

    def test_chained_transformations(self):
        ctx = ClusterContext()
        rdd = (ctx.parallelize(range(20), num_partitions=4)
               .filter(lambda v: v % 2 == 0)
               .map(lambda v: v + 1))
        assert rdd.collect() == [v + 1 for v in range(20) if v % 2 == 0]

    def test_count_and_reduce(self):
        ctx = ClusterContext()
        rdd = ctx.parallelize(range(10), num_partitions=3)
        assert rdd.count() == 10
        assert rdd.reduce(lambda a, b: a + b) == 45

    def test_reduce_empty_raises(self):
        ctx = ClusterContext()
        with pytest.raises(ValueError):
            ctx.parallelize([], num_partitions=2).reduce(lambda a, b: a)

    def test_timings_recorded_per_partition(self):
        ctx = ClusterContext()
        rdd = ctx.parallelize(range(8), num_partitions=4)
        rdd.collect()
        assert len(ctx.last_timings) == 4
        assert all(t.seconds >= 0 for t in ctx.last_timings)

    def test_custom_partitioner(self):
        ctx = ClusterContext()
        rdd = ctx.parallelize(range(6), partitioner=RoundRobinPartitioner(2))
        assert rdd.collect_partitions() == [[0, 2, 4], [1, 3, 5]]

    def test_thread_backend_matches_serial(self):
        serial = ClusterContext(ExecutionEngine("serial"))
        threaded = ClusterContext(ExecutionEngine("thread", max_workers=4))
        data = list(range(100))
        fn = lambda part: [sum(part)]
        a = serial.parallelize(data, 8).map_partitions(fn).collect()
        b = threaded.parallelize(data, 8).map_partitions(fn).collect()
        assert a == b

    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ExecutionEngine("gpu")


class TestScheduler:
    def test_single_core_sums(self):
        timings = [TaskTiming(i, 1.0) for i in range(4)]
        report = simulate_schedule(timings, ClusterSpec(1, 1))
        assert report.makespan == pytest.approx(4.0)

    def test_enough_cores_takes_max(self):
        timings = [TaskTiming(0, 3.0), TaskTiming(1, 1.0), TaskTiming(2, 2.0)]
        report = simulate_schedule(timings, ClusterSpec(1, 4))
        assert report.makespan == pytest.approx(3.0)

    def test_two_waves(self):
        # 4 equal tasks on 2 cores: two waves.
        timings = [TaskTiming(i, 1.0) for i in range(4)]
        report = simulate_schedule(timings, ClusterSpec(1, 2))
        assert report.makespan == pytest.approx(2.0)

    def test_imbalance_detected(self):
        balanced = [TaskTiming(i, 1.0) for i in range(4)]
        skewed = [TaskTiming(0, 4.0)] + [TaskTiming(i, 0.1) for i in range(1, 4)]
        spec = ClusterSpec(2, 2)
        assert (simulate_schedule(skewed, spec).imbalance
                > simulate_schedule(balanced, spec).imbalance)

    def test_utilization_bounds(self):
        timings = [TaskTiming(i, float(i + 1)) for i in range(10)]
        report = simulate_schedule(timings, ClusterSpec(2, 2))
        assert 0.0 < report.utilization <= 1.0

    def test_empty_schedule(self):
        report = simulate_schedule([], ClusterSpec(1, 2))
        assert report.makespan == 0.0

    def test_paper_cluster_defaults(self):
        assert ClusterSpec().total_cores == 64


class TestMergeTopK:
    def test_merges_and_sorts(self):
        a = TopKResult(items=[(1.0, 10), (3.0, 11)])
        b = TopKResult(items=[(2.0, 20), (4.0, 21)])
        merged = merge_top_k([a, b], k=3)
        assert merged.items == [(1.0, 10), (2.0, 20), (3.0, 11)]

    def test_fewer_than_k(self):
        merged = merge_top_k([TopKResult(items=[(1.0, 1)])], k=5)
        assert len(merged) == 1

    def test_stats_summed(self):
        a = TopKResult(items=[])
        a.stats.nodes_visited = 3
        b = TopKResult(items=[])
        b.stats.nodes_visited = 4
        assert merge_top_k([a, b], k=1).stats.nodes_visited == 7


def _square(value):
    """Module-level so the process backend can pickle it."""
    return value * value


class _SquareTask:
    """Picklable zero-argument task for the process backend."""

    def __init__(self, value):
        self.value = value

    def __call__(self):
        return _square(self.value)


class TestProcessBackend:
    def test_backend_selection(self):
        assert ExecutionEngine("process").backend == "process"
        with pytest.raises(ValueError):
            ExecutionEngine("fork-bomb")

    def test_results_in_partition_order(self):
        engine = ExecutionEngine("process", max_workers=2)
        tasks = [_SquareTask(v) for v in range(6)]
        outcomes, timings = engine.run(tasks)
        assert require_results(outcomes) == [0, 1, 4, 9, 16, 25]
        assert [t.partition_id for t in timings] == list(range(6))
        assert all(t.seconds >= 0 for t in timings)

    def test_matches_serial_backend(self):
        tasks = [_SquareTask(v) for v in range(5)]
        serial, _ = ExecutionEngine("serial").run(tasks)
        procs, _ = ExecutionEngine("process", max_workers=2).run(tasks)
        assert require_results(procs) == require_results(serial)

    def test_empty_task_list(self):
        outcomes, timings = ExecutionEngine("process").run([])
        assert outcomes == [] and timings == []

class TestAutoBackend:
    def test_no_hints_stays_serial(self):
        assert choose_backend(None) == "serial"
        assert choose_backend(WorkloadHints(num_tasks=1)) == "serial"

    def test_tiny_work_stays_serial(self):
        hints = WorkloadHints(measure="hausdorff", partition_points=100,
                              num_tasks=4)
        assert choose_backend(hints) == "serial"

    def test_numpy_heavy_work_goes_to_threads(self):
        hints = WorkloadHints(measure="hausdorff", partition_points=10**6,
                              num_tasks=16)
        assert choose_backend(hints) == "thread"

    def test_gil_heavy_work_goes_to_processes(self):
        hints = WorkloadHints(measure="lcss", partition_points=10**6,
                              num_tasks=16, queries_per_task=8)
        assert choose_backend(hints) == "process"

    def test_warm_pool_lowers_the_process_bar(self):
        hints = WorkloadHints(measure="edr", partition_points=4_000,
                              num_tasks=16)
        assert choose_backend(hints, process_pool_warm=False) == "thread"
        assert choose_backend(hints, process_pool_warm=True) == "process"

    def test_auto_resolution_recorded(self):
        engine = ExecutionEngine("auto", max_workers=2)
        hints = WorkloadHints(measure="hausdorff", partition_points=10**6,
                              num_tasks=3)
        outcomes, timings = engine.run(
            [lambda: 1, lambda: 2, lambda: 3], hints=hints)
        assert require_results(outcomes) == [1, 2, 3]
        assert engine.last_backend == "thread"
        engine.close()

    def test_auto_falls_back_to_threads_on_unpicklable_tasks(self):
        engine = ExecutionEngine("auto", max_workers=2)
        hints = WorkloadHints(measure="lcss", partition_points=10**6,
                              num_tasks=2, queries_per_task=8)
        assert choose_backend(hints) == "process"
        outcomes, _ = engine.run([lambda: 1, lambda: 2], hints=hints)
        assert require_results(outcomes) == [1, 2]
        assert engine.last_backend == "thread"
        engine.close()

    def test_mixed_picklability_retries_only_failed_tasks(self):
        # Picklable tasks execute once in the process pool; only the
        # unpicklable one is retried on threads (no duplicated work).
        engine = ExecutionEngine("auto", max_workers=2)
        hints = WorkloadHints(measure="lcss", partition_points=10**6,
                              num_tasks=3, queries_per_task=8)
        tasks = [_SquareTask(3), lambda: 99, _SquareTask(5)]
        outcomes, timings = engine.run(tasks, hints=hints)
        assert require_results(outcomes) == [9, 99, 25]
        assert [t.partition_id for t in timings] == [0, 1, 2]
        assert engine.last_backend == "mixed"
        engine.close()

    def test_explicit_process_backend_still_raises(self):
        engine = ExecutionEngine("process", max_workers=2)
        import pickle
        with pytest.raises((pickle.PicklingError, AttributeError)):
            engine.run([lambda: 1])
        engine.close()

    def test_auto_never_changes_distributed_results(self):
        # The acceptance regression: backend auto-selection is a pure
        # placement decision; top-k and batch results must be
        # identical to the serial engine's.
        from repro.repose import Repose
        from repro.types import Trajectory, TrajectoryDataset
        import numpy as np

        rng = np.random.default_rng(5)
        dataset = TrajectoryDataset(name="auto", trajectories=[
            Trajectory(rng.uniform(0, 1, (int(rng.integers(4, 20)), 2)),
                       traj_id=i) for i in range(120)])
        queries = [dataset.trajectories[i] for i in (0, 17, 44)]
        for measure in ("hausdorff", "dtw"):
            # The partitioned plan: its tasks are what "auto" places.
            serial = Repose.build(dataset, measure=measure,
                                  num_partitions=6, plan="waves")
            auto = Repose.build(dataset, measure=measure,
                                num_partitions=6, engine="auto",
                                plan="waves")
            for query in queries:
                assert (auto.top_k(query, 7).result.items
                        == serial.top_k(query, 7).result.items)
            batch_auto = auto.top_k_batch(queries, 5)
            batch_serial = serial.top_k_batch(queries, 5)
            assert ([r.items for r in batch_auto.results]
                    == [r.items for r in batch_serial.results])
            radius = serial.top_k(queries[0], 5).result.kth_distance()
            assert (auto.range_query(queries[0], radius).result.items
                    == serial.range_query(queries[0], radius).result.items)
            auto.context.engine.close()


class TestPersistentPools:
    def test_thread_pool_reused_across_runs(self):
        engine = ExecutionEngine("thread", max_workers=2)
        engine.run([lambda: 1])
        pool = engine._thread_pool
        engine.run([lambda: 2])
        assert engine._thread_pool is pool
        engine.close()
        assert engine._thread_pool is None

    def test_process_pool_reused_across_runs(self):
        engine = ExecutionEngine("process", max_workers=2)
        tasks = [_SquareTask(v) for v in range(3)]
        engine.run(tasks)
        pool = engine._process_pool
        outcomes, _ = engine.run(tasks)
        assert engine._process_pool is pool
        assert require_results(outcomes) == [0, 1, 4]
        engine.close()

    def test_context_manager_closes(self):
        with ExecutionEngine("thread", max_workers=2) as engine:
            engine.run([lambda: 1])
            assert engine._thread_pool is not None
        assert engine._thread_pool is None


class TestProcessBackendDistributed:
    def test_distributed_engine_on_process_backend(self):
        # Top-k through the mini-RDD with real subprocess workers; the
        # LinearScanIndex partitions pickle cleanly.
        from repro.repose import make_baseline
        from repro.types import Trajectory, TrajectoryDataset
        import numpy as np

        rng = np.random.default_rng(0)
        dataset = TrajectoryDataset(name="p", trajectories=[
            Trajectory(rng.uniform(0, 1, (5, 2)), traj_id=i)
            for i in range(30)])
        serial = make_baseline("ls", dataset, "hausdorff", num_partitions=3,
                               engine=ExecutionEngine("serial"))
        procs = make_baseline("ls", dataset, "hausdorff", num_partitions=3,
                              engine=ExecutionEngine("process",
                                                     max_workers=2))
        serial.build()
        procs.build()
        query = dataset.trajectories[0]
        assert (procs.top_k(query, 5).result.items
                == serial.top_k(query, 5).result.items)

    def test_default_plan_searches_one_trie_on_every_backend(self):
        # The one trie is searched in the driver whatever the backend:
        # a default engine builds no partition trie and starts no pool.
        from repro.repose import Repose
        from repro.types import Trajectory, TrajectoryDataset
        import numpy as np

        rng = np.random.default_rng(1)
        dataset = TrajectoryDataset(name="p", trajectories=[
            Trajectory(rng.uniform(0, 1, (6, 2)), traj_id=i)
            for i in range(30)])
        queries = dataset.trajectories[:2]
        serial = Repose.build(dataset, measure="hausdorff", num_partitions=3)
        expected = [r.items for r in serial.top_k_batch(queries, 5).results]
        for backend in ("thread", "process", "auto"):
            engine = Repose.build(
                dataset, measure="hausdorff", num_partitions=3,
                engine=ExecutionEngine(backend, max_workers=2))
            assert engine.plan == "trie"
            batch = engine.top_k_batch(queries, 5)
            assert [r.items for r in batch.results] == expected
            assert engine._parts is None
            pools = engine.context.engine
            assert pools._thread_pool is None and pools._process_pool is None
            pools.close()
