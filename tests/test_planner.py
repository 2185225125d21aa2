"""The two-phase query planner and cross-partition threshold propagation.

The load-bearing property: a waved plan — probe, promise-ordered
dispatch, running-merge threshold broadcasts, probe-bound partition
skips — must return **bit-identical** results to the single-shot
map-then-merge plan for every measure, because threshold seeding is
strictly work-pruning.  Alongside that property test live unit tests
for the pieces: the incremental driver merge (tie-breaking, stats
summation, fold associativity), the probe's soundness, the
threshold-seeded heap and ``local_search(dk=...)``, wave dispatch and
barrier-aware makespan simulation, the engine's one-shot calibration,
and the ``dk``-driven adaptive band screen.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.cluster.driver import (
    RunningTopK,
    merge_range,
    merge_stats,
    merge_top_k,
)
from repro.cluster.batch import BatchQueryPlanner
from repro.cluster.engine import (ExecutionEngine, FaultPolicy, WorkloadHints,
                                  choose_backend)
from repro.cluster.planner import QueryPlanner
from repro.cluster.rdd import ClusterContext
from repro.cluster.scheduler import (
    ClusterSpec,
    TaskTiming,
    simulate_schedule,
    simulate_schedule_waves,
)
from repro.core.grid import Grid
from repro.core.rptrie import RPTrie
from repro.core.search import (
    ResultHeap,
    SearchStats,
    TopKResult,
    local_search,
    probe_search,
)
from repro.core.store import TrajectoryStore
from repro.distances.base import get_measure
from repro.distances.batch import BatchRefiner, refine_top_k
from repro.distances.threshold import distance_with_threshold
from repro.repose import Repose, make_baseline
from repro.types import BoundingBox, Trajectory, TrajectoryDataset

from oracle import assert_same_up_to_ties, linear_scan

MEASURES = ["hausdorff", "frechet", "dtw", "erp", "edr", "lcss"]
SPAN = 10.0


def _clustered_trajectories(count: int, seed: int) -> list[Trajectory]:
    """Skewed data: most trajectories huddle in one hot corner, the
    rest spread out — so partitions differ sharply in promise."""
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(count):
        n = int(rng.integers(3, 18))
        if i % 4 == 0:
            start = rng.uniform(0.05 * SPAN, 0.95 * SPAN, 2)
        else:
            start = rng.uniform(0.05 * SPAN, 0.25 * SPAN, 2)
        steps = rng.normal(0, 0.02 * SPAN, (n - 1, 2))
        points = np.vstack([start, start + np.cumsum(steps, axis=0)])
        np.clip(points, 0.001, SPAN - 0.001, out=points)
        trajectories.append(Trajectory(points, traj_id=i))
    return trajectories


@pytest.fixture(scope="module")
def skewed_dataset() -> TrajectoryDataset:
    return TrajectoryDataset(
        name="skewed", trajectories=_clustered_trajectories(90, seed=5))


def _build(dataset, measure, **kwargs):
    # The distributed emulation: what this file's claims are about.
    kwargs.setdefault("plan", "waves")
    kwargs.setdefault("delta", 0.4)
    kwargs.setdefault("num_partitions", 12)
    kwargs.setdefault("plan_options", {"wave_size": 3})
    return Repose.build(dataset, measure=measure, **kwargs)


class TestWavedBitIdentity:
    @pytest.mark.parametrize("name", MEASURES)
    def test_waved_equals_single_shot(self, skewed_dataset, name):
        """The acceptance property: plan="waves" is bit-identical to
        plan="single" — same items, same distances, same tie-breaks —
        for every measure and several queries/k."""
        engine = _build(skewed_dataset, name)
        for qi, k in ((0, 1), (1, 7), (17, 25)):
            query = skewed_dataset.trajectories[qi]
            waved = engine.top_k(query, k, plan="waves")
            single = engine.top_k(query, k, plan="single")
            assert waved.result.items == single.result.items

    @pytest.mark.parametrize("name", ["hausdorff", "dtw"])
    def test_waved_range_equals_single_shot(self, skewed_dataset, name):
        engine = _build(skewed_dataset, name)
        query = skewed_dataset.trajectories[2]
        radius = engine.top_k(query, 8, plan="single").result.items[-1][0]
        waved = engine.range_query(query, radius, plan="waves")
        single = engine.range_query(query, radius, plan="single")
        assert waved.result.items == single.result.items

    def test_waved_never_refines_more(self, skewed_dataset):
        """Propagation may only remove work: the waved plan's exact
        refinement and candidate counts never exceed single-shot."""
        engine = _build(skewed_dataset, "dtw")
        query = skewed_dataset.trajectories[3]
        waved = engine.top_k(query, 10, plan="waves").result.stats
        single = engine.top_k(query, 10, plan="single").result.stats
        assert waved.exact_refinements <= single.exact_refinements
        assert waved.distance_computations <= single.distance_computations

    def test_ties_at_global_kth_survive_broadcast(self):
        """Duplicate trajectories land in different partitions; the
        broadcast threshold must not drop the smaller-tid twin that the
        single-shot merge would keep at the k-th boundary."""
        base = _clustered_trajectories(40, seed=9)
        twin_points = [(1.0, 1.0), (1.5, 1.2), (2.0, 1.1)]
        trajs = base + [Trajectory(twin_points, traj_id=200 + i)
                        for i in range(6)]
        dataset = TrajectoryDataset(name="twins", trajectories=trajs)
        engine = _build(dataset, "hausdorff", strategy="random",
                        num_partitions=8, plan_options={"wave_size": 2})
        query = Trajectory(twin_points, traj_id=999)
        for k in (2, 4, 6):
            waved = engine.top_k(query, k, plan="waves")
            single = engine.top_k(query, k, plan="single")
            assert waved.result.items == single.result.items

    def test_baseline_indexes_run_under_waves(self, skewed_dataset):
        """Indexes without probe/threshold capabilities still execute
        correctly under the default waved plan."""
        engine = make_baseline("ls", skewed_dataset, "hausdorff",
                               num_partitions=6)
        engine.build()
        query = skewed_dataset.trajectories[0]
        waved = engine.top_k(query, 5, plan="waves")
        single = engine.top_k(query, 5, plan="single")
        assert waved.result.items == single.result.items

    def test_unknown_plan_rejected(self, skewed_dataset):
        engine = _build(skewed_dataset, "hausdorff")
        with pytest.raises(ValueError):
            engine.top_k(skewed_dataset.trajectories[0], 3, plan="spiral")
        with pytest.raises(ValueError):
            Repose.build(skewed_dataset, measure="hausdorff", delta=0.4,
                         num_partitions=2, plan="spiral")


class _FailsFirst:
    """Local-index stand-in whose first ``failures`` searches raise."""

    def __init__(self, index, failures=1):
        self._index = index
        self.supports_threshold = index.supports_threshold
        self.probe = index.probe
        self._left = failures
        self._lock = threading.Lock()

    def _search(self, name, *args, **kwargs):
        with self._lock:
            failing = self._left > 0
            self._left -= failing
        if failing:
            raise RuntimeError("transient partition failure")
        return getattr(self._index, name)(*args, **kwargs)

    def top_k_multi(self, *args, **kwargs):
        return self._search("top_k_multi", *args, **kwargs)

    def range_query(self, *args, **kwargs):
        return self._search("range_query", *args, **kwargs)


#: fault name -> engine policy under which one failing search is
#: recovered by an engine-level retry / by a planner re-dispatch wave.
_FAULTS = {
    None: None,
    "engine-retry": FaultPolicy(max_retries=1, backoff_seconds=0.001),
    "planner-redispatch": FaultPolicy(max_retries=0),
}


class TestSingleIsBatchOfOne:
    @pytest.mark.parametrize("fault", list(_FAULTS))
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("name", MEASURES)
    def test_top_k_equals_width_one_batch(self, skewed_dataset, name,
                                          backend, fault):
        """``top_k(q, k)`` is ``top_k_batch([q], k)`` sliced at 0: same
        items, same stats, same plan report field for field (bar the
        wall-clock probe time).  Two identically built engines, so
        neither run sees the other's probe cache."""
        outcomes = []
        for run in ("top_k", "batch"):
            engine = _build(skewed_dataset, name, engine=backend,
                            fault_policy=_FAULTS[fault])
            query = skewed_dataset.trajectories[7]
            if fault is not None:
                # The most promising partition: always dispatched.
                pid = engine.top_k(query, 6).plan.order[0]
                engine.context.probe_cache.bump_epoch()
                engine._parts[pid].index = _FailsFirst(
                    engine._parts[pid].index)
            outcomes.append(
                engine.top_k(query, 6) if run == "top_k"
                else engine.top_k_batch([query], 6).query_outcome(0))
        single, sliced = outcomes
        assert single.result.items == sliced.result.items
        assert single.result.stats == sliced.result.stats
        assert (dataclasses.replace(single.plan, probe_seconds=0.0)
                == dataclasses.replace(sliced.plan, probe_seconds=0.0))
        assert single.plan.mode == "waves"
        assert single.complete and sliced.complete
        assert (single.failed_partitions, single.exact) == ([], True)
        dispatched = sum(len(w.partitions) for w in single.plan.waves)
        assert len(single.per_partition_seconds) == dispatched
        assert len(sliced.per_partition_seconds) == dispatched
        if fault == "engine-retry":
            assert single.plan.retries == single.result.stats.retries == 1
        if fault == "planner-redispatch":
            assert [w.failed for w in single.plan.waves].count([pid]) == 1
            assert single.plan.waves[-1].index == 4    # the retry wave

    @pytest.mark.parametrize("name", MEASURES)
    def test_one_trie_top_k_equals_width_one_batch(self, skewed_dataset,
                                                   name):
        """The same on the one-trie plan: items and stats."""
        outcomes = []
        for run in ("top_k", "batch"):
            engine = _build(skewed_dataset, name, plan="trie")
            query = skewed_dataset.trajectories[7]
            outcomes.append(
                engine.top_k(query, 6) if run == "top_k"
                else engine.top_k_batch([query], 6).query_outcome(0))
        single, sliced = outcomes
        assert single.result.items == sliced.result.items
        assert single.result.stats == sliced.result.stats
        assert single.plan == sliced.plan
        assert single.plan.mode == "trie" and not single.plan.waves
        assert single.result.stats.nodes_visited > 0

    def test_execute_top_k_is_the_width_one_call(self, skewed_dataset):
        """Planner level: ``execute_top_k`` returns query 0 of
        ``execute_batch([query])``."""
        engine = _build(skewed_dataset, "hausdorff")
        query = skewed_dataset.trajectories[3]

        def make_task(rp, queries, kwargs_list, shares):
            return lambda: rp.index.top_k_multi(queries, 4, kwargs_list)

        def planner():
            return BatchQueryPlanner(ExecutionEngine(), wave_size=3)

        result, _, plan = planner().execute_top_k(
            engine._parts, query, 4, {}, make_task)
        results, _, report = planner().execute_batch(
            engine._parts, [query], 4, [{}], make_task)
        assert result == results[0]
        assert (dataclasses.replace(plan, probe_seconds=0.0)
                == dataclasses.replace(report.per_query[0],
                                       probe_seconds=0.0))
        assert result.items == engine.top_k(query, 4,
                                            plan="single").result.items

    def test_waved_range_redispatches_and_skips(self, skewed_dataset):
        """Range queries ride the same wave builder and failure fold: a
        partition whose task failed is re-dispatched in a retry wave,
        one whose probe bound exceeds the radius is never searched, and
        the answer is the single-shot one."""
        engine = _build(skewed_dataset, "hausdorff",
                        fault_policy=FaultPolicy(max_retries=0))
        query = skewed_dataset.trajectories[2]
        radius = engine.top_k(query, 8, plan="single").result.items[-1][0]
        expected = engine.range_query(query, radius, plan="single")
        clean = engine.range_query(query, radius, plan="waves")
        assert clean.plan.partitions_skipped > 0
        pid = clean.plan.waves[0].partitions[0]
        engine._parts[pid].index = _FailsFirst(engine._parts[pid].index)
        waved = engine.range_query(query, radius, plan="waves")
        assert waved.result.items == expected.result.items
        assert waved.complete and waved.exact
        assert waved.plan.waves[0].failed == [pid]
        assert waved.plan.waves[-1].partitions == [pid]   # the retry wave
        assert len(waved.plan.waves) == len(clean.plan.waves) + 1
        skipped = [p for w in waved.plan.waves for p in w.skipped]
        assert skipped == [p for w in clean.plan.waves for p in w.skipped]
        assert all(w.dk_before == w.dk_after == radius
                   for w in waved.plan.waves)
        assert waved.result.stats.partitions_skipped == len(skipped)


class TestWaveStats:
    def test_plan_report_exposed(self, skewed_dataset):
        engine = _build(skewed_dataset, "hausdorff")
        query = skewed_dataset.trajectories[1]
        outcome = engine.top_k(query, 6, plan="waves")
        report = outcome.plan
        assert report is not None and report.mode == "waves"
        assert len(report.waves) == 4                # 12 partitions / 3
        assert sorted(report.order) == list(range(12))
        assert len(report.probe_bounds) == 12
        dispatched = [pid for w in report.waves for pid in w.partitions]
        skipped = [pid for w in report.waves for pid in w.skipped]
        assert sorted(dispatched + skipped) == list(range(12))
        # Per-wave pruned counts and thresholds are populated.
        assert all(w.dk_after <= w.dk_before for w in report.waves)
        stats = outcome.result.stats
        assert stats.waves == len(report.waves)
        assert stats.threshold_broadcasts == report.threshold_broadcasts
        assert stats.partitions_skipped == report.partitions_skipped

    def test_threshold_broadcasts_happen(self, skewed_dataset):
        engine = _build(skewed_dataset, "dtw")
        query = skewed_dataset.trajectories[4]
        outcome = engine.top_k(query, 5, plan="waves")
        # After wave 1 the heap holds 5 results, so every later wave
        # must have received a finite threshold.
        assert outcome.result.stats.threshold_broadcasts >= 1
        assert outcome.plan.waves[1].dk_before < float("inf")

    def test_single_shot_has_no_plan_report(self, skewed_dataset):
        engine = _build(skewed_dataset, "hausdorff")
        outcome = engine.top_k(skewed_dataset.trajectories[0], 3,
                               plan="single")
        assert outcome.plan is None
        assert outcome.result.stats.waves == 1

    def test_wave_size_floor_applies_without_options(self, skewed_dataset):
        engine = Repose.build(skewed_dataset, measure="hausdorff",
                              delta=0.4, num_partitions=4, plan="waves")
        outcome = engine.top_k(skewed_dataset.trajectories[0], 3)
        assert outcome.plan is not None
        assert len(outcome.plan.waves) == 1          # floor of 8 per wave


class TestDriverMerge:
    def _result(self, items, **stats):
        return TopKResult(items=items, stats=SearchStats(**stats))

    def test_merge_tie_breaks_by_tid(self):
        a = self._result([(1.0, 9), (2.0, 4)])
        b = self._result([(1.0, 2), (2.0, 14)])
        merged = merge_top_k([a, b], k=3)
        assert merged.items == [(1.0, 2), (1.0, 9), (2.0, 4)]

    def test_merge_stats_sums_every_field(self):
        a = SearchStats(nodes_visited=1, nodes_pruned=2, leaf_refinements=3,
                        distance_computations=4, exact_refinements=5,
                        waves=1, threshold_broadcasts=1,
                        partitions_skipped=2)
        b = SearchStats(nodes_visited=10, nodes_pruned=20,
                        leaf_refinements=30, distance_computations=40,
                        exact_refinements=50, waves=1,
                        threshold_broadcasts=2, partitions_skipped=3)
        merged = merge_stats([a, b])
        assert merged == SearchStats(11, 22, 33, 44, 55, 2, 3, 5)

    def test_merge_range_sums_stats(self):
        a = self._result([(0.5, 1)], nodes_visited=3, exact_refinements=2)
        b = self._result([(0.2, 7)], nodes_visited=4, exact_refinements=1)
        merged = merge_range([a, b])
        assert merged.items == [(0.2, 7), (0.5, 1)]
        assert merged.stats.nodes_visited == 7
        assert merged.stats.exact_refinements == 3

    def test_running_fold_matches_one_shot_merge(self):
        rng = np.random.default_rng(0)
        partials = [
            self._result(sorted((round(float(d), 3), int(t))
                                for d, t in zip(rng.uniform(0, 5, 6),
                                                rng.integers(0, 1000, 6))),
                         nodes_visited=i)
            for i in range(7)
        ]
        one_shot = merge_top_k(partials, k=9)
        for split in (1, 2, 3):
            running = RunningTopK(9)
            for lo in range(0, len(partials), split):
                running.fold(partials[lo:lo + split])
            assert running.result().items == one_shot.items
            assert running.result().stats == one_shot.stats

    def test_running_dk_only_finite_when_full(self):
        running = RunningTopK(3)
        assert running.dk == float("inf")
        running.fold([self._result([(1.0, 1), (2.0, 2)])])
        assert running.dk == float("inf")
        running.fold([self._result([(0.5, 3)])])
        assert running.dk == 2.0


class TestThresholdSeeding:
    def test_heap_threshold_is_strict(self):
        heap = ResultHeap(3, threshold=2.0)
        heap.offer(2.0, 1)      # == threshold: rejected
        heap.offer(1.0, 2)
        heap.offer(3.0, 3)
        assert heap.sorted_items() == [(1.0, 2)]
        assert heap.dk == 2.0   # unfilled heap still caps at threshold
        clone = heap.clone()
        assert clone.threshold == 2.0

    @pytest.mark.parametrize("name", MEASURES)
    def test_seeded_search_keeps_survivors_exact(self, skewed_dataset, name):
        """Every item a dk-seeded search returns must appear, with the
        same distance, in the unseeded result (seeding only drops
        candidates provably outside the global top-k)."""
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        trajs = skewed_dataset.trajectories[:40]
        trie = RPTrie(grid, name).build(trajs)
        query = trajs[6]
        plain = local_search(trie, query, 8)
        dk = plain.items[3][0]
        seeded = local_search(trie, query, 8, dk=dk)
        plain_map = dict((tid, d) for d, tid in plain.items)
        for d, tid in seeded.items:
            assert d <= np.nextafter(dk, np.inf)
            assert plain_map[tid] == d
        # Ties at exactly dk survive the strict threshold.
        assert [it for it in plain.items if it[0] <= dk] == [
            it for it in seeded.items if it[0] <= dk]

    def test_seeded_search_prunes_more(self, skewed_dataset):
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        trajs = skewed_dataset.trajectories[:60]
        trie = RPTrie(grid, "dtw").build(trajs)
        query = trajs[0]
        plain = local_search(trie, query, 5)
        seeded = local_search(trie, query, 5, dk=plain.items[0][0])
        assert seeded.stats.exact_refinements <= plain.stats.exact_refinements
        assert seeded.stats.nodes_visited <= plain.stats.nodes_visited


class TestProbe:
    @pytest.mark.parametrize("name", MEASURES)
    def test_probe_bound_is_sound(self, skewed_dataset, name):
        """The probe bound never exceeds the true nearest distance in
        the partition — the property partition skipping relies on."""
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        measure = get_measure(name)
        trajs = skewed_dataset.trajectories[40:70]
        trie = RPTrie(grid, name).build(trajs)
        for query in (skewed_dataset.trajectories[0],
                      skewed_dataset.trajectories[25]):
            probe = probe_search(trie, query)
            nearest = min(measure.distance(query.points, t.points)
                          for t in trajs)
            assert probe.bound <= nearest + 1e-12
            assert probe.trajectories == len(trajs)
            assert probe.estimated_candidates(float("inf")) == len(
                probe.child_bounds)

    def test_probe_runs_no_refinement(self, skewed_dataset):
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        trie = RPTrie(grid, "hausdorff").build(
            skewed_dataset.trajectories[:30])
        probe = probe_search(trie, skewed_dataset.trajectories[0])
        assert probe.child_bounds == tuple(sorted(probe.child_bounds))

    def test_planner_orders_by_promise(self):
        class FakeIndex:
            def __init__(self, bound):
                self._bound = bound

            def probe(self, query, dqp=None):
                from repro.core.search import PartitionProbe
                return PartitionProbe(bound=self._bound, child_bounds=(),
                                      trajectories=1)

        class FakePart:
            def __init__(self, bound):
                self.index = FakeIndex(bound)

        planner = QueryPlanner(ExecutionEngine(), wave_size=2)
        parts = [FakePart(b) for b in (3.0, 0.5, 2.0, 0.5)]
        probes = planner.probe(parts, query=None, kwargs={})
        order = planner.plan_order(probes)
        assert order == [1, 3, 2, 0]
        assert planner.plan_waves(order) == [[1, 3], [2, 0]]


class TestEngineWaves:
    def test_run_waves_is_lazy_and_ordered(self):
        engine = ExecutionEngine()
        seen = []

        def waves():
            yield [lambda: "a0", lambda: "a1"]
            # Built only after wave 0's callback ran.
            assert seen == [0]
            yield [lambda: "b0"]

        def on_wave(index, outcomes, timings):
            seen.append(index)

        outcomes, wave_timings = engine.run_waves(waves(), on_wave=on_wave)
        assert [o.result for o in outcomes] == ["a0", "a1", "b0"]
        assert all(o.ok for o in outcomes)
        assert [len(w) for w in wave_timings] == [2, 1]
        assert seen == [0, 1]

    def test_run_waves_rederives_num_tasks(self):
        engine = ExecutionEngine("auto")
        hints = WorkloadHints(measure="hausdorff", partition_points=10,
                              num_tasks=999)
        engine.run_waves([[lambda: 1]], hints=hints)
        # A single-task wave must resolve serial despite stale hints.
        assert engine.last_backend == "serial"

    def test_simulated_waves_chain_barriers(self):
        spec = ClusterSpec(num_workers=2, cores_per_worker=1)
        w1 = [TaskTiming(0, 1.0), TaskTiming(1, 0.2)]
        w2 = [TaskTiming(0, 0.5)]
        waved = simulate_schedule_waves([w1, w2], spec)
        flat = simulate_schedule(w1 + w2, spec)
        assert waved.makespan == pytest.approx(1.5)   # barrier after w1
        assert flat.makespan == pytest.approx(1.0)    # no barrier
        assert waved.total_work == pytest.approx(flat.total_work)

    def test_context_records_wave_timings(self):
        ctx = ClusterContext()
        ctx.record_timings([[TaskTiming(0, 0.1)], [TaskTiming(0, 0.2)]])
        assert len(ctx.last_wave_timings) == 2
        assert [t.seconds for t in ctx.last_timings] == [0.1, 0.2]
        rdd = ctx.parallelize(range(4), num_partitions=2)
        rdd.collect()
        assert len(ctx.last_wave_timings) == 1


class TestCalibration:
    def test_calibrated_rate_overrides_cost_table(self):
        engine = ExecutionEngine("auto")
        hints = WorkloadHints(measure="hausdorff", partition_points=2000,
                              num_tasks=8, queries_per_task=4)
        assert choose_backend(hints) == "thread"
        # A measured rate of ~0 pushes the same workload under the
        # serial cutoff.
        rate = engine.calibrate("hausdorff", lambda: None, 10_000_000)
        assert rate >= 0.0
        assert choose_backend(hints, cost_us=engine.calibrated_cost_us) \
            == "serial"
        engine.run([lambda: 1, lambda: 2], hints=hints)
        assert engine.last_backend == "serial"

    def test_replacement_engine_reseeded_from_context(self):
        ctx = ClusterContext()
        ctx.engine.calibrate("dtw", lambda: None, 100)
        ctx.calibration = dict(ctx.engine.calibrated_cost_us)
        fresh = ExecutionEngine("auto")
        ctx.engine = fresh
        assert "dtw" in fresh.calibrated_cost_us
        # An engine's own measured rate wins over the stored one.
        own = ExecutionEngine("auto")
        own.calibrate("dtw", lambda: sum(range(50_000)), 1)
        rate = own.calibrated_cost_us["dtw"]
        ctx.engine = own
        assert own.calibrated_cost_us["dtw"] == rate

    def test_distributed_calibrate_persists_on_context(self, skewed_dataset):
        engine = _build(skewed_dataset, "dtw", num_partitions=4)
        rate = engine.calibrate(k=3)
        assert rate > 0.0
        # Compiled DP kernel backends key their measured rate by
        # measure+backend so per-backend rates never mix; the numpy
        # fallback keeps the plain measure key.
        kern = engine.kernels_hint
        key = "dtw" if kern in (None, "numpy") else f"dtw+{kern}"
        assert engine.context.calibration[key] == pytest.approx(rate)
        assert engine.context.engine.calibrated_cost_us[key] == \
            pytest.approx(rate)
        # Calibration must not disturb query results.
        query = skewed_dataset.trajectories[0]
        assert engine.top_k(query, 4).result.items == \
            engine.top_k(query, 4, plan="single").result.items


    def test_one_trie_calibrate_builds_no_partitions(self, skewed_dataset):
        """On a default engine calibration times the one trie: no
        partition trie is built and the index footprint stays put."""
        engine = Repose.build(skewed_dataset, measure="dtw", delta=0.4,
                              num_partitions=4)
        built = engine.index_bytes()
        assert engine.calibrate(k=3) > 0.0
        assert engine._parts is None
        assert engine.index_bytes() == built
        query = skewed_dataset.trajectories[0]
        scan = linear_scan(get_measure("dtw"), query,
                           skewed_dataset.trajectories)
        assert_same_up_to_ties(engine.top_k(query, 4).result.items,
                               scan[:4], scan)


class TestAdaptiveBand:
    @pytest.mark.parametrize("name", ["dtw", "frechet"])
    def test_uppers_stay_upper_bounds_under_finite_dk(self, skewed_dataset,
                                                      name):
        measure = get_measure(name)
        trajs = skewed_dataset.trajectories[:64]
        store = TrajectoryStore(trajs)
        tids = [t.traj_id for t in trajs]
        query = trajs[10].points
        exact = np.array([measure.distance(query, store.points_of(t))
                          for t in tids])
        for dk in (np.inf, float(np.median(exact)), float(exact.min())):
            refiner = BatchRefiner(measure, query, store, tids, dk=dk)
            uppers = refiner.uppers
            assert uppers is not None
            finite = np.isfinite(uppers)
            assert np.all(uppers[finite] >= exact[finite] - 1e-12)
            if refiner.exact_mask is not None:
                known = refiner.exact_mask
                assert np.all(uppers[known] == exact[known])

    @pytest.mark.parametrize("name", ["dtw", "frechet"])
    def test_refinement_bit_identical_with_adaptive_band(self, skewed_dataset,
                                                         name):
        """The dk that drives the band comes from a warm heap; results
        must still match the sequential thresholded loop exactly."""
        measure = get_measure(name)
        trajs = skewed_dataset.trajectories
        store = TrajectoryStore(trajs)
        tids = [t.traj_id for t in trajs]
        query = trajs[1].points
        warm = ResultHeap(6)
        for tid in tids[:20]:
            warm.offer(measure.distance(query, store.points_of(tid)), tid)

        batch_heap = warm.clone()
        refine_top_k(measure, query, tids, store, batch_heap)
        seq_heap = warm.clone()
        for tid in tids:
            dist = distance_with_threshold(measure, query,
                                           store.points_of(tid), seq_heap.dk)
            seq_heap.offer(dist, tid)
        assert batch_heap.sorted_items() == seq_heap.sorted_items()
