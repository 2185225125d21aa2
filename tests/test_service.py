"""Tests for the always-on serving layer (repro.cluster.service).

Every timing-sensitive scenario runs on the deterministic
virtual-clock event loop (:mod:`repro.testing.clock`) with
``dispatch="inline"``: virtual time advances only when the loop would
block on a timer, so micro-batch window cuts — *which batch each
request lands in* — are exact and identical on every machine.  The
suite covers:

* micro-batch cut determinism (max_batch, max_wait window, straggler
  admission) and FIFO fairness across batches;
* barrier semantics: ``insert()`` never overlaps a batch, rolls the
  index epoch, and purges the registry before the next cut;
* lifecycle: drain stop serves everything admitted, non-drain stop
  fails pending requests, post-stop submissions are rejected;
* :class:`~repro.cluster.service.HotQueryRegistry` unit behaviour
  (fingerprints, TTL/LRU eviction, epoch staleness);
* warm recurring queries on tie-heavy data staying bit-identical to
  ``plan="single"`` (the strict ``nextafter`` cutoff contract);
* the micro-batch and warm-recurrence checks on both served paths: the
  default one-trie plan and ``plan="waves"``;
* the persistent shared-gather store: staggered share-group members
  must not re-gather leaves their representative already gathered.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.cluster.batch import BatchQueryPlanner
from repro.cluster.rdd import ProbeCache
from repro.cluster.service import HotQueryRegistry, ReposeService
from repro.exceptions import ServiceClosedError
from repro.repose import Repose
from repro.testing import run_virtual
from repro.types import Trajectory, TrajectoryDataset

SPAN = 8.0


def _trajectories(count: int, seed: int = 7,
                  duplicate_every: int = 0) -> list[Trajectory]:
    """Random walks; with ``duplicate_every`` = d, trajectory i >= d
    reuses the points of trajectory i - d (exact distance ties)."""
    rng = np.random.default_rng(seed)
    out: list[Trajectory] = []
    for i in range(count):
        if duplicate_every and i >= duplicate_every:
            out.append(Trajectory(out[i - duplicate_every].points.copy(),
                                  traj_id=i))
            continue
        n = int(rng.integers(4, 14))
        start = rng.uniform(0.1 * SPAN, 0.9 * SPAN, 2)
        steps = rng.normal(0.0, 0.04 * SPAN, (n - 1, 2))
        points = np.vstack([start, start + np.cumsum(steps, axis=0)])
        np.clip(points, 0.001, SPAN - 0.001, out=points)
        out.append(Trajectory(points, traj_id=i))
    return out


def _build_engine(count: int = 40, seed: int = 7, measure: str = "hausdorff",
                  duplicate_every: int = 0, **build_options):
    dataset = TrajectoryDataset(
        name="service-test",
        trajectories=_trajectories(count, seed=seed,
                                   duplicate_every=duplicate_every))
    return Repose.build(dataset, measure=measure, delta=0.5,
                        num_partitions=4, **build_options)


def _single(engine, query, k):
    return engine.top_k(query, k, plan="single").result.items


@pytest.fixture(scope="module")
def engine():
    """A shared read-only engine (no test here may insert into it)."""
    return _build_engine()


class TestMicroBatchCuts:
    def test_cut_at_max_batch_then_window(self, engine):
        queries = engine.dataset.trajectories[:5]

        async def scenario():
            async with engine.serve(max_wait_ms=5.0, max_batch=3,
                                    dispatch="inline") as service:
                first = [await service.submit(q, 4) for q in queries[:3]]
                head = await asyncio.gather(*first)
                rest = [await service.submit(q, 4) for q in queries[3:]]
                tail = await asyncio.gather(*rest)
                return service, head + tail

        service, outcomes = run_virtual(scenario())
        # Three back-to-back submissions fill max_batch and cut
        # immediately; the remaining two cut at window expiry.
        assert service.stats.batch_sizes == [3, 2]
        for query, outcome in zip(queries, outcomes):
            assert outcome.result.items == _single(engine, query, 4)
            assert outcome.complete and outcome.exact

    def test_window_admits_stragglers_deterministically(self, engine):
        queries = engine.dataset.trajectories[:3]

        async def scenario():
            async with engine.serve(max_wait_ms=5.0, max_batch=8,
                                    dispatch="inline") as service:
                f0 = await service.submit(queries[0], 3)
                await asyncio.sleep(0.002)  # virtual ms: inside window
                f1 = await service.submit(queries[1], 3)
                await asyncio.gather(f0, f1)
                f2 = await service.submit(queries[2], 3)
                await f2
                return service

        service = run_virtual(scenario())
        # The straggler lands in the first window; the late request
        # opens a second one.
        assert service.stats.batch_sizes == [2, 1]
        # Exact virtual-clock latencies: the window holds the first
        # request the full 5 ms, the straggler the remaining 3 ms.
        assert service.stats.latencies[0] == pytest.approx(0.005)
        assert service.stats.latencies[1] == pytest.approx(0.003)

    def test_backlog_batches_fifo(self, engine):
        queries = engine.dataset.trajectories[:10]
        completion_order: list[int] = []

        async def scenario():
            async with engine.serve(max_wait_ms=5.0, max_batch=4,
                                    dispatch="inline") as service:
                futures = []
                for i, q in enumerate(queries):
                    future = await service.submit(q, 3)
                    future.add_done_callback(
                        lambda _f, i=i: completion_order.append(i))
                    futures.append(future)
                return service, await asyncio.gather(*futures)

        service, outcomes = run_virtual(scenario())
        # A 10-deep backlog drains as full batches plus a remainder,
        # in strict admission order.
        assert service.stats.batch_sizes == [4, 4, 2]
        assert completion_order == list(range(10))
        for query, outcome in zip(queries, outcomes):
            assert outcome.result.items == _single(engine, query, 3)

    def test_mixed_k_requests_grouped_not_crossed(self, engine):
        queries = engine.dataset.trajectories[:4]
        ks = [2, 5, 2, 5]

        async def scenario():
            async with engine.serve(max_wait_ms=5.0, max_batch=4,
                                    dispatch="inline") as service:
                futures = [await service.submit(q, k)
                           for q, k in zip(queries, ks)]
                return service, await asyncio.gather(*futures)

        service, outcomes = run_virtual(scenario())
        assert service.stats.batches == 1  # one cut, two k-groups
        for query, k, outcome in zip(queries, ks, outcomes):
            assert len(outcome.result.items) == k
            assert outcome.result.items == _single(engine, query, k)


class TestMicroBatchCutsWaves(TestMicroBatchCuts):
    """The same cuts and answers through the waved served path."""

    @pytest.fixture(scope="class")
    def engine(self):
        return _build_engine(plan="waves")


class TestBarriersAndLifecycle:
    def test_insert_is_a_barrier_and_rolls_the_epoch(self):
        engine = _build_engine(seed=11)
        query = engine.dataset.trajectories[5]
        k = 5
        pre = _single(engine, query, k)
        # A near-copy of the query: certain to enter its top-k.
        newcomer = Trajectory(query.points + 1e-6, traj_id=5000)
        epoch_before = engine.context.probe_cache.epoch

        async def scenario():
            service = engine.serve(max_wait_ms=2.0, max_batch=8,
                                   dispatch="inline")
            async with service:
                fa = await service.submit(query, k)
                loop = asyncio.get_running_loop()
                ins = loop.create_task(service.insert(newcomer))
                await asyncio.sleep(0)  # let insert() enqueue its barrier
                fb = await service.submit(query, k)
                a = await fa
                b = await fb
                await ins
                return service, a, b

        service, a, b = run_virtual(scenario())
        # The barrier cut the window: one single-request batch each
        # side of the write, never a batch spanning it.
        assert service.stats.batch_sizes == [1, 1]
        assert service.stats.inserts == 1
        assert a.result.items == pre
        assert 5000 not in [tid for _, tid in a.result.items]
        # The second request ran against the post-insert index and a
        # purged registry: it must see the newcomer.
        assert 5000 in [tid for _, tid in b.result.items]
        assert b.result.items == _single(engine, query, k)
        assert engine.context.probe_cache.epoch == epoch_before + 1
        counters = service.registry.counters()
        assert counters["epoch"] == engine.context.probe_cache.epoch
        assert counters["invalidations"] >= 1

    def test_drain_stop_serves_every_admitted_request(self, engine):
        queries = engine.dataset.trajectories[:5]

        async def scenario():
            service = engine.serve(max_wait_ms=5.0, max_batch=2,
                                   dispatch="inline")
            futures = [await service.submit(q, 3) for q in queries]
            await service.stop(drain=True)
            return service, await asyncio.gather(*futures)

        service, outcomes = run_virtual(scenario())
        assert not service.running
        assert sum(service.stats.batch_sizes) == 5
        assert service.stats.drained == 5
        for query, outcome in zip(queries, outcomes):
            assert outcome.result.items == _single(engine, query, 3)

    def test_nondrain_stop_fails_pending(self, engine):
        queries = engine.dataset.trajectories[:3]

        async def scenario():
            service = engine.serve(max_wait_ms=5.0, max_batch=8,
                                   dispatch="inline")
            futures = [await service.submit(q, 3) for q in queries]
            await service.stop(drain=False)
            failures = []
            for future in futures:
                with pytest.raises(ServiceClosedError):
                    await future
                failures.append(True)
            return service, failures

        service, failures = run_virtual(scenario())
        assert failures == [True, True, True]
        assert service.stats.batches == 0

    def test_submit_and_start_after_stop_are_rejected(self, engine):
        query = engine.dataset.trajectories[0]

        async def scenario():
            service = engine.serve(dispatch="inline")
            async with service:
                assert service.running
                await service.top_k(query, 3)
            assert not service.running
            await service.stop()  # idempotent
            with pytest.raises(ServiceClosedError):
                await service.submit(query, 3)
            with pytest.raises(ServiceClosedError):
                await service.insert(query)
            with pytest.raises(ServiceClosedError):
                await service.start()
            return service

        service = run_virtual(scenario())
        assert service.stats.rejected == 2

    def test_group_failure_is_isolated(self, monkeypatch):
        engine = _build_engine(seed=13)
        good, bad = engine.dataset.trajectories[:2]
        real_top_k_batch = engine.top_k_batch

        def poisoned(queries, k, **kwargs):
            if k == 7:
                raise RuntimeError("injected group failure")
            return real_top_k_batch(queries, k, **kwargs)

        monkeypatch.setattr(engine, "top_k_batch", poisoned)

        async def scenario():
            async with engine.serve(max_wait_ms=5.0, max_batch=4,
                                    dispatch="inline") as service:
                ok = await service.submit(good, 3)
                boom = await service.submit(bad, 7)
                outcome = await ok
                with pytest.raises(RuntimeError, match="injected"):
                    await boom
                # The service survives the group failure.
                later = await service.top_k(good, 3)
                return service, outcome, later

        service, outcome, later = run_virtual(scenario())
        assert outcome.result.items == _single(engine, good, 3)
        assert later.result.items == outcome.result.items
        assert service.stats.batches == 2


class _StepClock:
    """A manually advanced clock for deterministic TTL tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _query(seed: int = 0) -> Trajectory:
    rng = np.random.default_rng(seed)
    return Trajectory(rng.uniform(0.1, 7.9, (5, 2)), traj_id=10_000 + seed)


def _items(n: int = 5) -> list:
    return [(float(i), 100 + i) for i in range(1, n + 1)]


class TestHotQueryRegistry:
    def test_fingerprint_distinguishes_dqp(self):
        query = _query(1)
        bare = ProbeCache.fingerprint(query)
        with_dqp = ProbeCache.fingerprint(query, np.array([1.0, 2.0]))
        other_dqp = ProbeCache.fingerprint(query, np.array([1.0, 2.5]))
        assert len({bare, with_dqp, other_dqp}) == 3

    def test_planner_fingerprint_rejects_unknown_kwargs(self):
        query = _query(2)
        assert BatchQueryPlanner._registry_fingerprint(
            query, {"dqp": np.array([1.0])}) is not None
        assert BatchQueryPlanner._registry_fingerprint(query, {}) is not None
        # Any kwarg the registry does not understand disables reuse:
        # the stored threshold would not be certified for that search.
        assert BatchQueryPlanner._registry_fingerprint(
            query, {"dqp": None, "mystery": 1}) is None

    def test_ttl_boundary(self):
        clock = _StepClock()
        registry = HotQueryRegistry(capacity=8, ttl_seconds=10.0,
                                    clock=clock)
        registry.put(b"fp", _query(3), _items())
        clock.now = 10.0  # exactly at the TTL: still valid
        assert registry.get(b"fp", 5) is not None
        clock.now = 10.000001  # past it: expired and dropped on sight
        assert registry.get(b"fp", 5) is None
        assert len(registry) == 0

    def test_lru_eviction_respects_get_refresh(self):
        registry = HotQueryRegistry(capacity=2)
        registry.put(b"a", _query(4), _items())
        registry.put(b"b", _query(5), _items())
        assert registry.get(b"a", 5) is not None  # refresh a
        registry.put(b"c", _query(6), _items())  # evicts b, not a
        assert registry.evictions == 1
        assert registry.get(b"a", 5) is not None
        assert registry.get(b"b", 5) is None
        assert registry.get(b"c", 5) is not None

    def test_epoch_roll_purges_and_stale_put_is_dropped(self):
        cache = ProbeCache()
        registry = HotQueryRegistry(probe_cache=cache, capacity=8)
        registry.put(b"fp", _query(7), _items())
        assert len(registry) == 1
        start_epoch = registry.epoch
        cache.bump_epoch()
        assert len(registry) == 0
        assert registry.invalidations == 1
        assert registry.epoch == cache.epoch
        # A batch that started before the write arrives late: dropped.
        registry.put(b"fp", _query(7), _items(), epoch=start_epoch)
        assert len(registry) == 0
        assert registry.get(b"fp", 5) is None

    def test_deeper_entry_is_kept_and_depth_gates_get(self):
        registry = HotQueryRegistry(capacity=8)
        registry.put(b"fp", _query(8), _items(6))
        registry.put(b"fp", _query(8), _items(3))  # shallower: ignored
        assert registry.stores == 1
        entry = registry.get(b"fp", 6)
        assert entry is not None and len(entry.items) == 6
        assert entry.threshold(6) == 6.0
        # An entry can only certify thresholds it is deep enough for.
        assert registry.get(b"fp", 7) is None


class TestWarmRecurrence:
    #: The engine's plan; None is the default (one trie).
    plan = None

    def test_recurring_query_on_ties_stays_bit_identical(self):
        # Every trajectory has an exact duplicate: distance ties at
        # every depth, so a seeded threshold that clipped ties at dk
        # (missing the strict nextafter cutoff) would drop items.
        engine = _build_engine(count=40, seed=17, duplicate_every=20,
                               plan=self.plan)
        queries = engine.dataset.trajectories[:3]

        async def scenario():
            async with engine.serve(max_wait_ms=2.0, max_batch=4,
                                    dispatch="inline") as service:
                runs = []
                for _ in range(3):  # cold, then twice registry-warm
                    futures = [await service.submit(q, k)
                               for q, k in zip(queries, (3, 4, 6))]
                    runs.append(await asyncio.gather(*futures))
                return service, runs

        service, runs = run_virtual(scenario())
        assert service.registry.hits >= len(queries)  # warm runs hit
        assert service.registry.counters()["stores"] >= len(queries)
        for run in runs:
            for query, k, outcome in zip(queries, (3, 4, 6), run):
                assert outcome.result.items == _single(engine, query, k), (
                    "served result diverged from plan='single' on "
                    "tie-heavy data")


class TestWarmRecurrenceWaves(TestWarmRecurrence):
    """Registry seeds on ties through the waved served path."""
    plan = "waves"


class TestSharedGatherPersistence:
    def test_staggered_members_do_not_regather(self):
        # Regression: with wave_size=1 a share-group member lands in a
        # later wave than its representative; the shared gather store
        # must persist across waves so the member adds no leaf
        # gathers of its own.
        def gathers(engine):
            return sum(idx.trie.store.gather_calls
                       for idx in engine.local_indexes())

        options = {"share_eps": float("inf"), "wave_size": 1}
        rep_engine = _build_engine(seed=23, measure="lcss")
        rep = rep_engine.dataset.trajectories[4]
        jitter = Trajectory(rep.points + 1e-7, traj_id=77001)

        alone = rep_engine.top_k_batch([rep], 5, plan="waves",
                                       plan_options=options)
        alone_gathers = gathers(rep_engine)

        full_engine = _build_engine(seed=23, measure="lcss")
        both = full_engine.top_k_batch([rep, jitter], 5, plan="waves",
                                       plan_options=options)
        both_gathers = gathers(full_engine)

        # The member rides the representative's gathers: adding it to
        # the batch must not add leaf gathers.
        assert both_gathers <= alone_gathers
        assert both.results[0].items == alone.results[0].items
        for qi, query in enumerate((rep, jitter)):
            assert (both.results[qi].items
                    == _single(full_engine, query, 5))


class TestVirtualClock:
    def test_sleep_advances_virtual_not_real_time(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            start = loop.time()
            await asyncio.sleep(30.0)
            return loop.time() - start

        began = time.perf_counter()
        elapsed_virtual = run_virtual(scenario())
        elapsed_real = time.perf_counter() - began
        assert elapsed_virtual == pytest.approx(30.0)
        assert elapsed_real < 5.0

    def test_timers_fire_in_deadline_order(self):
        fired: list[str] = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.call_later(0.3, fired.append, "late")
            loop.call_later(0.1, fired.append, "early")
            loop.call_later(0.2, fired.append, "middle")
            await asyncio.sleep(0.5)
            return loop.time()

        assert run_virtual(scenario()) == pytest.approx(0.5)
        assert fired == ["early", "middle", "late"]
