"""Fault-tolerant execution: retries, timeouts, speculation, degradation.

Engine-level tests drive :class:`~repro.cluster.engine.ExecutionEngine`
under a :class:`~repro.cluster.engine.FaultPolicy` with deterministic
flaky tasks; planner-level tests break one partition's local index and
assert queries degrade to flagged partial results instead of raising.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.cluster.engine import (
    ExecutionEngine,
    FaultPolicy,
    TaskOutcome,
    WorkloadHints,
    require_results,
)
from repro.exceptions import (
    PartialResultError,
    ReproError,
    TaskFailedError,
)
from repro.repose import Repose
from repro.testing import FaultInjector, InjectedFault
from repro.types import Trajectory, TrajectoryDataset

FAST = FaultPolicy(max_retries=2, backoff_seconds=0.001,
                   jitter_fraction=0.0)


class _Flaky:
    """Fails the first ``failures`` calls, then returns ``value``."""

    def __init__(self, value, failures=1, exc=RuntimeError):
        self.value = value
        self.failures = failures
        self.exc = exc
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call <= self.failures:
            raise self.exc(f"flaky failure {call}")
        return self.value


class _SlowFirst:
    """Sleeps ``slow`` seconds on the first call only, then is fast."""

    def __init__(self, value, slow):
        self.value = value
        self.slow = slow
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            time.sleep(self.slow)
        return self.value


class _ExitUnlessPid:
    """Kills the worker process unless running in process ``safe_pid``.

    Picklable (module-level class, plain attributes), so it reaches
    real subprocess workers, where it ``os._exit``\\ s — but a retry on
    the driver's thread pool (same pid) returns normally.  That is
    exactly the engine's crash-retry contract.
    """

    def __init__(self, value, safe_pid):
        self.value = value
        self.safe_pid = safe_pid

    def __call__(self):
        if os.getpid() != self.safe_pid:
            os._exit(17)
        return self.value


class _Square:
    """Picklable square task."""

    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value * self.value


class TestFaultPolicy:
    def test_backoff_grows_and_is_deterministic(self):
        policy = FaultPolicy(backoff_seconds=0.1, backoff_multiplier=2.0,
                             jitter_fraction=0.25)
        first = policy.backoff_for(3, 1)
        second = policy.backoff_for(3, 2)
        assert first == policy.backoff_for(3, 1)  # deterministic
        assert 0.1 <= first <= 0.1 * 1.25
        assert 0.2 <= second <= 0.2 * 1.25
        # Different tasks de-synchronize via jitter.
        assert policy.backoff_for(3, 1) != policy.backoff_for(4, 1)

    def test_timeout_explicit_derived_and_absent(self):
        assert FaultPolicy(task_timeout=1.5).timeout_for(100.0) == 1.5
        derived = FaultPolicy(timeout_slack=4.0, min_timeout=0.5)
        assert derived.timeout_for(2.0) == 8.0
        assert derived.timeout_for(0.001) == 0.5  # floor
        assert derived.timeout_for(None) is None

    def test_speculation_threshold(self):
        off = FaultPolicy(speculate=False)
        assert off.speculation_after(1.0, 10.0) is None
        on = FaultPolicy(speculate=True, speculation_factor=3.0)
        assert on.speculation_after(2.0, None) == 6.0
        assert on.speculation_after(None, 10.0) == 5.0
        assert on.speculation_after(None, None) is None
        pinned = FaultPolicy(speculate=True, speculation_seconds=0.25)
        assert pinned.speculation_after(2.0, 10.0) == 0.25


class TestSupervisedRetries:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_transient_failures_are_retried(self, backend):
        engine = ExecutionEngine(backend, max_workers=2, fault_policy=FAST)
        tasks = [_Flaky(10, failures=0), _Flaky(20, failures=2),
                 _Flaky(30, failures=1)]
        outcomes, timings = engine.run(tasks)
        assert require_results(outcomes) == [10, 20, 30]
        assert [o.partition_id for o in outcomes] == [0, 1, 2]
        assert outcomes[0].retries == 0
        assert outcomes[1].retries == 2
        assert outcomes[2].retries == 1
        assert len(timings) == 3
        engine.close()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_exhausted_retries_degrade_not_raise(self, backend):
        engine = ExecutionEngine(backend, max_workers=2, fault_policy=FAST)
        tasks = [_Flaky(1, failures=0), _Flaky(2, failures=99)]
        outcomes, _ = engine.run(tasks)
        assert outcomes[0].ok and outcomes[0].result == 1
        assert not outcomes[1].ok
        assert outcomes[1].failure.kind == "error"
        assert "flaky failure" in outcomes[1].failure.message
        assert outcomes[1].attempts == FAST.max_retries + 1
        with pytest.raises(TaskFailedError, match="partition 1"):
            require_results(outcomes)
        engine.close()

    def test_timeout_abandons_then_retry_wins(self):
        policy = FaultPolicy(max_retries=2, backoff_seconds=0.001,
                             jitter_fraction=0.0, task_timeout=0.15)
        engine = ExecutionEngine("thread", max_workers=4,
                                 fault_policy=policy)
        outcomes, _ = engine.run([_SlowFirst("late", slow=1.0)])
        assert outcomes[0].ok and outcomes[0].result == "late"
        assert outcomes[0].timeouts >= 1
        assert outcomes[0].retries >= 1
        engine.close()

    def test_all_attempts_time_out(self):
        policy = FaultPolicy(max_retries=1, backoff_seconds=0.001,
                             jitter_fraction=0.0, task_timeout=0.05)
        engine = ExecutionEngine("thread", max_workers=4,
                                 fault_policy=policy)

        def stubborn():
            time.sleep(0.5)
            return "never on time"

        outcomes, _ = engine.run([stubborn])
        assert not outcomes[0].ok
        assert outcomes[0].failure.kind == "timeout"
        assert outcomes[0].timeouts == 2  # original + one retry
        engine.close()

    def test_straggler_late_success_is_accepted(self):
        # The timed-out original finishes before its retry does: its
        # result must be accepted (abandoned, not cancelled).
        policy = FaultPolicy(max_retries=5, backoff_seconds=5.0,
                             jitter_fraction=0.0, task_timeout=0.05)
        engine = ExecutionEngine("thread", max_workers=2,
                                 fault_policy=policy)
        start = time.perf_counter()
        outcomes, _ = engine.run([_SlowFirst("straggler", slow=0.3)])
        elapsed = time.perf_counter() - start
        assert outcomes[0].ok and outcomes[0].result == "straggler"
        assert outcomes[0].timeouts >= 1
        # Well before the 5 s retry backoff would have fired.
        assert elapsed < 3.0
        engine.close()

    def test_speculative_duplicate_wins(self):
        policy = FaultPolicy(max_retries=2, backoff_seconds=0.001,
                             speculate=True, speculation_seconds=0.05)
        engine = ExecutionEngine("thread", max_workers=4,
                                 fault_policy=policy)
        outcomes, _ = engine.run([_SlowFirst("spec", slow=0.5)])
        assert outcomes[0].ok and outcomes[0].result == "spec"
        assert outcomes[0].speculative == 1
        assert outcomes[0].speculative_win
        # Speculation does not consume the retry budget.
        assert outcomes[0].retries == 0
        engine.close()

    def test_thread_task_error_types_are_not_pickle_failures(self):
        # AttributeError/TypeError raised by the task itself on the
        # thread pool must consume the retry budget and terminate —
        # never loop as misdiagnosed pickling failures.
        engine = ExecutionEngine("thread", max_workers=2, fault_policy=FAST)
        tasks = [_Flaky(1, failures=99, exc=AttributeError),
                 _Flaky(2, failures=99, exc=TypeError)]
        outcomes, _ = engine.run(tasks)
        assert not outcomes[0].ok and not outcomes[1].ok
        assert outcomes[0].attempts == FAST.max_retries + 1
        assert outcomes[1].attempts == FAST.max_retries + 1
        engine.close()

    def test_empty_task_list(self):
        engine = ExecutionEngine("thread", fault_policy=FAST)
        outcomes, timings = engine.run([])
        assert outcomes == [] and timings == []
        engine.close()


class TestProcessFaults:
    def test_broken_pool_disposed_and_rebuilt_without_policy(self):
        # Satellite regression: a worker death must not poison the
        # persistent pool for the next query on the same engine.
        engine = ExecutionEngine("process", max_workers=2)
        with pytest.raises(TaskFailedError, match="rebuilt"):
            engine.run([_ExitUnlessPid(1, safe_pid=-1)])
        assert engine._process_pool is None
        outcomes, _ = engine.run([_Square(3), _Square(4)])
        assert require_results(outcomes) == [9, 16]
        engine.close()

    def test_crash_retries_on_thread_pool_with_policy(self):
        engine = ExecutionEngine("process", max_workers=2,
                                 fault_policy=FAST)
        tasks = [_ExitUnlessPid("ok", safe_pid=os.getpid()), _Square(5)]
        outcomes, _ = engine.run(tasks)
        assert require_results(outcomes) == ["ok", 25]
        assert outcomes[0].failure is None
        assert engine.last_backend == "mixed"
        # The engine stays usable afterwards.
        again, _ = engine.run([_Square(2), _Square(3)])
        assert require_results(again) == [4, 9]
        engine.close()

    def test_unpicklable_tasks_redispatch_without_budget(self):
        engine = ExecutionEngine("process", max_workers=2,
                                 fault_policy=FaultPolicy(
                                     max_retries=0, backoff_seconds=0.001))
        value = 21
        outcomes, _ = engine.run([lambda: value * 2, lambda: value + 1])
        assert require_results(outcomes) == [42, 22]
        # Redispatch after the pickling failure consumed no retries
        # even though the budget was zero.
        assert all(o.ok for o in outcomes)
        engine.close()


class TestEngineLifecycle:
    def test_close_is_idempotent(self):
        engine = ExecutionEngine("thread", max_workers=2)
        engine.run([lambda: 1])
        engine.close()
        engine.close()  # second close is a no-op
        assert engine._thread_pool is None

    def test_run_after_close_raises_repro_error(self):
        engine = ExecutionEngine("thread", max_workers=2)
        engine.close()
        with pytest.raises(ReproError, match="closed"):
            engine.run([lambda: 1])


class TestRunWavesEdgeCases:
    def test_empty_wave_mid_stream(self):
        engine = ExecutionEngine()
        outcomes, wave_timings = engine.run_waves(
            [[lambda: "a"], [], [lambda: "c"]])
        assert [o.result for o in outcomes] == ["a", "c"]
        assert [len(w) for w in wave_timings] == [1, 0, 1]

    def test_on_wave_raising_closes_producer(self):
        engine = ExecutionEngine()
        closed = []

        def waves():
            try:
                yield [lambda: 1]
                yield [lambda: 2]
            finally:
                closed.append(True)

        def on_wave(index, outcomes, timings):
            raise RuntimeError("driver fold failed")

        with pytest.raises(RuntimeError, match="driver fold failed"):
            engine.run_waves(waves(), on_wave=on_wave)
        assert closed == [True]
        # The engine itself is unaffected.
        outcomes, _ = engine.run([lambda: 7])
        assert outcomes[0].result == 7

    def test_fault_injected_waves_preserve_order(self):
        injector = FaultInjector(seed=5, rate=0.6, kinds=("raise", "delay"),
                                 delay_seconds=0.005)
        engine = ExecutionEngine("thread", max_workers=4,
                                 fault_policy=FAST)
        injector.install(engine)
        waves = [[(lambda v=10 * w + i: v) for i in range(4)]
                 for w in range(3)]
        outcomes, wave_timings = engine.run_waves(waves)
        assert [o.result for o in outcomes] == [
            10 * w + i for w in range(3) for i in range(4)]
        assert all(o.ok for o in outcomes)
        assert injector.total_injected > 0
        engine.close()


def _tiny_engine(**kwargs):
    rng = np.random.default_rng(11)
    dataset = TrajectoryDataset(name="faults", trajectories=[
        Trajectory(rng.uniform(0, 1, (int(rng.integers(4, 12)), 2)),
                   traj_id=i) for i in range(50)])
    # Faults are injected into partition tasks: the distributed plan.
    kwargs.setdefault("plan", "waves")
    return Repose.build(dataset, measure="hausdorff", num_partitions=4,
                        **kwargs)


class _AlwaysBroken:
    """Local-index stand-in whose every search raises."""

    def __init__(self, index):
        self._index = index
        self.supports_threshold = index.supports_threshold

    def probe(self, query, dqp=None):
        return self._index.probe(query, dqp=dqp)

    def top_k(self, *args, **kwargs):
        raise RuntimeError("partition storage lost")

    def top_k_multi(self, *args, **kwargs):
        raise RuntimeError("partition storage lost")

    def range_query(self, *args, **kwargs):
        raise RuntimeError("partition storage lost")


class TestGracefulDegradation:
    def test_partition_loss_yields_flagged_partial_top_k(self):
        engine = _tiny_engine(
            fault_policy=FaultPolicy(max_retries=0, backoff_seconds=0.001))
        engine._parts[0].index = _AlwaysBroken(engine._parts[0].index)
        # One of the lost partition's own trajectories: its probe bound
        # is 0, so no broadcast dk lets the planner skip the partition
        # (first-level probe bounds include LBt where a run ends in a
        # lone leaf, and can rule a partition out for a query from
        # elsewhere).
        query = engine._parts[0].trajectories[0]
        outcome = engine.top_k(query, 5)
        assert not outcome.complete
        assert outcome.failed_partitions == [0]
        assert len(outcome.result.items) > 0
        # The planner re-dispatched the partition into a retry wave
        # before giving up: it shows as failed in two waves.
        assert sum(len(w.failed) for w in outcome.plan.waves) >= 2
        with pytest.raises(PartialResultError, match=r"\[0\]"):
            outcome.require_complete()

    def test_partition_loss_yields_flagged_partial_batch(self):
        engine = _tiny_engine(
            fault_policy=FaultPolicy(max_retries=0, backoff_seconds=0.001))
        engine._parts[1].index = _AlwaysBroken(engine._parts[1].index)
        queries = engine.dataset.trajectories[:3]
        batch = engine.top_k_batch(queries, 5)
        assert not batch.complete
        assert any(1 in failed for failed in batch.failed_partitions)
        assert all(len(r.items) > 0 for r in batch.results)
        with pytest.raises(PartialResultError):
            batch.require_complete()

    def test_exactness_verdict_respects_probe_bounds(self):
        # A failed partition whose probe bound cannot rule it out makes
        # the partial result best-effort, never silently "exact".
        engine = _tiny_engine(
            fault_policy=FaultPolicy(max_retries=0, backoff_seconds=0.001))
        engine._parts[0].index = _AlwaysBroken(engine._parts[0].index)
        # A query from partition 0's own data: its bound is ~0, below
        # any finite dk, so exactness cannot be certified.
        query = engine._parts[0].trajectories[0]
        outcome = engine.top_k(query, 3)
        if not outcome.complete:
            assert not outcome.exact

    def test_transient_faults_recover_bit_identical(self):
        baseline = _tiny_engine()
        engine = _tiny_engine(fault_policy=FAST, engine="thread")
        injector = FaultInjector(seed=3, rate=0.4, kinds=("raise",))
        injector.install(engine.context.engine)
        for qi in (0, 7, 23):
            query = engine.dataset.trajectories[qi]
            outcome = engine.top_k(query, 6)
            assert outcome.complete and outcome.exact
            expected = baseline.top_k(query, 6)
            assert outcome.result.items == expected.result.items
        assert injector.total_injected > 0


class TestPlanOptionValidation:
    def test_constructor_rejects_unknown_plan_options(self):
        rng = np.random.default_rng(1)
        dataset = TrajectoryDataset(name="opts", trajectories=[
            Trajectory(rng.uniform(0, 1, (5, 2)), traj_id=i)
            for i in range(10)])
        with pytest.raises(ValueError, match="wave_sizes"):
            Repose.build(dataset, measure="hausdorff", num_partitions=2,
                         plan_options={"wave_sizes": 3})

    def test_error_lists_supported_knobs(self):
        rng = np.random.default_rng(1)
        dataset = TrajectoryDataset(name="opts", trajectories=[
            Trajectory(rng.uniform(0, 1, (5, 2)), traj_id=i)
            for i in range(10)])
        with pytest.raises(ValueError, match="share_eps"):
            Repose.build(dataset, measure="hausdorff", num_partitions=2,
                         plan_options={"typo": 1})

    def test_batch_call_rejects_unknown_plan_options(self):
        engine = _tiny_engine()
        with pytest.raises(ValueError, match="sampl_size"):
            engine.top_k_batch(engine.dataset.trajectories[:2], 3,
                               plan_options={"sampl_size": 4})


class TestInjectorDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(seed=9, rate=0.5, kinds=("raise",))
        b = FaultInjector(seed=9, rate=0.5, kinds=("raise",))
        fates_a = [a(lambda: None).kind for _ in range(50)]
        fates_b = [b(lambda: None).kind for _ in range(50)]
        assert fates_a == fates_b
        assert any(kind == "raise" for kind in fates_a)
        assert any(kind is None for kind in fates_a)

    def test_faults_fire_once_then_retries_succeed(self):
        injector = FaultInjector(seed=1, rate=1.0, kinds=("raise",))
        wrapped = injector(lambda: 42)
        with pytest.raises(InjectedFault):
            wrapped()
        assert wrapped() == 42  # the retry runs the real task

    def test_rejects_unknown_kind_and_bad_rate(self):
        with pytest.raises(ValueError, match="segfault"):
            FaultInjector(kinds=("segfault",))
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(rate=1.5)
