"""The REPOSE distributed framework and its baseline harness.

Mirrors the paper's Section V-C architecture: trajectories are globally
partitioned, each partition is packaged together with its local index
into an ``RpTraj`` record inside an RDD, ``mapPartitions`` builds and
queries local indexes, and the driver merges per-partition top-k lists.
That is the ``"waves"`` / ``"single"`` plans: the emulation of the
paper's distributed setup.  By default :class:`Repose` answers from
*one* RP-Trie over every partition's trajectories instead — plan
``"trie"``, searched in the driver whatever the engine backend —
because the paper's bounds are per node (a subtree's cell path,
``Dmax`` and ``HR``), so one trie is as sound as sixteen and far
cheaper to search.

The same machinery runs the baselines — DFT, DITA and LS implement the
local-index interface — so every algorithm is measured on an identical
substrate (one ``DistributedTopK`` per algorithm).

Reported times:

* ``wall_seconds`` — real elapsed time on this machine;
* ``simulated_seconds`` — the makespan of the measured per-partition
  durations FIFO-scheduled onto the virtual cluster (default: the
  paper's 16 workers x 4 cores), the reproduction's stand-in for
  distributed query time (QT) and index construction time (IT).
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cluster.batch import BatchPlanReport, BatchQueryPlanner
from .cluster.driver import merge_range, merge_top_k
from .cluster.engine import (ExecutionEngine, FaultPolicy, TaskTiming,
                             WorkloadHints)
from .cluster.planner import PlanReport
from .cluster.rdd import ClusterContext
from .cluster.scheduler import (
    ClusterSpec,
    ScheduleReport,
    simulate_schedule,
    simulate_schedule_waves,
)
from .core.grid import Grid
from .core.pivots import query_pivot_distances, select_pivots
from .core.rptrie import RPTrie
from .core.search import (
    PartitionProbe,
    TopKResult,
    local_range_search,
    local_search,
    local_search_multi,
    probe_search,
)
from .core.succinct import SuccinctRPTrie
from .distances.base import Measure, get_measure
from .distances.kernels import resolve_backend
from .exceptions import IndexNotBuiltError, PartialResultError
from .partitioning.strategies import make_strategy
from .types import Trajectory, TrajectoryDataset

__all__ = ["RpTraj", "RPTrieLocalIndex", "BuildReport", "QueryOutcome",
           "BatchOutcome", "DistributedTopK", "Repose", "make_baseline"]


@dataclass
class RpTraj:
    """The paper's ``case class RpTraj(trajectory: Array, Index: RP-Trie)``:
    one partition's trajectories packaged with its local index."""

    trajectories: list[Trajectory]
    index: object  # any local index (RPTrieLocalIndex, DFTIndex, ...)


class _BuildPartition:
    """``mapPartitions`` function building one partition's local index.

    Module-level (rather than a closure) so the ``"process"`` execution
    backend can pickle the task when the index factory is picklable.
    """

    def __init__(self, index_factory: Callable[[], object]):
        self.index_factory = index_factory

    def __call__(self, trajectories: list[Trajectory]) -> list[RpTraj]:
        index = self.index_factory()
        index.build(trajectories)
        return [RpTraj(trajectories=trajectories, index=index)]


class _TopKPartition:
    """``mapPartitions`` function running one top-k query (picklable)."""

    def __init__(self, query: Trajectory, k: int, kwargs: dict):
        self.query = query
        self.k = k
        self.kwargs = kwargs

    def __call__(self, part: list[RpTraj]) -> list:
        return [rp.index.top_k(self.query, self.k, **self.kwargs)
                for rp in part]


class _RangePartition:
    """``mapPartitions`` function running one range query (picklable)."""

    def __init__(self, query: Trajectory, radius: float, kwargs: dict):
        self.query = query
        self.radius = radius
        self.kwargs = kwargs

    def __call__(self, part: list[RpTraj]) -> list:
        return [rp.index.range_query(self.query, self.radius, **self.kwargs)
                for rp in part]


def _make_rptrie_index(grid: Grid, measure: Measure, optimized: bool,
                       num_pivots: int, succinct: bool,
                       search_options: dict | None,
                       pivot_box: list) -> "RPTrieLocalIndex":
    """Per-partition index factory (module level for picklability).

    ``pivot_box`` is a one-element list owned by the engine, read at
    call time: pivots assigned to the engine after construction but
    before :meth:`DistributedTopK.build` are still the ones every
    partition indexes, matching the driver-computed ``dqp``.
    """
    pivots = pivot_box[0]
    return RPTrieLocalIndex(grid, measure, optimized=optimized,
                            num_pivots=num_pivots, pivots=pivots or None,
                            succinct=succinct,
                            search_options=search_options)


class _LocalTopKTask:
    """One (query, partition) top-k task (picklable)."""

    def __init__(self, rp: RpTraj, query: Trajectory, k: int, kwargs: dict):
        self.rp = rp
        self.query = query
        self.k = k
        self.kwargs = kwargs

    def __call__(self):
        return self.rp.index.top_k(self.query, self.k, **self.kwargs)


#: Per-index-type memo of "does ``top_k_multi`` accept
#: ``share_groups``?" — the signature inspection costs tens of
#: microseconds, which would otherwise be paid on every dispatched
#: multi-query task (process-backend workers each warm their own copy).
_MULTI_ACCEPTS_SHARES: dict[type, bool] = {}


def _multi_accepts_share_groups(index) -> bool:
    """Whether ``index.top_k_multi`` declares a ``share_groups``
    parameter, memoized per index type."""
    key = type(index)
    accepts = _MULTI_ACCEPTS_SHARES.get(key)
    if accepts is None:
        accepts = "share_groups" in inspect.signature(
            index.top_k_multi).parameters
        _MULTI_ACCEPTS_SHARES[key] = accepts
    return accepts


class _LocalMultiTopKTask:
    """One (partition, query group) task of a batched wave plan.

    Picklable for the process backend.  Prefers the index's
    ``top_k_multi`` (REPOSE's shares one columnar gather per leaf
    across the group); indexes without it — the baselines — fall back
    to a per-query loop *inside* the task, so grouping still amortizes
    the dispatch itself.  ``share_groups`` carries the batch planner's
    near-duplicate labels (None entries for unshared queries); it is
    forwarded only to a ``top_k_multi`` that declares the parameter
    (:func:`_multi_accepts_share_groups`), so older or third-party
    multi-query indexes keep working — labels are a sharing hint,
    never required for correctness.
    """

    def __init__(self, rp: RpTraj, queries: list[Trajectory], k: int,
                 kwargs_list: list[dict],
                 share_groups: list | None = None):
        self.rp = rp
        self.queries = queries
        self.k = k
        self.kwargs_list = kwargs_list
        self.share_groups = share_groups

    def __call__(self) -> list:
        multi = getattr(self.rp.index, "top_k_multi", None)
        if multi is not None:
            shares = self.share_groups
            if (shares is not None
                    and any(label is not None for label in shares)
                    and _multi_accepts_share_groups(self.rp.index)):
                return multi(self.queries, self.k, self.kwargs_list,
                             share_groups=shares)
            return multi(self.queries, self.k, self.kwargs_list)
        return [self.rp.index.top_k(query, self.k, **kwargs)
                for query, kwargs in zip(self.queries, self.kwargs_list)]


class _LocalRangeTask:
    """One (query, partition) range-search task of a wave (picklable)."""

    def __init__(self, rp: RpTraj, query: Trajectory, radius: float,
                 kwargs: dict):
        self.rp = rp
        self.query = query
        self.radius = radius
        self.kwargs = kwargs

    def __call__(self):
        return self.rp.index.range_query(self.query, self.radius,
                                         **self.kwargs)


@dataclass
class BuildReport:
    """Index construction metrics (the paper's IT and IS)."""

    wall_seconds: float
    simulated_seconds: float
    index_bytes: int
    partition_sizes: list[int] = field(default_factory=list)
    schedule: ScheduleReport | None = None


@dataclass
class QueryOutcome:
    """One distributed top-k execution.

    ``plan`` carries the query planner's per-wave report (dispatch
    order, probe bounds, threshold broadcasts, per-wave pruned-node and
    exact-refinement counts) for waved executions, a ``mode="trie"``
    report without waves for one-trie executions, and is ``None`` for
    single-shot plans.  The same counters are also summed onto
    ``result.stats`` so existing stats plumbing reports them.

    Degradation state (meaningful under an engine
    :class:`~repro.cluster.engine.FaultPolicy`): ``complete`` is False
    when some partitions exhausted every retry, ``failed_partitions``
    names them, and ``exact`` tells whether the result is nevertheless
    provably identical to the fault-free answer (every failed
    partition's probe lower bound strictly exceeded the final
    threshold).  ``complete`` implies ``exact``; an incomplete,
    non-exact outcome is best-effort.
    """

    result: TopKResult
    wall_seconds: float
    simulated_seconds: float
    per_partition_seconds: list[float] = field(default_factory=list)
    schedule: ScheduleReport | None = None
    plan: PlanReport | None = None
    complete: bool = True
    exact: bool = True
    failed_partitions: list[int] = field(default_factory=list)

    def require_complete(self) -> "QueryOutcome":
        """Fail-fast guard: raise unless every partition contributed.

        Returns ``self`` when complete, so calls chain; otherwise
        raises :class:`~repro.exceptions.PartialResultError` naming the
        failed partitions and the exactness verdict.
        """
        if self.complete:
            return self
        raise PartialResultError(
            f"query lost partitions {self.failed_partitions} "
            f"(result {'still provably exact' if self.exact else 'best-effort'})")


@dataclass
class BatchOutcome:
    """A batch of queries executed under one coordinated plan.

    This is the paper's Section V-A scenario: a batch of analysis
    queries (possibly skewed towards hot regions) issued at once.
    ``results`` holds one merged global top-k per query, in input
    order.  Under the batched wave plan (:meth:`DistributedTopK
    .top_k_batch` with ``plan="waves"``) ``plan`` carries the
    :class:`~repro.cluster.batch.BatchPlanReport` — dispatched
    multi-query tasks, per-query wave accounting, probe, share-group
    and cross-query threshold savings; under the one-trie plan a
    ``mode="batch-trie"`` report (dedup and registry counters); the
    sequential ``plan="single"`` path leaves it None.  The makespan and
    utilization expose the resource waste that homogeneous
    partitioning causes when query load concentrates on a few
    partitions.

    Degradation state mirrors :class:`QueryOutcome`, per query:
    ``complete`` is the whole batch's verdict, while ``exact[qi]`` and
    ``failed_partitions[qi]`` report each query individually (both
    empty for plans without per-query degradation accounting, e.g.
    ``plan="single"``).
    """

    results: list[TopKResult]
    wall_seconds: float
    simulated_seconds: float
    schedule: ScheduleReport | None = None
    plan: BatchPlanReport | None = None
    complete: bool = True
    exact: list[bool] = field(default_factory=list)
    failed_partitions: list[list[int]] = field(default_factory=list)
    #: Measured seconds of every partition task the plan dispatched,
    #: wave by wave (empty for ``plan="single"``).
    task_seconds: list[float] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        return self.schedule.utilization if self.schedule else 1.0

    def query_outcome(self, index: int) -> QueryOutcome:
        """Project query ``index``'s :class:`QueryOutcome` out of the
        batch: its own result, plan and degradation state (a partial
        batch costs only the affected queries their completeness), with
        the batch's timings — a single query is a batch of one, and the
        serving layer answers each request with its slice."""
        plan = (self.plan.per_query[index]
                if self.plan is not None else None)
        failed = (list(self.failed_partitions[index])
                  if self.failed_partitions else [])
        return QueryOutcome(
            result=self.results[index],
            wall_seconds=self.wall_seconds,
            simulated_seconds=self.simulated_seconds,
            per_partition_seconds=list(self.task_seconds),
            schedule=self.schedule, plan=plan,
            complete=not failed,
            exact=self.exact[index] if self.exact else True,
            failed_partitions=failed)

    def require_complete(self) -> "BatchOutcome":
        """Fail-fast guard: raise unless every query saw every
        partition; returns ``self`` when complete, so calls chain."""
        if self.complete:
            return self
        bad = [qi for qi, failed in enumerate(self.failed_partitions)
               if failed]
        raise PartialResultError(
            f"batch queries {bad} lost partitions "
            f"{[self.failed_partitions[qi] for qi in bad]}")


class RPTrieLocalIndex:
    """Adapter giving the RP-Trie the common local-index interface.

    Parameters mirror :class:`~repro.core.rptrie.RPTrie`; ``succinct``
    freezes the built trie into the SuRF-style structure before
    querying.

    The adapter announces the two planner capabilities: ``probe``
    (first-level lower bounds for promise ordering and partition
    skipping) and ``supports_threshold`` (``top_k`` accepts the
    driver-broadcast ``dk``).  Baseline indexes expose neither and the
    planner degrades gracefully around them.
    """

    #: The planner may pass ``dk=`` (the running global k-th best) to
    #: :meth:`top_k`; seeding is strictly work-pruning, never
    #: answer-changing (see :func:`repro.core.search.local_search`).
    supports_threshold = True

    def __init__(self, grid: Grid, measure: Measure, optimized: bool = True,
                 num_pivots: int = 5, pivots: list[Trajectory] | None = None,
                 succinct: bool = False,
                 search_options: dict | None = None):
        self.grid = grid
        self.measure = measure
        self.optimized = optimized
        self.num_pivots = num_pivots
        self.pivots = pivots
        self.succinct = succinct
        self.search_options = search_options or {}
        self._trie: RPTrie | SuccinctRPTrie | None = None

    def build(self, trajectories: list[Trajectory]) -> "RPTrieLocalIndex":
        trie = RPTrie(self.grid, self.measure, optimized=self.optimized,
                      num_pivots=self.num_pivots, pivots=self.pivots)
        trie.build(trajectories)
        self._trie = SuccinctRPTrie(trie) if self.succinct else trie
        return self

    def top_k(self, query: Trajectory, k: int,
              dqp: np.ndarray | None = None,
              dk: float = float("inf")) -> TopKResult:
        """Local top-k; ``dk`` optionally seeds an external threshold."""
        if self._trie is None:
            raise IndexNotBuiltError("call build() before top_k()")
        return local_search(self._trie, query, k, dqp=dqp, dk=dk,
                            **self.search_options)

    def top_k_multi(self, queries: list[Trajectory], k: int,
                    kwargs_list: list[dict],
                    share_groups: list | None = None) -> list[TopKResult]:
        """Local top-k for a whole query group in one call.

        The entry point of the wave loop and of the one-trie plan
        (:func:`repro.core.search.local_search_multi`): one call runs
        every query of a group.  Per-query
        ``kwargs_list`` entries carry the same keys :meth:`top_k`
        accepts (``dqp``, ``dk``; anything else is a ``TypeError``, as
        it would be there); ``share_groups`` forwards the batch
        planner's near-duplicate labels so group members run
        back-to-back against the shared gather store.  Results are
        bit-identical to calling :meth:`top_k` per query.
        """
        if self._trie is None:
            raise IndexNotBuiltError("call build() before top_k_multi()")
        unknown = {key for kwargs in kwargs_list
                   for key in kwargs} - {"dqp", "dk"}
        if unknown:
            raise TypeError("top_k_multi() got unexpected query kwargs "
                            f"{sorted(unknown)}")
        return local_search_multi(
            self._trie, queries, k,
            dqps=[kwargs.get("dqp") for kwargs in kwargs_list],
            dks=[kwargs.get("dk", float("inf")) for kwargs in kwargs_list],
            share_groups=share_groups,
            **self.search_options)

    def probe(self, query: Trajectory,
              dqp: np.ndarray | None = None) -> PartitionProbe:
        """First-level partition summary for the planner's probe phase.

        Respects the same ablation switches the search runs with, so
        the probe bound is sound for the configured search.
        """
        if self._trie is None:
            raise IndexNotBuiltError("call build() before probe()")
        options = self.search_options
        return probe_search(
            self._trie, query, dqp=dqp,
            use_pivots=options.get("use_pivots", True),
            use_lbt=options.get("use_lbt", True),
            use_lbo=options.get("use_lbo", True),
            kernels=options.get("kernels"))

    def range_query(self, query: Trajectory, radius: float,
                    dqp: np.ndarray | None = None) -> TopKResult:
        if self._trie is None:
            raise IndexNotBuiltError("call build() before range_query()")
        options = self.search_options
        return local_range_search(
            self._trie, query, radius, dqp=dqp,
            use_pivots=options.get("use_pivots", True),
            kernels=options.get("kernels"))

    def memory_bytes(self) -> int:
        if self._trie is None:
            raise IndexNotBuiltError("call build() before memory_bytes()")
        return self._trie.memory_bytes()

    def insert(self, traj: Trajectory) -> None:
        """Incrementally insert (mutable tries only; not succinct)."""
        if self._trie is None:
            raise IndexNotBuiltError("call build() before insert()")
        if isinstance(self._trie, SuccinctRPTrie):
            raise IndexNotBuiltError(
                "succinct tries are immutable; rebuild to add trajectories")
        self._trie.insert(traj)

    @property
    def trie(self) -> RPTrie | SuccinctRPTrie:
        if self._trie is None:
            raise IndexNotBuiltError("index not built")
        return self._trie


class DistributedTopK:
    """Distributed top-k search: any local index on the mini-RDD engine.

    Parameters
    ----------
    dataset:
        The trajectories to index.
    index_factory:
        Zero-argument callable returning a fresh local index per
        partition.
    strategy:
        Global partitioning strategy name ("heterogeneous",
        "homogeneous", "random") or a callable
        ``(dataset, num_partitions) -> list[list[Trajectory]]``.
    num_partitions:
        Partition count (paper default: 64, one per core).
    cluster_spec:
        Virtual cluster shape for simulated times.
    engine:
        Execution backend for real per-partition work: an
        :class:`~repro.cluster.engine.ExecutionEngine` or a backend
        name (``"serial"``, ``"thread"``, ``"process"`` or ``"auto"``).
        With ``"auto"`` the engine picks a backend per dispatch from
        the workload hints this driver supplies (measure, partition
        size, batch width); the choice never changes results.
    measure_hint:
        Measure name forwarded to an ``"auto"`` engine's cost model.
        :class:`Repose` and :func:`make_baseline` fill it in; only
        custom index factories need to pass it explicitly.
    kernels_hint:
        Resolved DP kernel backend name (``"numpy"``/``"cnative"``)
        forwarded to the ``"auto"`` engine's cost model:
        compiled kernels shift per-candidate rates (and the
        serial/thread/process break-even) enough that the model keys
        its calibrated rates by ``measure+backend``.
        :meth:`Repose.build` fills it in from its ``kernels``
        argument; never affects results, only backend placement.
    plan:
        Query execution plan: ``"waves"`` (the default here; see
        :class:`Repose` for its one-trie plan) routes top-k
        queries (single ones as a batch of one) and range queries
        through the two-phase wave planner
        (:mod:`repro.cluster.planner`, :mod:`repro.cluster.batch`) —
        probe partitions, dispatch them by promise in waves, and
        broadcast the tightening global k-th-best distance into later
        waves — while ``"single"`` keeps the paper's one-shot
        map-then-merge.
        Both plans return bit-identical results; waves only prune
        work.  Individual calls may override via ``top_k(...,
        plan=...)``.
    plan_options:
        Planner knobs: ``{"wave_size": int}`` (partitions per wave,
        default: the partition count cut into 4 waves);
        ``{"share_eps": float}`` (batch queries within this distance
        of a share-group representative adopt its probe/wave plan —
        near-duplicate sharing, default off).
    fault_policy:
        Optional :class:`~repro.cluster.engine.FaultPolicy` installed
        on the engine: partition tasks are retried with backoff, timed
        out against the calibrated cost model, optionally speculated,
        and queries degrade to flagged partial results (see
        :attr:`QueryOutcome.complete`) instead of raising when a
        partition exhausts every retry.
    """

    #: The plans this driver runs; the first is its default.
    _PLANS = ("waves", "single")

    #: Every knob :attr:`plan_options` accepts; anything else raises
    #: ``ValueError`` up front instead of being silently ignored.
    _PLAN_OPTION_KEYS = frozenset({"wave_size", "share_eps"})

    def __init__(self, dataset: TrajectoryDataset,
                 index_factory: Callable[[], object],
                 strategy: str | Callable = "heterogeneous",
                 num_partitions: int = 64,
                 cluster_spec: ClusterSpec | None = None,
                 engine: ExecutionEngine | str | None = None,
                 measure_hint: str | None = None,
                 kernels_hint: str | None = None,
                 plan: str | None = None,
                 plan_options: dict | None = None,
                 fault_policy: FaultPolicy | None = None):
        self.dataset = dataset
        self.index_factory = index_factory
        self.strategy = (make_strategy(strategy)
                         if isinstance(strategy, str) else strategy)
        self.num_partitions = num_partitions
        self.cluster_spec = cluster_spec or ClusterSpec()
        if isinstance(engine, str):
            engine = ExecutionEngine(engine)
        self.context = ClusterContext(engine or ExecutionEngine())
        if fault_policy is not None:
            self.context.engine.fault_policy = fault_policy
        self.measure_hint = measure_hint
        self.kernels_hint = kernels_hint
        self.plan = self._resolve_plan(plan or self._PLANS[0])
        self.plan_options = self._validate_plan_options(plan_options)
        self._partition_points: int | None = None
        #: The driver's record of which trajectories each partition
        #: holds (inserts included), set by :meth:`build`.
        self._partitions: list[list[Trajectory]] | None = None
        self._rdd = None
        self._parts: list[RpTraj] | None = None
        self.build_report: BuildReport | None = None
        #: The serving front-end attached by ``build(service=...)``
        #: (see :meth:`serve`); None until one is requested.
        self.service = None

    def _resolve_plan(self, plan: str | None) -> str:
        """Validate a plan name, defaulting to the engine-level plan."""
        mode = plan if plan is not None else self.plan
        if mode not in self._PLANS:
            raise ValueError(
                f"unknown plan {mode!r} (use one of {self._PLANS})")
        return mode

    @classmethod
    def _validate_plan_options(cls, plan_options: dict | None) -> dict:
        """Reject unknown planner knobs up front.

        A typo'd option (``wave_sizes``) would otherwise be silently
        ignored and the query would run with defaults — the worst kind
        of mis-configuration.  Returns a fresh dict copy of the valid
        options.
        """
        options = dict(plan_options or {})
        unknown = sorted(set(options) - cls._PLAN_OPTION_KEYS)
        if unknown:
            supported = ", ".join(sorted(cls._PLAN_OPTION_KEYS))
            raise ValueError(
                f"unknown plan option(s) {unknown}; "
                f"supported knobs: {supported}")
        return options

    def _workload_hints(self, num_tasks: int,
                        queries_per_task: float = 1.0) -> WorkloadHints:
        """Hints for the ``"auto"`` engine: what one dispatch looks like.

        The average partition size is computed from the dataset once
        and cached; the measure comes from :attr:`measure_hint` (None
        for custom factories, which makes the cost model conservative).
        ``queries_per_task`` describes multi-query partition tasks
        (the batch planner's grouped dispatch).
        """
        if self._partition_points is None:
            total = sum(len(t) for t in self.dataset.trajectories)
            self._partition_points = total // max(self.num_partitions, 1)
        return WorkloadHints(measure=self.measure_hint,
                             partition_points=self._partition_points,
                             num_tasks=num_tasks,
                             queries_per_task=queries_per_task,
                             kernels=self.kernels_hint)

    def build(self) -> BuildReport:
        """Partition the dataset and build the local indexes the
        default plan answers from (:meth:`_build_indexes`)."""
        start = time.perf_counter()
        self._partitions = self.strategy(self.dataset, self.num_partitions)
        timings = self._build_indexes()
        wall = time.perf_counter() - start
        # Fresh indexes invalidate every memoized planner probe.
        self.context.probe_cache.bump_epoch()
        schedule = simulate_schedule(timings, self.cluster_spec)
        self.build_report = BuildReport(
            wall_seconds=wall,
            simulated_seconds=schedule.makespan,
            index_bytes=self._index_bytes(),
            partition_sizes=[len(p) for p in self._partitions],
            schedule=schedule,
        )
        return self.build_report

    def _build_indexes(self) -> list[TaskTiming]:
        """Build what the default plan searches — here one local index
        per partition — and return the build tasks' timings."""
        return self._build_partitions()

    def _build_partitions(self) -> list[TaskTiming]:
        """One local index per partition, built through the engine."""
        self.context.hints = self._workload_hints(len(self._partitions))
        # Copies: the records' lists grow with inserts apart from the
        # driver's own (under a process engine they are copies anyway).
        base = self.context.from_partitions(
            [list(part) for part in self._partitions])
        packaged = (base.map_partitions(_BuildPartition(self.index_factory))
                    .collect_partitions())
        # Re-wrap the built partitions so queries reuse the indexes, and
        # keep the flat driver-side list: the planner and scheduled
        # batches address partitions directly, without paying an engine
        # dispatch (and, under process backends, an index pickle
        # round-trip) just to re-materialize what the driver holds.
        self._rdd = self.context.from_partitions(packaged)
        self._parts = [rp for part in packaged for rp in part]
        return self.context.last_timings

    def _index_bytes(self) -> int:
        """Bytes of the local indexes that exist."""
        return sum(rp.index.memory_bytes() for rp in self._parts or [])

    def _require_built(self) -> None:
        if self.build_report is None:
            raise IndexNotBuiltError("call build() first")

    def _require_parts(self) -> list[RpTraj]:
        """The per-partition records, built on first use when the
        default plan did not need them (their bytes then join
        :meth:`index_bytes`)."""
        self._require_built()
        if self._parts is None:
            self._build_partitions()
            self.build_report.index_bytes = self._index_bytes()
        return self._parts

    def _query_kwargs_for(self, query: Trajectory,
                          provided: dict | None = None) -> dict:
        """Driver-side per-query kwargs shared with every partition.

        Subclasses override this to compute query-global state exactly
        once per query (e.g. :class:`Repose` supplies the query-to-pivot
        distances ``dqp``); every query path — single, batch-scheduled
        and range — threads the result through so no partition repeats
        the work.  ``provided`` holds the caller's explicit kwargs so
        an override can skip recomputing values the caller supplied.
        """
        return {}

    def top_k(self, query: Trajectory, k: int, plan: str | None = None,
              **query_kwargs) -> QueryOutcome:
        """Distributed top-k: local search per partition, driver merge.

        ``plan`` overrides the engine-level execution plan for this
        query (``"waves"`` or ``"single"``; both return bit-identical
        results).  Extra ``query_kwargs`` are forwarded to every local
        index's ``top_k`` (on top of :meth:`_query_kwargs_for`, which
        lets :class:`Repose` share driver-computed query-pivot
        distances).
        """
        self._require_parts()
        if self._resolve_plan(plan) == "waves":
            # A single query is a batch of one.
            return self._top_k_waves([query], k,
                                     [query_kwargs]).query_outcome(0)
        start = time.perf_counter()
        self.context.hints = self._workload_hints(self.num_partitions)
        query_kwargs = {**self._query_kwargs_for(query, query_kwargs),
                        **query_kwargs}
        partials = (self._rdd
                    .map_partitions(_TopKPartition(query, k, query_kwargs))
                    .collect())
        timings = self.context.last_timings
        result = merge_top_k(partials, k)
        result.stats.waves = 1
        wall = time.perf_counter() - start
        schedule = simulate_schedule(timings, self.cluster_spec)
        return QueryOutcome(
            result=result,
            wall_seconds=wall,
            simulated_seconds=schedule.makespan,
            per_partition_seconds=[t.seconds for t in timings],
            schedule=schedule,
        )

    def _planner(self, options: dict | None = None,
                 registry=None) -> BatchQueryPlanner:
        """The wave planner bound to this engine's execution pools,
        configured from ``options`` (default: the engine-level
        :attr:`plan_options`)."""
        options = self.plan_options if options is None else options
        return BatchQueryPlanner(
            self.context.engine,
            wave_size=options.get("wave_size"),
            probe_cache=self.context.probe_cache,
            query_distance=self._query_distance_fn(),
            share_eps=options.get("share_eps"),
            share_distance=self._share_distance_fn(),
            registry=registry)

    def _query_distance_fn(self) -> Callable | None:
        """Driver-side query-to-query distance for the batch planner's
        cross-query threshold reuse, or None when the measure's
        triangle inequality cannot certify it.  The base driver knows
        nothing about its index's measure, so it opts out;
        :class:`Repose` supplies its metric measures' distance."""
        return None

    def _share_distance_fn(self) -> Callable | None:
        """Driver-side query-to-query distance for near-duplicate
        share-group *clustering* (``plan_options={"share_eps": ...}``).
        Unlike :meth:`_query_distance_fn` it needs no metric property
        — clustering only decides which queries adopt a shared plan,
        whose soundness the planner restores per measure — but the
        base driver still knows no measure, so it opts out and
        ``share_eps`` is inert; :class:`Repose` supplies its measure's
        distance unconditionally."""
        return None

    def _top_k_waves(self, queries: list[Trajectory], k: int,
                     provided: list[dict],
                     options: dict | None = None,
                     registry=None) -> BatchOutcome:
        """Waved top-k at any batch width (:mod:`repro.cluster.batch`).

        Probes every (query, partition) pair driver-side, dispatches
        partitions by promise in waves — one task per partition for all
        the queries bound for it — folds each wave into the per-query
        running merges and broadcasts the tightened thresholds into the
        next wave.  ``provided`` holds each query's caller-supplied
        kwargs, layered over :meth:`_query_kwargs_for`.  Every result
        is bit-identical to the single-shot plan; the simulated time
        treats every wave boundary as a cluster barrier.
        """
        start = time.perf_counter()
        kwargs_list = [{**self._query_kwargs_for(query, kwargs), **kwargs}
                       for query, kwargs in zip(queries, provided)]
        results, wave_timings, report = self._planner(
            options, registry).execute_batch(
            self._require_parts(), queries, k, kwargs_list,
            make_task=lambda rp, group, kws, shares: _LocalMultiTopKTask(
                rp, group, k, kws, share_groups=shares),
            hints=self._workload_hints(
                self.num_partitions,
                queries_per_task=max(len(queries), 1)))
        self.context.record_timings(wave_timings)
        wall = time.perf_counter() - start
        schedule = simulate_schedule_waves(wave_timings, self.cluster_spec)
        return BatchOutcome(
            results=results, wall_seconds=wall,
            simulated_seconds=schedule.makespan,
            schedule=schedule, plan=report,
            complete=report.complete,
            exact=[plan.exact for plan in report.per_query],
            failed_partitions=[list(plan.failed_partitions)
                               for plan in report.per_query],
            task_seconds=[t.seconds for t in self.context.last_timings])

    def calibrate(self, query: Trajectory | None = None,
                  k: int = 10) -> float:
        """Calibrate the ``"auto"`` cost model on this machine.

        Times one real local top-k of ``query``
        (:meth:`_calibration_task`) through
        :meth:`~repro.cluster.engine.ExecutionEngine.calibrate`,
        replacing the dev-box ballpark constant for this engine's
        measure, and persists the measured rates on the cluster
        context so they outlive the engine.  Returns the measured
        per-point rate in microseconds.
        """
        task, points = self._calibration_task(query, k)
        rate = self.context.engine.calibrate(self.measure_hint, task, points,
                                             kernels=self.kernels_hint)
        self.context.calibration = dict(
            self.context.engine.calibrated_cost_us)
        return rate

    def _calibration_task(self, query: Trajectory | None,
                          k: int) -> tuple[Callable, int]:
        """The task :meth:`calibrate` times — a local top-k of ``query``
        (default: the partition's first trajectory) against the largest
        partition — and that partition's point count."""
        parts = [rp for rp in self._require_parts() if rp.trajectories]
        if not parts:
            raise IndexNotBuiltError("cannot calibrate an empty dataset")
        rp = max(parts, key=lambda rp: sum(len(t) for t in rp.trajectories))
        if query is None:
            query = rp.trajectories[0]
        task = _LocalTopKTask(rp, query, k, self._query_kwargs_for(query))
        return task, sum(len(t) for t in rp.trajectories)

    def top_k_batch(self, queries: list[Trajectory], k: int,
                    plan: str | None = None,
                    plan_options: dict | None = None,
                    registry=None) -> BatchOutcome:
        """Run a batch of queries under one coordinated plan.

        ``plan="waves"`` routes the whole batch
        through the wave loop :meth:`top_k` runs at width one
        (:class:`~repro.cluster.batch.BatchQueryPlanner`): every
        (query, partition) pair is probed once (served from the
        context's epoch-invalidated probe cache on repeats), queries
        are grouped by partition affinity so one dispatched task
        searches one partition for a whole group, and a per-query
        running ``dk`` vector — cross-tightened by the triangle
        inequality for metric measures — is broadcast between waves.
        With ``plan_options={"share_eps": eps}`` *near-duplicate*
        queries (within ``eps`` of a share-group representative) skip
        their own probe pass and adopt the representative's wave plan,
        marching through shared partition tasks and leaf tensors while
        still being refined exactly.  All of the planner's driver-side
        query scans run against the VP-tree metric index of
        :mod:`repro.cluster.query_index`, so cross-query reuse has no
        batch-width cap.  ``plan="single"`` runs the queries
        sequentially, each as the paper's one-shot fan-out.  Both
        plans return one merged result per query, bit-identical to
        running that query alone.
        ``plan_options`` overrides the engine-level planner knobs for
        this call.

        ``registry`` optionally passes a
        :class:`~repro.cluster.service.HotQueryRegistry` persisting
        exact final results *across* batches (the serving layer
        threads one through every micro-batch): recurring and
        near-duplicate queries are seeded with certified thresholds
        and exact results are stored back.  Only the ``"waves"`` plan
        consults it.
        """
        self._require_parts()
        plan_options = self._validate_plan_options(plan_options)
        if self._resolve_plan(plan) == "waves":
            return self._top_k_waves(
                queries, k, [{}] * len(queries),
                options={**self.plan_options, **plan_options},
                registry=registry)
        start = time.perf_counter()
        outcomes = [self.top_k(query, k, plan="single")
                    for query in queries]
        wall = time.perf_counter() - start
        return BatchOutcome(
            results=[outcome.result for outcome in outcomes],
            wall_seconds=wall,
            # Sequential per-query execution: the batch's simulated
            # time chains the per-query makespans.
            simulated_seconds=sum(outcome.simulated_seconds
                                  for outcome in outcomes),
            schedule=None)

    def range_query(self, query: Trajectory, radius: float,
                    plan: str | None = None,
                    **query_kwargs) -> QueryOutcome:
        """Distributed range search: every trajectory within ``radius``.

        Supported when the local index exposes ``range_query`` (the
        RP-Trie adapter does; the baselines are top-k only).  Per-query
        driver state (:meth:`_query_kwargs_for`) is shared with every
        partition, as in :meth:`top_k`.  Under the default
        ``plan="waves"`` the probe phase skips partitions whose
        first-level bound already exceeds the radius (the radius being
        a fixed threshold, nothing propagates between waves); results
        are identical either way.
        """
        self._require_parts()
        if self._resolve_plan(plan) == "waves":
            return self._range_waves(query, radius, query_kwargs)
        start = time.perf_counter()
        self.context.hints = self._workload_hints(self.num_partitions)
        query_kwargs = {**self._query_kwargs_for(query, query_kwargs),
                        **query_kwargs}
        partials = (self._rdd
                    .map_partitions(_RangePartition(query, radius,
                                                    query_kwargs))
                    .collect())
        timings = self.context.last_timings
        result = merge_range(partials)
        result.stats.waves = 1
        wall = time.perf_counter() - start
        schedule = simulate_schedule(timings, self.cluster_spec)
        return QueryOutcome(result=result, wall_seconds=wall,
                            simulated_seconds=schedule.makespan,
                            per_partition_seconds=[t.seconds for t in timings],
                            schedule=schedule)

    def _range_waves(self, query: Trajectory, radius: float,
                     query_kwargs: dict) -> QueryOutcome:
        """Probed, waved range search (planner-skipped partitions)."""
        start = time.perf_counter()
        parts = self._parts
        kwargs = {**self._query_kwargs_for(query, query_kwargs),
                  **query_kwargs}
        partials, wave_timings, report = self._planner().execute_range(
            parts, query, radius, kwargs,
            make_task=lambda rp, kw: _LocalRangeTask(rp, query, radius, kw),
            hints=self._workload_hints(self.num_partitions))
        self.context.record_timings(wave_timings)
        timings = self.context.last_timings
        result = merge_range(partials)
        result.stats.waves = len(report.waves)
        result.stats.partitions_skipped = report.partitions_skipped
        wall = time.perf_counter() - start
        schedule = simulate_schedule_waves(wave_timings, self.cluster_spec)
        return QueryOutcome(result=result, wall_seconds=wall,
                            simulated_seconds=schedule.makespan,
                            per_partition_seconds=[t.seconds for t in timings],
                            schedule=schedule,
                            plan=report,
                            complete=report.complete,
                            exact=report.exact,
                            failed_partitions=list(report.failed_partitions))

    def index_bytes(self) -> int:
        """Bytes of the local indexes built so far: the default plan's,
        plus those another plan built on first use."""
        self._require_built()
        return self.build_report.index_bytes

    def local_indexes(self) -> list[object]:
        """The per-partition local index objects, in partition order."""
        return [rp.index for rp in self._require_parts()]

    def insert(self, traj: Trajectory) -> None:
        """Route a new trajectory to the smallest partition and insert.

        Requires the local index to support incremental ``insert``
        (the RP-Trie adapter does).  Subsequent queries see the new
        trajectory; the build report's partition sizes are updated.
        Partitions not built yet get it when they are.
        """
        self._require_built()
        sizes = self.build_report.partition_sizes
        target = min(range(len(sizes)), key=lambda pid: sizes[pid])
        if self._parts is not None:
            rp = self._parts[target]
            rp.index.insert(traj)
            rp.trajectories.append(traj)
        self._partitions[target].append(traj)
        sizes[target] += 1
        # The mutated partition's bounds changed: memoized probes for
        # every in-flight fingerprint are stale.
        self.context.probe_cache.bump_epoch()

    def serve(self, **service_options):
        """An always-on async micro-batching service over this engine.

        Returns an (unstarted)
        :class:`~repro.cluster.service.ReposeService`; keyword options
        (``max_wait_ms``, ``max_batch``, ``plan_options``,
        ``dispatch``, registry knobs, ...) are forwarded to its
        constructor.  Requires a built index.  Use it from an event
        loop::

            service = engine.serve(max_wait_ms=2.0, max_batch=16)
            outcome = await service.top_k(query, k=10)
            await service.stop()
        """
        # Imported lazily: repro.cluster.service imports this module
        # for QueryOutcome, so a top-level import would be circular.
        from .cluster.service import ReposeService
        self._require_built()
        return ReposeService(self, **service_options)


class Repose(DistributedTopK):
    """The REPOSE framework (paper, Sections III-V).

    Use :meth:`Repose.build` to construct a ready-to-query engine::

        engine = Repose.build(dataset, measure="hausdorff", delta=0.15)
        outcome = engine.top_k(query, k=100)

    Besides the partitioned plans, REPOSE has plan ``"trie"``: one
    RP-Trie over the whole dataset — pivots and partitions stay global,
    the trie's store lists the trajectories partition by partition —
    answering top-k, batches, range queries and inserts in the driver
    through the same :func:`~repro.core.search.local_search` family.
    It is the default on every engine backend (the trie is searched in
    the driver; the partitioned plans are the emulation of the paper's
    cluster); whichever structure the default plan does not use is
    built on first use.
    """

    _PLANS = ("trie", "waves", "single")

    def __init__(self, dataset: TrajectoryDataset, measure: Measure,
                 grid: Grid, **kwargs):
        self.measure = measure
        self.grid = grid
        self._pivot_box: list = [kwargs.pop("pivots", [])]
        optimized = kwargs.pop("optimized", True)
        num_pivots = kwargs.pop("num_pivots", 5)
        succinct = kwargs.pop("succinct", False)
        search_options = kwargs.pop("search_options", None)
        self._kernels = (search_options or {}).get("kernels")

        # functools.partial over a module-level function (not a
        # closure) keeps the factory picklable for the process
        # execution backend; the pivot box keeps the binding live.
        factory = functools.partial(
            _make_rptrie_index, grid, measure, optimized, num_pivots,
            succinct, search_options, self._pivot_box)
        kwargs.setdefault("measure_hint", measure.name)
        self._trie_index: RPTrieLocalIndex | None = None
        super().__init__(dataset, factory, **kwargs)

    # -- the one-trie plan ---------------------------------------------------

    def _build_indexes(self) -> list[TaskTiming]:
        """The one trie under plan ``"trie"``, else the partitions."""
        self._trie_index = None
        if self.plan != "trie":
            return super()._build_indexes()
        self._rdd = self._parts = None
        start = time.perf_counter()
        self._trie_index = self._build_trie()
        return [TaskTiming(0, time.perf_counter() - start)]

    def _build_trie(self) -> RPTrieLocalIndex:
        """One RP-Trie over every partition's trajectories.  Its store
        lists them partition by partition: a scan over it then gathers
        what a scan over the partitions' stores would."""
        index = self.index_factory()
        index.build([t for part in self._partitions for t in part])
        return index

    def _require_trie(self) -> RPTrieLocalIndex:
        """The one trie, built on first use when the default plan did
        not need it (its bytes then join :meth:`index_bytes`)."""
        self._require_built()
        if self._trie_index is None:
            self._trie_index = self._build_trie()
            self.build_report.index_bytes = self._index_bytes()
        return self._trie_index

    def _calibration_task(self, query: Trajectory | None,
                          k: int) -> tuple[Callable, int]:
        """Under plan ``"trie"``: a top-k of ``query`` (default: the
        first trajectory) on the one trie, and the whole dataset's point
        count — calibrating builds no partition tries the plan never
        searches.  A one-trie search prunes more per point than a
        partition's, so the rate reads low for partition tasks; the
        cost model only needs its order of magnitude."""
        if self.plan != "trie":
            return super()._calibration_task(query, k)
        index = self._require_trie()
        trajectories = [t for part in self._partitions for t in part]
        if not trajectories:
            raise IndexNotBuiltError("cannot calibrate an empty dataset")
        if query is None:
            query = trajectories[0]
        kwargs = self._query_kwargs_for(query)
        return (lambda: index.top_k(query, k, **kwargs),
                sum(len(t) for t in trajectories))

    def _index_bytes(self) -> int:
        trie = self._trie_index
        return super()._index_bytes() + (
            trie.memory_bytes() if trie is not None else 0)

    def local_indexes(self) -> list[object]:
        """The local indexes the default plan answers from: the one
        trie's under ``"trie"``, else one per partition."""
        if self.plan == "trie":
            return [self._require_trie()]
        return super().local_indexes()

    def insert(self, traj: Trajectory) -> None:
        """Insert into the one trie (when built) and the partitions."""
        self._require_built()
        if self._trie_index is not None:
            self._trie_index.insert(traj)
        super().insert(traj)

    def top_k(self, query: Trajectory, k: int, plan: str | None = None,
              **query_kwargs) -> QueryOutcome:
        """Top-k; plan ``"trie"`` answers from the one trie as a batch
        of one, the other plans are :meth:`DistributedTopK.top_k`'s."""
        if self._resolve_plan(plan) != "trie":
            return super().top_k(query, k, plan=plan, **query_kwargs)
        return self._top_k_trie([query], k, [query_kwargs]).query_outcome(0)

    def top_k_batch(self, queries: list[Trajectory], k: int,
                    plan: str | None = None,
                    plan_options: dict | None = None,
                    registry=None) -> BatchOutcome:
        """A batch under one plan; see :meth:`DistributedTopK.top_k_batch`
        and, for plan ``"trie"``, :meth:`_top_k_trie`."""
        if self._resolve_plan(plan) != "trie":
            return super().top_k_batch(queries, k, plan=plan,
                                       plan_options=plan_options,
                                       registry=registry)
        plan_options = self._validate_plan_options(plan_options)
        return self._top_k_trie(queries, k, [{}] * len(queries),
                                options={**self.plan_options, **plan_options},
                                registry=registry)

    def _top_k_trie(self, queries: list[Trajectory], k: int,
                    provided: list[dict], options: dict | None = None,
                    registry=None) -> BatchOutcome:
        """Top-k for a batch from the one trie.

        One :func:`~repro.core.search.local_search_multi` call over the
        distinct queries (fingerprint twins are searched once), each
        seeded with its hot-query ``registry`` threshold when it has one
        (:meth:`~repro.cluster.batch.BatchQueryPlanner.execute_local`).
        ``provided`` holds each query's caller-supplied kwargs, layered
        over :meth:`_query_kwargs_for` as in the other plans.
        """
        start = time.perf_counter()
        index = self._require_trie()
        kwargs_list = [{**self._query_kwargs_for(query, kwargs), **kwargs}
                       for query, kwargs in zip(queries, provided)]
        results, report = self._planner(options, registry).execute_local(
            lambda group, group_kwargs: index.top_k_multi(group, k,
                                                          group_kwargs),
            queries, k, kwargs_list)
        wall = time.perf_counter() - start
        schedule = simulate_schedule([TaskTiming(0, wall)], self.cluster_spec)
        return BatchOutcome(
            results=results, wall_seconds=wall,
            simulated_seconds=schedule.makespan, schedule=schedule,
            plan=report, exact=[plan.exact for plan in report.per_query],
            failed_partitions=[[] for _ in queries], task_seconds=[wall])

    def range_query(self, query: Trajectory, radius: float,
                    plan: str | None = None,
                    **query_kwargs) -> QueryOutcome:
        """Range search; plan ``"trie"`` answers from the one trie, the
        other plans are :meth:`DistributedTopK.range_query`'s."""
        if self._resolve_plan(plan) != "trie":
            return super().range_query(query, radius, plan=plan,
                                       **query_kwargs)
        start = time.perf_counter()
        index = self._require_trie()
        kwargs = {**self._query_kwargs_for(query, query_kwargs),
                  **query_kwargs}
        result = index.range_query(query, radius, **kwargs)
        wall = time.perf_counter() - start
        schedule = simulate_schedule([TaskTiming(0, wall)], self.cluster_spec)
        return QueryOutcome(result=result, wall_seconds=wall,
                            simulated_seconds=schedule.makespan,
                            per_partition_seconds=[wall], schedule=schedule,
                            plan=PlanReport(mode="trie", wave_size=0))

    @property
    def pivots(self) -> list[Trajectory]:
        """Global pivot trajectories shared with every partition."""
        return self._pivot_box[0]

    @pivots.setter
    def pivots(self, value: list[Trajectory]) -> None:
        self._pivot_box[0] = value

    def _query_kwargs_for(self, query: Trajectory,
                          provided: dict | None = None) -> dict:
        """Driver computes the query-pivot distances once (pivots are
        global) and shares them with every partition's local search
        (paper, Section IV-D).  Routing this through the base class hook
        covers single queries, batches and range queries, so
        no partition ever recomputes ``dqp``.  A caller-supplied ``dqp``
        is respected without recomputation."""
        if (self.pivots and self.measure.is_metric
                and not (provided and "dqp" in provided)):
            return {"dqp": query_pivot_distances(
                self, self.measure, query, self._kernels)}
        return {}

    def _query_distance_fn(self) -> Callable | None:
        """Metric measures certify cross-query threshold reuse: the k
        results query ``i`` holds lie within ``dk_i + d(q_i, q_j)`` of
        query ``j`` by the triangle inequality, so that sum soundly
        upper-bounds ``j``'s final k-th best.  Non-metric measures
        (DTW/EDR/LCSS) return None — each such query is pruned by its
        own bounds only."""
        if self.measure.is_metric:
            return self.measure.distance
        return None

    def _share_distance_fn(self) -> Callable:
        """Near-duplicate clustering distance: always the measure's own
        distance — clustering needs similarity under the *query*
        measure, not a metric (the planner restores soundness of the
        adopted plans per measure)."""
        return self.measure.distance

    @classmethod
    def build(cls, dataset: TrajectoryDataset,  # type: ignore[override]
              measure: Measure | str = "hausdorff",
              delta: float | None = None, num_partitions: int = 64,
              strategy: str | Callable = "heterogeneous",
              optimized: bool = True, num_pivots: int = 5,
              succinct: bool = False,
              cluster_spec: ClusterSpec | None = None,
              engine: ExecutionEngine | str | None = None,
              search_options: dict | None = None,
              kernels: str | None = None,
              plan: str | None = None, plan_options: dict | None = None,
              fault_policy: FaultPolicy | None = None,
              pivot_sample: int = 500, seed: int = 7,
              service: dict | bool | None = None) -> "Repose":
        """Construct and build a REPOSE engine in one call.

        ``delta`` defaults to 1/128 of the dataset's smaller span.
        Global pivots are selected once, driver-side, from a sample of
        ``pivot_sample`` trajectories, then shared by every partition.

        Parameters worth calling out:

        plan:
            Query execution plan.  ``"trie"`` (the default) answers
            from one RP-Trie over the whole dataset, in the driver.
            ``"waves"`` and ``"single"`` emulate the paper's
            distributed setup, dispatching partition tasks to the
            engine: the two-phase planner — probe partitions, dispatch
            by promise in waves, broadcast the tightening global
            ``dk`` — or the paper's one-shot fan-out.  Answers agree
            under every plan up to which candidates tied at the k-th
            distance are kept (waves and single are bit-identical).
            ``plan_options={"wave_size": n}`` controls partitions per
            wave; ``plan_options={"share_eps": eps}`` additionally lets
            :meth:`top_k_batch` share probe/wave plans and leaf
            tensors between near-duplicate batch queries, and the hot-
            query registry seed near duplicates.
        engine:
            Execution backend for the partitioned plans' partition
            tasks.  Accepts an
            :class:`~repro.cluster.engine.ExecutionEngine` or a backend
            name; ``engine="auto"`` lets a small cost model pick
            serial/thread/process per dispatch from the measure,
            partition size and batch width (results are identical
            under every backend — only placement changes).  Default:
            serial, the deterministic choice.
        fault_policy:
            Optional :class:`~repro.cluster.engine.FaultPolicy`
            making partition tasks retry with backoff, time out
            against the calibrated cost model and optionally
            speculate; queries then degrade to flagged partial results
            instead of raising when a partition exhausts every retry.
        search_options:
            Per-partition search keyword arguments, forwarded to
            :func:`~repro.core.search.local_search`: the ablation
            switches ``use_pivots``/``use_lbt``/``use_lbo``.
        kernels:
            DP kernel backend for the batch refinement engine
            (:mod:`repro.distances.kernels`): ``"numpy"`` (the
            always-available vectorized sweeps), ``"cnative"`` (the
            compiled tier), or ``"auto"``/None (the
            fastest available; the ``REPRO_KERNELS`` environment
            variable overrides the auto choice).  Requesting an
            unavailable backend raises at build time.  Backends never
            change results — the compiled kernels are bit-identical to
            the numpy sweeps — only throughput; the resolved name is
            also forwarded to the ``"auto"`` engine's cost model,
            which keys calibrated rates by measure+backend.
        service:
            Attach an always-on serving front-end
            (:class:`~repro.cluster.service.ReposeService`) to the
            built engine as ``engine.service``: ``True`` with
            defaults, or a dict of service constructor options
            (``max_wait_ms``, ``max_batch``, ``dispatch``, ...).  The
            service is created unstarted — start it from an event
            loop (``await engine.service.start()`` or ``async with``).
        """
        measure_obj = get_measure(measure) if isinstance(measure, str) else measure
        box = dataset.bounding_box()
        if delta is None:
            delta = max(min(box.width, box.height) / 128.0, 1e-9)
        grid = Grid.fit(box, delta)

        pivots: list[Trajectory] = []
        if measure_obj.is_metric and num_pivots > 0 and len(dataset) > 0:
            rng = np.random.default_rng(seed)
            size = min(pivot_sample, len(dataset))
            index = rng.choice(len(dataset.trajectories), size=size,
                               replace=False)
            sample = [dataset.trajectories[int(i)] for i in index]
            pivots = select_pivots(sample, measure_obj,
                                   num_pivots=num_pivots, rng=rng)

        if kernels is not None:
            search_options = {**(search_options or {}), "kernels": kernels}
        # Resolve the backend batch refinement will actually run with
        # (fails fast on an unavailable explicit request) so the
        # "auto" engine's cost model keys its rates by it.
        kernels_hint = resolve_backend(
            (search_options or {}).get("kernels"))

        engine_obj = cls(dataset, measure_obj, grid,
                         pivots=pivots, optimized=optimized,
                         num_pivots=num_pivots, succinct=succinct,
                         strategy=strategy, num_partitions=num_partitions,
                         cluster_spec=cluster_spec, engine=engine,
                         search_options=search_options,
                         kernels_hint=kernels_hint,
                         plan=plan, plan_options=plan_options,
                         fault_policy=fault_policy)
        DistributedTopK.build(engine_obj)
        if service:
            engine_obj.service = engine_obj.serve(
                **(service if isinstance(service, dict) else {}))
        return engine_obj


def make_baseline(name: str, dataset: TrajectoryDataset,
                  measure: Measure | str, num_partitions: int = 64,
                  strategy: str | Callable = "homogeneous",
                  cluster_spec: ClusterSpec | None = None,
                  engine: ExecutionEngine | str | None = None,
                  **index_kwargs) -> DistributedTopK:
    """Distributed engine for a baseline: "dft", "dita" or "ls".

    Baselines default to the homogeneous partitioning the original
    systems use; pass ``strategy="heterogeneous"`` for the Heter-DITA /
    Heter-DFT variants of Tables VIII and IX.  LS defaults to random
    partitioning (it has no locality to exploit).
    """
    from .baselines.dft import DFTIndex
    from .baselines.dita import DITAIndex
    from .baselines.linear import LinearScanIndex

    measure_obj = get_measure(measure) if isinstance(measure, str) else measure
    key = name.strip().lower()
    if key == "dft":
        factory = functools.partial(DFTIndex, measure_obj, **index_kwargs)
    elif key == "dita":
        factory = functools.partial(DITAIndex, measure_obj, **index_kwargs)
    elif key in ("ls", "linear"):
        factory = functools.partial(LinearScanIndex, measure_obj,
                                    **index_kwargs)
        if strategy == "homogeneous":
            strategy = "random"
    else:
        raise ValueError(f"unknown baseline {name!r} (use dft, dita or ls)")
    return DistributedTopK(dataset, factory, strategy=strategy,
                           num_partitions=num_partitions,
                           cluster_spec=cluster_spec, engine=engine,
                           measure_hint=measure_obj.name)
