"""The top-k wave loop at any batch width: shared probes,
partition-affinity dispatch, and cross-query threshold reuse.

:mod:`repro.cluster.planner` turns one query's fan-out into a
probe-then-waves feedback loop.  A production service, though,
receives *streams* of concurrent queries, and running each one as its
own wave plan dispatches ``queries x partitions`` tasks and lets no
query benefit from another's work.  This module is that loop for a
whole batch at once — and the only top-k wave loop there is: a single
query is a batch of one, for which every cross-query step below is
skipped:

1. **Shared probe pass.**  Every (query, partition) pair is probed once
   — through the driver's epoch-invalidated
   :class:`~repro.cluster.rdd.ProbeCache`, so repeated queries across
   consecutive batches pay nothing — producing per-query promise
   orders and wave cuts exactly as a lone query would get.
2. **Partition-affinity dispatch.**  Within each wave, queries bound
   for the same partition are *grouped*: one dispatched task searches
   one partition for the whole group through the multi-query entry
   point (:func:`repro.core.search.local_search_multi`), which shares
   one columnar gather per leaf and the store's per-measure caches
   across the group.  Skewed workloads — many queries hot on the same
   partitions — collapse to one task per (wave, partition) instead of
   one per (query, partition).  Each wave's tasks are submitted
   heaviest-estimated-group first
   (:func:`repro.cluster.scheduler.lpt_order`), so FIFO placement
   never leaves the biggest group straggling at the barrier.
3. **Per-query threshold vector, cross-query reuse.**  Between waves
   the driver folds every task's per-query partials into a
   :class:`~repro.cluster.driver.RunningTopKVector` and broadcasts the
   per-query running ``dk`` vector into the next wave.  For metric
   measures the vector is additionally tightened *across* queries by
   the triangle inequality (query ``j``'s final k-th best cannot
   exceed ``dk_i + d(q_i, q_j)``), so a query that has not yet filled
   its own heap can still skip partitions and seed its searches off a
   neighbour's results.

Fingerprint-identical queries inside a batch — the same trajectory
issued twice in one stream, a common production pattern — are
*deduplicated* outright: one representative executes and its twins
reuse the merged result, which is trivially bit-identical (a search's
answer is a pure function of the query's points and shared kwargs).

**Near-duplicate sharing** (``share_eps``) extends dedup to queries
that are *almost* repeated — jittered re-issues of a hot query, GPS
noise on the same route.  Active queries are greedily clustered into
*share groups* whose pairwise distance to the group representative
stays within ``share_eps``; members skip their own probe pass and
adopt the representative's promise order and wave cut, so the whole
group marches through the same (wave, partition) tasks and its leaf
tensors hit one shared gather store
(:class:`~repro.core.search._SharedGatherStore`, keyed per group so
finished groups can release memory).  Each member is still *searched
and refined exactly* with its own query points, ``dqp`` and
thresholds — sharing reuses plans and read-only tensors, never
answers.  For metric measures the adopted probe bounds are shifted
down by the member-to-representative distance (``d(member, t) >=
d(rep, t) - d(rep, member)``), keeping probe-based partition skipping
sound; for non-metric measures the adopted bounds carry no skipping
power (never wrong, just conservative).  Non-metric queries are
pruned by their own RP-Trie bounds only, as in the paper.

**The query-side metric index** (:mod:`repro.cluster.query_index`)
carries all of this to production batch widths: share clustering,
cross-query tightening and the registry's neighbor scan each run as
lookups against a VP-tree over the batch's queries — content
fingerprints pre-filter byte-identical queries before any distance
call, a shared pair cache deduplicates evaluations across the three
phases, and :data:`CROSS_QUERY_LIMIT` is each lookup's
fresh-distance-call budget, so cross-query reuse has no batch-width
cap.  A truncated lookup only forfeits an optimization: thresholds,
clusters and answers are value-identical to exhaustive scans wherever
the budgets never bind — the index only removes driver-side distance
calls, measured by the ``query_distance_calls`` report counter.

**Cross-batch reuse** extends both mechanisms beyond one batch: a
:class:`~repro.cluster.service.HotQueryRegistry` passed to the planner
persists exact final results keyed by probe fingerprint, so a query
recurring in a *later* batch is seeded with its previous final
threshold, and (metric measures) a near-duplicate of a stored
representative with a triangle bound — the serving layer
(:class:`~repro.cluster.service.ReposeService`) threads one registry
through every micro-batch of a query stream.

Every threshold is applied strictly and upper-bounds the query's final
k-th-best distance, and each query's merge is the single-query merge,
so every per-query answer is **bit-identical** to running that query
alone under ``plan="single"`` — property-tested for all six measures
in ``tests/test_batch_planner.py`` and fuzzed across random batch
mixes in ``tests/test_fuzz_equivalence.py``.  The batch only removes
work: fewer probes (caching, share-group adoption), fewer dispatched
tasks (grouping, dedup), fewer exact refinements (dedup, and earlier
tighter thresholds).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..core.search import PartitionProbe, SearchStats, TopKResult
from .driver import RunningTopKVector
from .engine import TaskTiming, WorkloadHints
from .planner import PlanReport, QueryPlanner, WaveState
from .query_index import QueryIndex
from .rdd import ProbeCache

__all__ = ["BatchPlanReport", "BatchQueryPlanner"]

#: Driver-side *distance-call budget* per query-index lookup: share
#: clustering, cross-query tightening and registry neighbor lookups
#: each spend at most this many fresh trajectory-distance evaluations
#: per query (:mod:`repro.cluster.query_index` truncates soundly — a
#: partial lookup only forfeits an optimization, never an answer).
CROSS_QUERY_LIMIT = 64

#: Per-query *fresh distance-call budget* for the hot-query registry's
#: near-duplicate neighbor lookup
#: (:meth:`repro.cluster.service.HotQueryRegistry.neighbors`), keeping
#: the per-miss cost bounded independently of registry capacity.  The
#: lookup reaches *every* live entry — cached and content-identical
#: comparisons are free.
REGISTRY_SCAN_LIMIT = 8


@dataclass
class BatchPlanReport:
    """One executed multi-query batch plan.

    Aggregates the batch-level counters (task grouping, probe-cache
    effectiveness, share groups, cross-query tightenings) and keeps one
    full single-query-style :class:`~repro.cluster.planner.PlanReport`
    per query, so per-query wave accounting (dispatched/skipped
    partitions, per-wave thresholds, pruned-node and exact-refinement
    counts) stays as inspectable as it is for single queries.
    """

    #: The plan that produced the report: ``"batch-waves"``, or
    #: ``"batch-trie"`` for :meth:`BatchQueryPlanner.execute_local`.
    mode: str = "batch-waves"
    #: Queries in the batch.
    num_queries: int = 0
    #: Partitions per wave each query's plan was cut into.
    wave_size: int = 0
    #: Near-duplicate sharing threshold in force (None: disabled).
    share_eps: float | None = None
    #: Driver-side seconds spent probing (all queries).
    probe_seconds: float = 0.0
    #: Multi-query partition tasks actually dispatched — the number a
    #: per-query plan would inflate to ``sum of per-query dispatches``.
    tasks_dispatched: int = 0
    #: Sum over dispatched tasks of their group width; divided by
    #: :attr:`tasks_dispatched` this is the mean queries-per-task the
    #: grouping achieved (1.0 means no affinity was found).
    grouped_queries: int = 0
    #: Queries whose broadcast threshold was tightened below their own
    #: running ``dk`` by a neighbour's results through the triangle
    #: inequality (summed over waves; metric measures only).
    cross_query_tightenings: int = 0
    #: Driver-side trajectory-distance evaluations between *queries*
    #: (share clustering, cross-query tightening, registry neighbor
    #: lookups) — fresh calls only, so pair-cache and content-identity
    #: hits are free.  The number the metric query index exists to
    #: shrink.
    query_distance_calls: int = 0
    #: Queries that were fingerprint-identical to an earlier batch
    #: member and reused its merged result without executing.
    queries_deduplicated: int = 0
    #: Near-duplicate share groups with at least two members.
    share_groups: int = 0
    #: Queries that adopted a share-group representative's probe and
    #: wave plan instead of probing themselves (excludes the
    #: representatives, which plan normally).
    queries_shared: int = 0
    #: Probe-cache lookups served / computed during the batch's probe
    #: pass (share-group members perform no lookups at all).
    probe_cache_hits: int = 0
    probe_cache_misses: int = 0
    #: Queries whose threshold was seeded from a hot-query registry
    #: entry with an identical fingerprint (a recurring query across
    #: batches starting under its previous final ``dk``).
    registry_hits: int = 0
    #: Queries seeded from a stored *near-duplicate* representative —
    #: a registry entry within ``share_eps`` — through the metric
    #: triangle bound.
    registry_neighbor_seeds: int = 0
    #: Exact, complete per-query results this batch persisted into the
    #: hot-query registry for later batches to seed from.
    registry_stores: int = 0
    #: Per-query plan reports, aligned with the input queries.
    per_query: list[PlanReport] = field(default_factory=list)
    #: Engine-level task re-dispatches consumed across the batch.
    #: Counted once per *task* (a grouped task serves several queries),
    #: so these batch totals are not the sum of any per-query number.
    retries: int = 0
    #: Task attempts abandoned at the per-task deadline.
    timeouts: int = 0
    #: Tasks whose speculative duplicate beat the original straggler.
    speculative_wins: int = 0

    @property
    def complete(self) -> bool:
        """True when no query lost a partition terminally."""
        return all(plan.complete for plan in self.per_query)

    @property
    def partition_queries_dispatched(self) -> int:
        """Total (query, partition) searches executed — the work the
        thresholds could not prove away, however it was grouped."""
        return sum(len(w.partitions) for plan in self.per_query
                   for w in plan.waves)

    @property
    def partitions_skipped(self) -> int:
        """Total (query, partition) searches skipped via probe bounds."""
        return sum(plan.partitions_skipped for plan in self.per_query)


@dataclass
class _RegistryPass:
    """One batch's use of the hot-query registry: the seeds read before
    the search and what is needed to store results back after it."""

    #: Certified per-query seed thresholds (None when nothing seeded).
    seeds: np.ndarray | None
    #: query -> registry key, for the queries eligible to seed/store.
    fingerprints: dict[int, bytes]
    #: The registry epoch the batch started under; stores carry it.
    epoch: int
    stores_before: int


@dataclass
class _BatchRun:
    """One :meth:`BatchQueryPlanner.execute_batch` call's state, handed
    from step to step."""

    parts: Sequence
    queries: Sequence
    k: int
    kwargs_list: Sequence[dict]
    make_task: Callable
    hints: WorkloadHints | None
    report: BatchPlanReport
    #: ``alias[qi]``: the query whose merged result ``qi`` reuses —
    #: itself unless it is a fingerprint twin of an earlier query.
    alias: list[int]
    #: The queries that execute (everything but the twins).
    active: list[int]
    #: Pair distances share clustering evaluated, keyed ``(min, max)``.
    known: dict[tuple[int, int], float]
    #: query -> its share group's gather-store key (the representative
    #: index, representative included), or None when unshared.
    share_label: dict[int, int | None]
    state: WaveState
    merges: RunningTopKVector
    #: The batch's hot-query registry pass (None: no registry).
    registry: _RegistryPass | None = None
    #: VP-tree over the active queries behind triangle tightening,
    #: built by the first wave that can use it.
    cross_index: QueryIndex | None = None

    @property
    def coupled(self) -> bool:
        """Whether one query's work can tighten another's threshold."""
        return len(self.active) > 1


class BatchQueryPlanner(QueryPlanner):
    """Plan and execute top-k queries in threshold-coupled waves.

    The one top-k wave loop, at any batch width: a single query is a
    batch of one.  Extends :class:`~repro.cluster.planner.QueryPlanner`
    (whose probe / promise-order / wave-cut primitives, wave builder
    and failure fold are reused per query) with partition-affinity task
    grouping, near-duplicate share groups and the per-query threshold
    vector.  Like its parent it is index-agnostic: grouping requires
    nothing of the index (the driver's task factory decides how a group
    is executed — REPOSE's uses ``top_k_multi``, baselines fall back to
    a per-query loop inside the task), probing and threshold seeding
    remain duck-typed capabilities.

    Parameters
    ----------
    engine, wave_size, probe_cache:
        As for :class:`~repro.cluster.planner.QueryPlanner`.
    query_distance:
        Optional metric ``distance(query_a, query_b)`` used for
        cross-query threshold reuse and for shifting share-group
        members' adopted probe bounds.  Pass None (the default) for
        non-metric measures — triangle reuse is then disabled and
        adopted probe bounds never skip.
    share_eps:
        Near-duplicate sharing threshold: active queries within this
        distance of a share-group representative adopt its probe and
        wave plan.  None (the default) disables sharing.
    share_distance:
        ``distance(query_a, query_b)`` used to *cluster* near
        duplicates.  Unlike ``query_distance`` it needs no metric
        property (clustering only shares plans, whose soundness is
        restored separately), so drivers pass the measure's own
        distance for every measure.  Required for ``share_eps`` to
        take effect.
    registry:
        Optional :class:`~repro.cluster.service.HotQueryRegistry`
        (duck-typed: ``epoch``, ``get``, ``neighbors``, ``put``)
        persisting exact final results *across* batches.  Before the
        waves run, each active query is seeded with a certified upper
        bound on its final k-th best — its own stored final threshold
        on an exact fingerprint hit, or (metric measures) a triangle
        bound against a stored near-duplicate representative within
        ``share_eps`` — folded into the broadcast vector from wave 0.
        After the waves, exact complete results are stored back under
        the batch-*start* epoch, so results raced by a concurrent
        index write are dropped rather than served stale.  None (the
        default) disables cross-batch reuse.
    """

    def __init__(self, engine, wave_size: int | None = None,
                 probe_cache=None,
                 query_distance: Callable | None = None,
                 share_eps: float | None = None,
                 share_distance: Callable | None = None,
                 registry=None):
        super().__init__(engine, wave_size=wave_size,
                         probe_cache=probe_cache)
        self.query_distance = query_distance
        self.share_eps = share_eps
        self.share_distance = share_distance
        self.registry = registry

    @property
    def _share_distance_is_metric(self) -> bool:
        """True when clustering distances are also metric distances.

        Share-group clustering may run under *any* distance, but two
        reuses require the clustered value to be the same metric
        distance :attr:`query_distance` certifies with: prepaying the
        triangle-tightening index's pair distances, and shifting a
        member's adopted probe bounds.  Equality (not identity) so
        drivers returning a fresh bound method per call —
        ``measure.distance`` — still qualify; any mismatch simply
        forfeits the two reuses, never soundness.
        """
        return (self.query_distance is not None
                and self.share_distance == self.query_distance)

    # -- the loop ------------------------------------------------------------

    def execute_batch(self, parts: Sequence, queries: Sequence, k: int,
                      kwargs_list: Sequence[dict],
                      make_task: Callable[[object, list, list, list],
                                          Callable],
                      hints: WorkloadHints | None = None,
                      ) -> tuple[list[TopKResult],
                                 list[list[TaskTiming]], BatchPlanReport]:
        """Run a batch of top-k queries as one grouped wave plan.

        ``make_task(rp, group_queries, group_kwargs, group_shares)``
        builds one engine task searching partition record ``rp`` for
        every query in the group (kwargs and share-group labels
        aligned with the group; a label is the share group's
        representative index, or None for unshared queries).  The task
        must return one :class:`~repro.core.search.TopKResult` per
        group query, in order.  Returns the per-query merged results
        (input order, each bit-identical to single-shot execution
        whenever its plan reports ``complete``), the per-wave task
        timings, and the :class:`BatchPlanReport`.

        The steps, in order: *dedup* fingerprint twins; *share-cluster*
        near duplicates; *probe/plan* every remaining query;
        *registry-seed* thresholds from earlier batches; then per wave
        *build* (thresholds, skips, grouped tasks) and *fold*
        (merge partials, re-enqueue failures); *finalise* verdicts,
        registry stores and twins.  Everything that couples one query
        to another — share groups and triangle tightening —
        runs only with two or more active queries, and registry steps
        only with a registry attached, so a batch of one pays for none
        of it.

        A task that failed terminally re-enqueues its (partition,
        query) pairs into re-dispatch waves appended after the planned
        ones — where the by-then tighter per-query thresholds may skip
        them soundly — and pairs that exhaust the planner budget too
        land on that query's ``failed_partitions`` with a per-query
        exactness verdict, instead of aborting the batch.
        """
        start = time.perf_counter()
        report = BatchPlanReport(num_queries=len(queries),
                                 share_eps=self.share_eps)
        alias = self._dedup(queries, kwargs_list, report)
        active = [qi for qi, rep in enumerate(alias) if rep == qi]
        rep_of, dist_to_rep, known = {qi: qi for qi in active}, {}, {}
        if len(active) > 1:
            rep_of, dist_to_rep, known = self._share_clusters(
                queries, active, report)
        state = self._plan_batch(parts, queries, kwargs_list, alias,
                                 rep_of, dist_to_rep, report)
        report.probe_seconds = time.perf_counter() - start
        # The whole share group — representative included — shares one
        # gather-store key.
        in_group = {rep for qi, rep in rep_of.items() if rep != qi}
        run = _BatchRun(
            parts=parts, queries=queries, k=k, kwargs_list=kwargs_list,
            make_task=make_task, hints=hints, report=report, alias=alias,
            active=active, known=known,
            share_label={qi: (rep_of[qi] if rep_of[qi] in in_group
                              else None) for qi in active},
            state=state, merges=RunningTopKVector(len(queries), k))
        if self.registry is not None:
            run.registry = self._registry_seeds(queries, kwargs_list,
                                                active, k, report)
        _, wave_timings = self.engine.run_waves(
            self._wave_stream(state,
                              functools.partial(self._wave_tasks, run)),
            hints=hints, on_wave=functools.partial(self._fold_wave, run))
        return self._finalise(run), wave_timings, report

    # -- step: dedup ---------------------------------------------------------

    def _dedup(self, queries: Sequence, kwargs_list: Sequence[dict],
               report: BatchPlanReport) -> list[int]:
        """Alias fingerprint-identical queries to their first occurrence.

        Returns ``alias`` with ``alias[qi]`` the index of the query
        ``qi`` will reuse the result of (itself for representatives).
        Queries only deduplicate when their points and every shared
        kwarg fingerprint identically (:meth:`_dedup_key`); anything
        unfingerprintable runs on its own.
        """
        alias = list(range(len(queries)))
        seen: dict = {}
        for qi, (query, kwargs) in enumerate(zip(queries, kwargs_list)):
            key = self._dedup_key(query, kwargs)
            if key is None:
                continue
            representative = seen.setdefault(key, qi)
            if representative != qi:
                alias[qi] = representative
                report.queries_deduplicated += 1
        return alias

    @staticmethod
    def _dedup_key(query, kwargs: dict):
        """Content key two queries must share to be interchangeable.

        The point-array (and ``dqp``) fingerprint comes from
        :meth:`~repro.cluster.rdd.ProbeCache.fingerprint`; remaining
        kwargs participate only when they are plain scalars, whose
        equality is unambiguous — any richer kwarg disables dedup for
        safety (None return)."""
        fingerprint = ProbeCache.fingerprint(query, kwargs.get("dqp"))
        if fingerprint is None:
            return None
        extra = sorted((key, value) for key, value in kwargs.items()
                       if key != "dqp")
        for _, value in extra:
            if not isinstance(value, (int, float, str, bool, type(None))):
                return None
        return (fingerprint, tuple(extra))

    # -- step: share-cluster -------------------------------------------------

    def _share_clusters(self, queries: Sequence, active: Sequence[int],
                        report: BatchPlanReport,
                        ) -> tuple[dict[int, int], dict[int, float],
                                   dict[tuple[int, int], float]]:
        """Cluster active queries into near-duplicate share groups.

        Walks the active queries in input order; each joins the
        earliest existing representative within :attr:`share_eps`
        under :attr:`share_distance`, else becomes a representative
        itself — deterministic, and every representative precedes its
        members.  Returns ``(rep_of, dist_to_rep, known)``: each active
        query's representative (itself for reps), each member's exact
        distance to its representative, and every pair distance
        evaluated along the way (keyed ``(min, max)``; triangle
        tightening reuses them only under
        :attr:`_share_distance_is_metric`).  Queries without a point
        array never cluster (nothing to compare).

        The representatives live in a
        :class:`~repro.cluster.query_index.QueryIndex` and each query
        is one range lookup — triangle-pruned when the clustering
        distance is the metric distance, an early-stopping linear scan
        otherwise, either way at most :data:`CROSS_QUERY_LIMIT` fresh
        distance calls (content-identical queries attach for free).  A
        budget-truncated lookup falls back to "new representative":
        a missed match only forfeits plan sharing.
        """
        rep_of = {qi: qi for qi in active}
        dist_to_rep: dict[int, float] = {}
        known: dict[tuple[int, int], float] = {}
        if self.share_eps is None or self.share_distance is None:
            return rep_of, dist_to_rep, known
        index = QueryIndex(self.share_distance,
                           metric=self._share_distance_is_metric,
                           pair_cache=known)
        for qi in active:
            if getattr(queries[qi], "points", None) is None:
                continue
            matches = index.range_search(queries[qi], self.share_eps,
                                         obj_key=qi,
                                         budget=CROSS_QUERY_LIMIT,
                                         first=True)
            if matches:
                rep, distance = matches[0]
                rep_of[qi] = rep
                dist_to_rep[qi] = distance
                report.queries_shared += 1
            else:
                index.add(qi, queries[qi])
        report.query_distance_calls += index.distance_calls
        report.share_groups = len(
            {rep for qi, rep in rep_of.items() if rep != qi})
        return rep_of, dist_to_rep, known

    def _adopted_probes(self, probes: Sequence[PartitionProbe | None],
                        shift: float) -> list[PartitionProbe | None]:
        """A share-group member's view of its representative's probes.

        For metric measures every trajectory ``t`` satisfies
        ``d(member, t) >= d(rep, t) - d(rep, member)``, so shifting the
        representative's (lower-bound) probe values down by the
        member-to-representative distance yields *sound* lower bounds
        for the member — partition skipping and task weighting keep
        working, just ``shift`` looser.  This requires ``shift`` to be
        a *metric* distance, i.e. the clustering distance must be the
        metric distance (:attr:`_share_distance_is_metric`); otherwise
        — no metric at all, or a planner configured with a looser
        clustering distance — no shifted value is a bound, so the
        member adopts probe-less entries: never skipped, weight 0 —
        conservative, and exactly how indexes without ``probe`` are
        already treated.
        """
        if not self._share_distance_is_metric:
            return [None] * len(probes)
        adopted: list[PartitionProbe | None] = []
        for probe in probes:
            if probe is None:
                adopted.append(None)
                continue
            adopted.append(PartitionProbe(
                bound=max(0.0, probe.bound - shift),
                child_bounds=tuple(max(0.0, b - shift)
                                   for b in probe.child_bounds),
                trajectories=probe.trajectories))
        return adopted

    # -- step: probe / plan --------------------------------------------------

    def _plan_batch(self, parts: Sequence, queries: Sequence,
                    kwargs_list: Sequence[dict], alias: list[int],
                    rep_of: dict[int, int], dist_to_rep: dict[int, float],
                    report: BatchPlanReport) -> WaveState:
        """Give every query its probes, planned waves and plan report.

        Representatives probe and plan exactly as a lone query would
        (:meth:`~repro.cluster.planner.QueryPlanner._plan_query`).  A
        fingerprint twin is never probed or dispatched — it copies its
        representative's merged result at the end.  A near-duplicate
        member adopts its representative's promise order and wave cut
        (already planned — clustering guarantees rep index < member
        index) with probe bounds made sound for *this* query: no probe
        pass, no cache lookups.  The member's plan is *staggered* one
        wave behind the representative's: by the time its first
        partitions dispatch, the representative's wave-1 results have
        been folded, so the broadcast vector hands the member a
        near-final threshold through the triangle inequality (metric
        measures; a non-metric member searches under its own ``dk``),
        and its entire search runs maximally pruned.  One barrier of
        extra latency buys a search that skips most of the work its
        twin already did.
        """
        cache_before = self.cache_counters()
        plans: list[tuple[list, list[list[int]]]] = []
        for qi, (query, kwargs) in enumerate(zip(queries, kwargs_list)):
            if alias[qi] != qi:
                plans.append(([], []))
                plan = PlanReport(mode="waves", wave_size=0)
            elif rep_of[qi] != qi:
                rep = rep_of[qi]
                probes = self._adopted_probes(plans[rep][0],
                                              dist_to_rep[qi])
                plans.append((probes, [[]] + list(plans[rep][1])))
                plan = PlanReport(
                    mode="waves",
                    wave_size=report.per_query[rep].wave_size,
                    order=list(report.per_query[rep].order),
                    probe_bounds=[p.bound if p is not None else 0.0
                                  for p in probes])
            else:
                probes, waves, plan = self._plan_query(parts, query, kwargs)
                plans.append((probes, waves))
            report.per_query.append(plan)
        report.probe_cache_hits, report.probe_cache_misses = (
            self.cache_delta(cache_before))
        report.wave_size = next(
            (plan.wave_size for plan in report.per_query if plan.order), 0)
        return WaveState(plans=plans, reports=report.per_query)

    # -- step: registry-seed -------------------------------------------------

    @staticmethod
    def _registry_fingerprint(query, kwargs: dict) -> bytes | None:
        """Registry key for one query, or None when ineligible.

        The registry key is the probe fingerprint (query points +
        ``dqp``), so it is only a faithful identity when no *other*
        kwarg could change the answer — queries carrying any kwarg
        beyond ``dqp`` opt out of the registry entirely (both seeding
        and storing), mirroring :meth:`_dedup_key`'s safety posture.
        """
        if any(key != "dqp" for key in kwargs):
            return None
        return ProbeCache.fingerprint(query, kwargs.get("dqp"))

    def _registry_seeds(self, queries: Sequence,
                        kwargs_list: Sequence[dict], active: Sequence[int],
                        k: int, report: BatchPlanReport) -> _RegistryPass:
        """Seed thresholds from the cross-batch hot-query registry.

        Snapshots the registry epoch *before* the waves (results are
        stored under it — a concurrent index write mid-batch rolls the
        registry epoch past it, so those stores are dropped on arrival
        instead of served stale), then, for each active fingerprintable
        query, in preference order:

        * **Exact hit** — an entry with the same fingerprint at the
          current epoch stores the final merged top-k of an identical
          query; its k-th distance *is* this query's final ``dk``
          (the search is deterministic), so it seeds exactly.
        * **Near-duplicate** — failing that, and only when the
          clustering distance is the metric distance
          (:attr:`_share_distance_is_metric`), stored entries within
          ``share_eps`` of this query are tried as representatives:
          ``stored_dk + d(rep, query)`` upper-bounds this query's final
          k-th best by the triangle inequality, and the tightest such
          bound seeds the query.  The candidates come from the
          registry's own metric lookup
          (:meth:`~repro.cluster.service.HotQueryRegistry.neighbors`)
          over *all* live entries at :data:`REGISTRY_SCAN_LIMIT` fresh
          distance calls per query.

        Every seed upper-bounds the query's *final* k-th best, and is
        applied downstream through the same strict (``>``) skip and
        ``nextafter`` search cutoff as any other threshold, so seeded
        results stay bit-identical to cold ones.  The returned pass's
        ``seeds`` is None when nothing seeded.
        """
        registry = self.registry
        seeds = np.full(len(queries), np.inf)
        fingerprints: dict[int, bytes] = {}
        registry_pass = _RegistryPass(
            seeds=None, fingerprints=fingerprints, epoch=registry.epoch,
            stores_before=getattr(registry, "stores", 0))
        can_neighbor = (self.share_eps is not None
                        and self._share_distance_is_metric)
        for qi in active:
            query = queries[qi]
            fingerprint = self._registry_fingerprint(query, kwargs_list[qi])
            if fingerprint is None:
                continue
            fingerprints[qi] = fingerprint
            entry = registry.get(fingerprint, k)
            if entry is not None:
                seeds[qi] = entry.threshold(k)
                report.registry_hits += 1
                continue
            if not can_neighbor or getattr(query, "points", None) is None:
                continue
            pairs, fresh = registry.neighbors(
                query, self.share_eps, self.share_distance,
                budget=REGISTRY_SCAN_LIMIT, query_key=fingerprint)
            report.query_distance_calls += fresh
            best = min((candidate.threshold(k) + distance
                        for candidate, distance in pairs
                        if len(candidate.items) >= k), default=np.inf)
            if np.isfinite(best):
                seeds[qi] = best
                registry.neighbor_hits = getattr(
                    registry, "neighbor_hits", 0) + 1
                report.registry_neighbor_seeds += 1
        if np.isfinite(seeds).any():
            registry_pass.seeds = seeds
        return registry_pass

    def _registry_store(self, registry_pass: _RegistryPass,
                        queries: Sequence, results: Sequence[TopKResult],
                        k: int, report: BatchPlanReport) -> None:
        """Persist exact, fully-answered results for later batches,
        stamped with the batch-start epoch so entries raced by a
        concurrent write never enter circulation."""
        for qi, fingerprint in registry_pass.fingerprints.items():
            if (report.per_query[qi].exact
                    and len(results[qi].items) >= k):
                self.registry.put(fingerprint, queries[qi],
                                  results[qi].items,
                                  epoch=registry_pass.epoch)
        report.registry_stores = (getattr(self.registry, "stores", 0)
                                  - registry_pass.stores_before)

    # -- step: build-wave ----------------------------------------------------

    def _thresholds(self, run: _BatchRun) -> np.ndarray:
        """The per-query thresholds the next wave is built under.

        Each query's own running ``dk``, min-folded with every
        certified upper bound on its *final* k-th best the batch
        holds: registry seeds (sound in every wave), and — between two
        or more active queries — this wave's triangle bounds.
        """
        bounds = run.registry.seeds if run.registry is not None else None
        if run.coupled:
            extra = self._triangle_bounds(run, run.merges.dk_vector())
            if extra is not None:
                bounds = (extra if bounds is None
                          else np.minimum(bounds, extra))
        return run.merges.broadcast_vector(bounds)

    def _triangle_bounds(self, run: _BatchRun,
                         raw: np.ndarray) -> np.ndarray | None:
        """Cross-query triangle tightening of the running ``dk`` vector.

        Query ``j``'s final k-th best cannot exceed ``dk_i + d(q_i,
        q_j)`` for any query ``i`` already holding k results, so
        ``min_i`` of that is a certified threshold for ``j``.  One
        budgeted weighted nearest-neighbor lookup per query against a
        VP-tree over *all* active queries
        (:meth:`~repro.cluster.query_index.QueryIndex.tighten`) —
        value-identical to the full pairwise-matrix reduction whenever
        the :data:`CROSS_QUERY_LIMIT` fresh-call budget never binds
        (each query's own dk rides in via the zero self-distance), and
        a sound partial minimum when it does.  The tree is built by
        the first wave in which some query holds k results, so the
        first wave never pays for it, with clustering's pair distances
        prepaying the build wherever the clustering distance is the
        metric one.
        """
        if self.query_distance is None:
            return None
        report, index = run.report, run.cross_index
        if index is None:
            if not np.isfinite(raw).any():
                return None
            index = run.cross_index = QueryIndex(
                self.query_distance, metric=True,
                pair_cache=(run.known if self._share_distance_is_metric
                            else None))
            for qi in run.active:
                index.add(qi, run.queries[qi])
            report.query_distance_calls += index.distance_calls
        before_calls = index.distance_calls
        values, improved = index.tighten(
            {qi: float(raw[qi]) for qi in run.active},
            budget=CROSS_QUERY_LIMIT)
        report.query_distance_calls += index.distance_calls - before_calls
        report.cross_query_tightenings += improved
        bounds = np.full(len(run.queries), np.inf)
        for qi, value in values.items():
            bounds[qi] = value
        return bounds

    def _wave_tasks(self, run: _BatchRun, index: int,
                    candidates: dict[int, list[int]]):
        """Build wave ``index``: thresholds, skips, grouped tasks.

        One task per partition searches it for every query still
        bound for it, each query under its own freshest threshold.
        """
        report = run.report
        dks = self._thresholds(run)
        entries = self._build_wave(run.state, index, candidates, dks)
        tasks = []
        broadcast_queries: set[int] = set()
        for pid, group in entries:
            supports = getattr(run.parts[pid].index,
                               "supports_threshold", False)
            group_kwargs = []
            for qi in group:
                kwargs = run.kwargs_list[qi]
                if supports and math.isfinite(dks[qi]):
                    # A caller-supplied dk stays in force when it is
                    # the tighter of the two.
                    kwargs = {
                        **kwargs,
                        "dk": min(float(dks[qi]),
                                  kwargs.get("dk", float("inf"))),
                    }
                    broadcast_queries.add(qi)
                group_kwargs.append(kwargs)
            tasks.append(run.make_task(
                run.parts[pid], [run.queries[qi] for qi in group],
                group_kwargs, [run.share_label.get(qi) for qi in group]))
        # At most one broadcast per (query, wave).
        for qi in broadcast_queries:
            report.per_query[qi].threshold_broadcasts += 1
        grouped = sum(len(group) for _, group in entries)
        report.tasks_dispatched += len(tasks)
        report.grouped_queries += grouped
        if run.hints is not None and tasks:
            # Report this wave's *actual* mean group width so the
            # "auto" cost model sees the real per-task work, not a
            # whole-batch upper bound.
            return tasks, replace(run.hints,
                                  queries_per_task=grouped / len(tasks))
        return tasks

    # -- step: fold-wave -----------------------------------------------------

    def _fold_wave(self, run: _BatchRun, index: int, outcomes: list,
                   timings: list[TaskTiming]) -> None:
        """Fold wave ``index``'s partials into the per-query merges;
        failed tasks re-enqueue through the shared failure fold."""
        report = run.report
        for outcome in outcomes:
            report.retries += outcome.retries
            report.timeouts += outcome.timeouts
            report.speculative_wins += int(outcome.speculative_win)
        folded: dict[int, list[TopKResult]] = {}
        for group, partials in self._fold_outcomes(run.state, index,
                                                   outcomes):
            for qi, partial in zip(group, partials):
                folded.setdefault(qi, []).append(partial)
                self._record_partial(report.per_query[qi], partial)
        for qi, partials in folded.items():
            run.merges.fold(qi, partials)
        for qi, plan in enumerate(report.per_query):
            if plan.waves and plan.waves[-1].index == index:
                plan.waves[-1].dk_after = run.merges.dk(qi)

    # -- step: finalise ------------------------------------------------------

    def _finalise(self, run: _BatchRun) -> list[TopKResult]:
        """Close the batch: per-query exactness verdicts, registry
        stores, twins' copies and the plan counters on each result."""
        report, k = run.report, run.k
        results = run.merges.results()
        for qi in run.active:
            plan = report.per_query[qi]
            plan.exact = self._exactness(plan.failed_partitions,
                                         run.state.plans[qi][0],
                                         run.merges.dk(qi))
        if run.registry is not None:
            self._registry_store(run.registry, run.queries, results, k,
                                 report)
        self._copy_twins(run.alias, results, report)
        for result, plan in zip(results, report.per_query):
            self._finalize_stats(result.stats, plan)
        return results

    @staticmethod
    def _copy_twins(alias: Sequence[int], results: list[TopKResult],
                    report: BatchPlanReport) -> None:
        """Hand every fingerprint twin its representative's answer.

        Same points, same shared kwargs: the search's answer is a pure
        function of both, so the twin's result is the representative's.
        Fresh zero stats keep the batch's work accounting truthful
        (nothing ran).  Degradation state is inherited the same way:
        losing the representative's partitions lost the twin's too.
        """
        for qi, rep in enumerate(alias):
            if rep != qi:
                results[qi] = TopKResult(items=list(results[rep].items),
                                         stats=SearchStats())
                plan = report.per_query[qi]
                plan.failed_partitions = list(
                    report.per_query[rep].failed_partitions)
                plan.exact = report.per_query[rep].exact

    # -- the one-index plan --------------------------------------------------

    def execute_local(self, search: Callable[[list, list[dict]],
                                             list[TopKResult]],
                      queries: Sequence, k: int,
                      kwargs_list: Sequence[dict],
                      ) -> tuple[list[TopKResult], BatchPlanReport]:
        """Run a batch against one local index: no partitions, no
        probes, no waves.

        What stays of the loop above is what needs no partitions:
        fingerprint twins are searched once (*dedup*), and with a
        registry attached each remaining query is *registry-seeded*
        and its exact result stored back.  ``search(queries,
        kwargs_list)`` runs the distinct queries — a seed rides in as
        the query's ``dk``, min-folded with a caller-supplied one — and
        returns one :class:`~repro.core.search.TopKResult` each.  Every
        answer is the unseeded search's, bit for bit (seeds are
        certified and applied strictly).  Returns the per-query results
        in input order and a report whose per-query plans are
        ``mode="trie"`` with no waves.
        """
        report = BatchPlanReport(mode="batch-trie", num_queries=len(queries),
                                 share_eps=self.share_eps)
        alias = self._dedup(queries, kwargs_list, report)
        active = [qi for qi, rep in enumerate(alias) if rep == qi]
        report.per_query = [PlanReport(mode="trie", wave_size=0)
                            for _ in queries]
        registry_pass = None
        search_kwargs = [kwargs_list[qi] for qi in active]
        if self.registry is not None:
            registry_pass = self._registry_seeds(queries, kwargs_list,
                                                 active, k, report)
            if registry_pass.seeds is not None:
                search_kwargs = [
                    {**kwargs, "dk": min(float(registry_pass.seeds[qi]),
                                         kwargs.get("dk", float("inf")))}
                    if math.isfinite(registry_pass.seeds[qi]) else kwargs
                    for qi, kwargs in zip(active, search_kwargs)]
        found = search([queries[qi] for qi in active], search_kwargs)
        results: list[TopKResult] = [None] * len(queries)
        for qi, result in zip(active, found):
            results[qi] = result
        if registry_pass is not None:
            self._registry_store(registry_pass, queries, results, k, report)
        self._copy_twins(alias, results, report)
        return results, report
