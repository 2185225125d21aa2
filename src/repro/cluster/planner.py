"""Two-phase query planner with cross-partition threshold propagation.

The paper's driver runs one monolithic map-then-merge: every partition
computes its local top-k to full precision and the master merges the
collected lists (Section V-C).  A partition holding none of the global
top-k still refines k candidates exactly, and no partition ever
benefits from another's k-th-best distance.  This module replaces that
one-shot fan-out with a coordinated two-phase plan:

1. **Probe phase** — every partition is asked for its root/first-level
   RP-Trie lower bounds (:func:`repro.core.search.probe_search`): a
   near-free, refinement-free summary giving a sound lower bound on
   the distance from the query to *everything* the partition holds,
   plus an LB-only candidate estimate.
2. **Wave phase** — partitions are ordered by estimated promise
   (ascending probe bound) and dispatched in configurable waves
   through :meth:`repro.cluster.engine.ExecutionEngine.run_waves`.
   After each wave the driver folds the partials into a running
   global :class:`~repro.cluster.driver.RunningTopK` and *broadcasts
   the tightened k-th best distance* ``dk`` into the next wave's
   ``local_search`` calls, where it seeds the result heap, the trie
   pruning, the banded screens and the batch refinement threshold.
   Partitions whose probe bound already exceeds the running ``dk``
   are skipped outright — their every trajectory is provably out.

Threshold propagation only ever prunes work: the broadcast ``dk`` is
applied strictly (candidates tied with it survive, matching the driver
merge's (distance, tid) tie-breaks) and is only finite once k global
results exist, so waved execution is **bit-identical** to single-shot
execution — property-tested for every measure in
``tests/test_planner.py``.  Range queries ride the same machinery with
the fixed radius in place of a tightening ``dk`` (no broadcasts, but
probe-phase partition skipping applies unchanged).

The probe phase also feeds the *scheduler*: within each wave, tasks are
submitted heaviest-estimated-work first
(:func:`repro.cluster.scheduler.lpt_order` over
:meth:`QueryPlanner.task_weight`), so FIFO core placement packs light
partitions around the heavy ones instead of letting a straggler
stretch the wave barrier.  Probes are memoizable across repeated
queries through a driver-owned
:class:`~repro.cluster.rdd.ProbeCache`.

This module holds what every wave plan shares — the reports, the
probe / promise-order / wave-cut primitives, the wave builder (skip,
group, LPT, :class:`WaveReport` bookkeeping) and the failure fold
(re-dispatch queue, ``failed_partitions``, exactness verdict) — and
the range-query loop built from them.  The top-k loop exists once, at
any batch width, in :mod:`repro.cluster.batch`: a single query is a
batch of one (:meth:`QueryPlanner.execute_top_k`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.search import PartitionProbe, SearchStats, TopKResult
from .engine import ExecutionEngine, TaskTiming, WorkloadHints
from .scheduler import lpt_order

__all__ = ["WaveReport", "PlanReport", "QueryPlanner"]

#: Default number of waves a plan is cut into when no explicit
#: ``wave_size`` is configured: enough feedback rounds for the
#: threshold to bite, few enough that barrier overhead stays small.
DEFAULT_WAVES = 4

#: Floor on the default wave size.  Every wave is a synchronization
#: barrier, so cutting a handful of partitions into many tiny waves
#: serializes the cluster for negligible propagation benefit; below
#: this many partitions per wave the default plan degenerates to one
#: probe-ordered wave (explicit ``wave_size`` overrides the floor).
MIN_WAVE_SIZE = 8

#: Planner-level re-dispatches per failed partition.  The engine's
#: :class:`~repro.cluster.engine.FaultPolicy` already retried each
#: dispatch; the planner re-enqueues a failed partition into a later
#: wave this many times (where a tightened ``dk`` may even skip it
#: outright) before reporting it in ``failed_partitions``.
PLANNER_REDISPATCHES = 1


@dataclass
class WaveReport:
    """What one dispatched wave did (per-wave planner statistics)."""

    #: Zero-based wave number.
    index: int
    #: Partition ids dispatched in this wave, in dispatch order:
    #: heaviest estimated work first (LPT), so FIFO placement never
    #: leaves the wave's longest task straggling at the barrier.
    partitions: list[int] = field(default_factory=list)
    #: Partition ids skipped because their probe bound exceeded the
    #: running global ``dk`` — searched by a single-shot plan, not here.
    skipped: list[int] = field(default_factory=list)
    #: Global k-th best distance broadcast into this wave (inf for the
    #: first wave / an unfilled heap).
    dk_before: float = float("inf")
    #: Global k-th best after folding this wave's results.
    dk_after: float = float("inf")
    #: Trie nodes pruned inside this wave's local searches.
    nodes_pruned: int = 0
    #: Exact evaluations paid inside this wave's local searches.
    exact_refinements: int = 0
    #: Partition ids whose task failed terminally in this wave (they
    #: are re-enqueued into a later wave, or reported on the plan's
    #: ``failed_partitions`` once the planner budget runs out too).
    failed: list[int] = field(default_factory=list)


@dataclass
class PlanReport:
    """One executed query plan, wave by wave.

    Attached to :class:`repro.repose.QueryOutcome` so experiments can
    report how much work threshold propagation saved (skipped
    partitions, per-wave pruned-node and exact-refinement counts)
    alongside the usual timing numbers.
    """

    #: ``"waves"`` (the wave loop — a single query or one query of a
    #: batch alike) or ``"trie"`` (one local RP-Trie: no probes, no
    #: waves).
    mode: str
    #: Partitions per wave the plan was cut into.
    wave_size: int
    #: Dispatch order (partition ids, most promising first).
    order: list[int] = field(default_factory=list)
    #: Per-partition probe bounds, indexed by partition id.
    probe_bounds: list[float] = field(default_factory=list)
    #: Driver-side seconds spent in the probe phase.
    probe_seconds: float = 0.0
    #: Per-wave execution reports.
    waves: list[WaveReport] = field(default_factory=list)
    #: Number of waves that received a finite broadcast threshold.
    threshold_broadcasts: int = 0
    #: Probe-cache lookups served / computed during this plan's probe
    #: phase (both zero when no cache is configured).
    probe_cache_hits: int = 0
    probe_cache_misses: int = 0
    #: Engine-level task re-dispatches consumed by the tasks that
    #: served this query (a grouped task charges every query in it).
    retries: int = 0
    #: Task attempts abandoned at the per-task deadline.
    timeouts: int = 0
    #: Tasks whose speculative duplicate beat the original straggler.
    speculative_wins: int = 0
    #: Partitions that exhausted every retry (engine and planner level)
    #: and contributed nothing to the result.
    failed_partitions: list[int] = field(default_factory=list)
    #: Exactness verdict: True when the result provably equals the
    #: fault-free answer — vacuously so with no failed partitions, and
    #: otherwise because every failed partition's probe lower bound
    #: strictly exceeds the final threshold (``dk`` for top-k, the
    #: radius for range), so nothing it holds could have placed.
    exact: bool = True

    @property
    def partitions_skipped(self) -> int:
        """Partitions never searched because their probe bound proved
        every trajectory they hold is outside the global top-k."""
        return sum(len(w.skipped) for w in self.waves)

    @property
    def complete(self) -> bool:
        """True when every dispatched partition produced a result."""
        return not self.failed_partitions


@dataclass
class WaveState:
    """What a wave loop carries from one wave's build to its fold.

    Indexed by query throughout — a range query or a single top-k
    query is simply the one-query case.
    """

    #: Per query: ``(probes, planned waves)``; both empty for a query
    #: that never dispatches (a deduplicated twin).
    plans: list[tuple[list, list[list[int]]]]
    #: Per query: the plan report the loop writes its waves into.
    reports: list[PlanReport]
    #: query -> partitions whose task failed since the last re-dispatch
    #: wave was cut, in failure order.
    retry: dict[int, list[int]] = field(default_factory=dict)
    #: (partition, query) -> failed dispatches so far.
    redispatches: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Per built wave: its ``(partition, queries)`` tasks in dispatch
    #: order, for the fold to pair outcomes with.
    dispatched: list[list[tuple[int, list[int]]]] = field(
        default_factory=list)


class QueryPlanner:
    """Probe, order and dispatch partitions in threshold-coupled waves.

    The planner is index-agnostic: it drives opaque per-partition
    records through caller-supplied task factories, discovering the two
    optional capabilities by duck typing —

    * a ``probe(query, dqp=...)`` method on the local index (returning
      a :class:`~repro.core.search.PartitionProbe`) enables promise
      ordering and probe-bound partition skipping;
    * a truthy ``supports_threshold`` attribute enables the ``dk``
      broadcast into the index's ``top_k``.

    Indexes with neither (the DFT/DITA/LS baselines) still execute
    correctly — they are simply dispatched in id order with no
    propagation, degenerating to a barriered single-shot plan.

    This class runs range queries itself; top-k runs through
    ``execute_batch``, which
    :class:`~repro.cluster.batch.BatchQueryPlanner` — the planner every
    driver instantiates — adds on top of the steps defined here.

    Parameters
    ----------
    engine:
        The :class:`~repro.cluster.engine.ExecutionEngine` whose
        persistent pools run every wave.
    wave_size:
        Partitions per wave; ``None`` cuts the plan into
        :data:`DEFAULT_WAVES` equal waves.  ``wave_size >= partitions``
        degenerates to single-shot dispatch (still probe-ordered).
    probe_cache:
        Optional :class:`~repro.cluster.rdd.ProbeCache`.  When given,
        :meth:`probe` serves repeated (query, partition) probes from it
        instead of recomputing — the cache is epoch-invalidated by the
        driver whenever indexes change, so a served probe is always the
        one that would have been computed.
    """

    def __init__(self, engine: ExecutionEngine,
                 wave_size: int | None = None,
                 probe_cache=None):
        self.engine = engine
        self.wave_size = wave_size
        self.probe_cache = probe_cache

    # -- phase 1: probe ------------------------------------------------------

    def probe(self, parts: Sequence, query, kwargs: dict,
              ) -> list[PartitionProbe | None]:
        """Collect every partition's first-level probe, driver-side.

        The probe is orders of magnitude cheaper than a search (no
        leaf refinement, no distance computations beyond the shared
        query-pivot distances already in ``kwargs``), so it runs
        serially on the driver — the same place the paper computes
        ``dqp`` — rather than paying a dispatch round-trip.  With a
        :attr:`probe_cache`, a query fingerprinted identically to an
        earlier one (same points, same ``dqp``) reuses that query's
        probes outright.
        """
        probe_kwargs = ({"dqp": kwargs["dqp"]} if "dqp" in kwargs else {})
        cache = self.probe_cache
        fingerprint = (cache.fingerprint(query, probe_kwargs.get("dqp"))
                       if cache is not None else None)
        probes: list[PartitionProbe | None] = []
        for pid, rp in enumerate(parts):
            probe_fn = getattr(rp.index, "probe", None)
            if probe_fn is None:
                probes.append(None)
                continue
            probe = (cache.get(pid, fingerprint)
                     if fingerprint is not None else None)
            if probe is None:
                probe = probe_fn(query, **probe_kwargs)
                if fingerprint is not None:
                    cache.put(pid, fingerprint, probe)
            probes.append(probe)
        return probes

    @staticmethod
    def task_weight(probe: PartitionProbe | None, dk: float) -> float:
        """Estimated work of searching one partition under ``dk``.

        The probe's first-level bounds say how many of the partition's
        subtrees a search seeded with ``dk`` could still be forced to
        descend into; scaling the partition's trajectory count by that
        live fraction estimates the candidates the task will touch.
        Probe-less partitions weigh 0 (no information — they sort after
        every estimated task, keeping dispatch deterministic).  Weights
        only order dispatch within a wave; they never affect results.
        """
        if probe is None or not probe.child_bounds:
            return 0.0
        live = probe.estimated_candidates(dk)
        return probe.trajectories * live / len(probe.child_bounds)

    def plan_order(self, probes: Sequence[PartitionProbe | None],
                   ) -> list[int]:
        """Partition dispatch order: ascending probe bound, then id.

        Promising partitions (small lower bounds) go first so the
        running global ``dk`` tightens as early as possible; the id
        tie-break keeps plans deterministic.  Partitions without a
        probe sort as bound 0 — never skippable, maximally early —
        which is the conservative choice for unknown indexes.
        """
        keyed = [(p.bound if p is not None else 0.0, pid)
                 for pid, p in enumerate(probes)]
        return [pid for _, pid in sorted(keyed)]

    def plan_waves(self, order: list[int]) -> list[list[int]]:
        """Cut the dispatch order into waves of ``wave_size``."""
        if not order:
            return []
        size = self.wave_size
        if size is None:
            size = max(MIN_WAVE_SIZE,
                       math.ceil(len(order) / DEFAULT_WAVES))
        size = max(1, int(size))
        return [order[lo:lo + size] for lo in range(0, len(order), size)]

    # -- phase 2: waves ------------------------------------------------------

    def _plan_query(self, parts: Sequence, query, kwargs: dict,
                    ) -> tuple[list[PartitionProbe | None],
                               list[list[int]], PlanReport]:
        """Phase 1 for one query: probe, order, cut waves, open report."""
        start = time.perf_counter()
        before = self.cache_counters()
        probes = self.probe(parts, query, kwargs)
        hits, misses = self.cache_delta(before)
        report = PlanReport(
            mode="waves",
            wave_size=0,
            order=self.plan_order(probes),
            probe_bounds=[p.bound if p is not None else 0.0
                          for p in probes],
            probe_seconds=time.perf_counter() - start,
            probe_cache_hits=hits,
            probe_cache_misses=misses,
        )
        waves = self.plan_waves(report.order)
        report.wave_size = len(waves[0]) if waves else 0
        return probes, waves, report

    def cache_counters(self) -> tuple[int, int]:
        """Probe-cache ``(hits, misses)`` snapshot ((0, 0) uncached)."""
        if self.probe_cache is None:
            return (0, 0)
        return self.probe_cache.counters()

    def cache_delta(self, before: tuple[int, int]) -> tuple[int, int]:
        """Cache activity since a :meth:`cache_counters` snapshot."""
        hits, misses = self.cache_counters()
        return hits - before[0], misses - before[1]

    def _wave_stream(self, state: WaveState,
                     build: Callable[[int, dict[int, list[int]]], object]):
        """Yield ``build(index, candidates)`` wave after wave, lazily.

        ``candidates`` maps each query with something left to dispatch
        to the partitions wave ``index`` holds for it: the planned
        waves first, then — while any task failed — one re-dispatch
        wave per round of failures (so a re-dispatched partition is
        judged against the by-then freshest threshold).  The engine
        pulls the next wave only after the previous one was folded.
        """
        index = 0
        planned = max((len(waves) for _, waves in state.plans), default=0)
        while True:
            if index < planned:
                # Exhausted plans and a staggered share-group member's
                # empty leading wave contribute nothing.
                candidates = {qi: waves[index]
                              for qi, (_, waves) in enumerate(state.plans)
                              if index < len(waves) and waves[index]}
            elif state.retry:
                candidates = {qi: state.retry[qi]
                              for qi in sorted(state.retry)}
                state.retry = {}
            else:
                return
            yield build(index, candidates)
            index += 1

    def _build_wave(self, state: WaveState, index: int,
                    candidates: dict[int, list[int]], thresholds,
                    ) -> list[tuple[int, list[int]]]:
        """Decide what wave ``index`` dispatches under ``thresholds``.

        Opens a :class:`WaveReport` per candidate query, skips every
        partition whose probe bound exceeds that query's threshold,
        groups the surviving (partition, query) pairs by partition and
        returns the ``(partition, queries)`` tasks heaviest first.
        """
        groups: dict[int, list[int]] = {}
        for qi, pids in candidates.items():
            probes = state.plans[qi][0]
            wave_report = WaveReport(index=index,
                                     dk_before=float(thresholds[qi]))
            state.reports[qi].waves.append(wave_report)
            for pid in pids:
                probe = probes[pid]
                if probe is not None and probe.bound > thresholds[qi]:
                    # Sound skip: probe.bound lower-bounds every
                    # trajectory here, and the threshold certifies the
                    # answer is already complete at or below it.  Ties
                    # are dispatched (strict >) to preserve the merge's
                    # tid tie-breaking bit-for-bit.
                    wave_report.skipped.append(pid)
                else:
                    groups.setdefault(pid, []).append(qi)
        # The probe also feeds the scheduler: submit the wave's
        # heaviest-looking tasks first so FIFO placement packs light
        # tasks around them (LPT) instead of letting a straggler
        # stretch the wave barrier.  A task's weight is the sum of its
        # queries' probe-estimated work on the partition.
        pids = list(groups)
        weights = [sum(self.task_weight(state.plans[qi][0][pid],
                                        float(thresholds[qi]))
                       for qi in groups[pid]) for pid in pids]
        entries = [(pids[rank], groups[pids[rank]])
                   for rank in lpt_order(weights)]
        for pid, group in entries:
            for qi in group:
                state.reports[qi].waves[-1].partitions.append(pid)
        state.dispatched.append(entries)
        return entries

    @staticmethod
    def _fold_outcomes(state: WaveState, index: int, outcomes: list,
                       ) -> list[tuple[list[int], object]]:
        """Split wave ``index``'s outcomes into results and failures.

        Returns ``(queries, task result)`` per successful task, in
        dispatch order.  A task that failed terminally (its
        engine-level retries exhausted) re-enqueues each of its
        (partition, query) pairs for a re-dispatch wave, up to
        :data:`PLANNER_REDISPATCHES` times, and only then lands the
        partition on that query's ``failed_partitions``.  Engine-level
        fault counters are charged to every query the task served.
        """
        done = []
        for (pid, group), outcome in zip(state.dispatched[index], outcomes):
            for qi in group:
                plan = state.reports[qi]
                plan.retries += outcome.retries
                plan.timeouts += outcome.timeouts
                plan.speculative_wins += int(outcome.speculative_win)
                if outcome.ok:
                    continue
                plan.waves[-1].failed.append(pid)
                attempts = state.redispatches.get((pid, qi), 0) + 1
                state.redispatches[(pid, qi)] = attempts
                if attempts <= PLANNER_REDISPATCHES:
                    state.retry.setdefault(qi, []).append(pid)
                else:
                    plan.failed_partitions.append(pid)
            if outcome.ok:
                done.append((group, outcome.result))
        return done

    @staticmethod
    def _record_partial(plan: PlanReport, partial: TopKResult) -> None:
        """Count one folded partial on the plan's current wave."""
        wave_report = plan.waves[-1]
        wave_report.nodes_pruned += partial.stats.nodes_pruned
        wave_report.exact_refinements += partial.stats.exact_refinements

    def execute_top_k(self, parts: Sequence, query, k: int, kwargs: dict,
                      make_task: Callable[[object, list, list, list],
                                          Callable],
                      hints: WorkloadHints | None = None,
                      ) -> tuple[TopKResult, list[list[TaskTiming]],
                                 PlanReport]:
        """Run one distributed top-k query: a batch of one.

        The wave loop exists once, at any batch width, in
        :meth:`repro.cluster.batch.BatchQueryPlanner.execute_batch`
        (the planner every driver instantiates); this is its width-1
        call, returning that query's merged result (bit-identical to
        single-shot execution whenever ``report.complete``), the
        per-wave task timings and its :class:`PlanReport`.
        ``make_task`` is ``execute_batch``'s group task factory.
        """
        results, wave_timings, report = self.execute_batch(
            parts, [query], k, [kwargs], make_task, hints=hints)
        return results[0], wave_timings, report.per_query[0]

    def execute_range(self, parts: Sequence, query, radius: float,
                      kwargs: dict,
                      make_task: Callable[[object, dict], Callable],
                      hints: WorkloadHints | None = None,
                      ) -> tuple[list[TopKResult], list[list[TaskTiming]],
                                 PlanReport]:
        """Run one distributed range query as a probed wave plan.

        The radius is a fixed threshold, so there is nothing to
        propagate between waves — but the probe phase still skips every
        partition whose first-level bound exceeds the radius without
        searching it, and the waves are built, folded and re-dispatched
        on failure by the same steps as top-k
        (:meth:`_build_wave` / :meth:`_fold_outcomes`).  Returns the
        per-partition partials in dispatch order (the driver's
        ``merge_range`` is order-insensitive), per-wave timings and the
        report.
        """
        probes, waves, report = self._plan_query(parts, query, kwargs)
        state = WaveState(plans=[(probes, waves)], reports=[report])
        partials: list[TopKResult] = []

        def build(index: int, candidates: dict[int, list[int]]) -> list:
            return [make_task(parts[pid], kwargs) for pid, _ in
                    self._build_wave(state, index, candidates, [radius])]

        def fold_wave(index: int, outcomes: list,
                      timings: list[TaskTiming]) -> None:
            for _, partial in self._fold_outcomes(state, index, outcomes):
                partials.append(partial)
                self._record_partial(report, partial)
            report.waves[index].dk_after = radius

        _, wave_timings = self.engine.run_waves(
            self._wave_stream(state, build), hints=hints, on_wave=fold_wave)
        report.exact = self._exactness(report.failed_partitions, probes,
                                       radius)
        return partials, wave_timings, report

    @staticmethod
    def _exactness(failed: list[int],
                   probes: Sequence[PartitionProbe | None],
                   threshold: float) -> bool:
        """Whether a degraded result is still provably exact.

        True iff every failed partition's probe lower bound *strictly*
        exceeds ``threshold`` (the final ``dk`` for top-k, the radius
        for range): nothing the partition holds could have entered the
        answer, so losing it lost nothing.  Strict comparison because a
        tie at ``dk`` could still displace a kept item via the
        (distance, tid) tie-break; probe-less partitions are never
        provable.  Vacuously True with no failures.
        """
        for pid in failed:
            probe = probes[pid]
            if probe is None or not probe.bound > threshold:
                return False
        return True

    @staticmethod
    def _finalize_stats(stats: SearchStats, report: PlanReport) -> None:
        """Copy driver-level plan counters onto the merged stats."""
        stats.waves = len(report.waves)
        stats.threshold_broadcasts = report.threshold_broadcasts
        stats.partitions_skipped = report.partitions_skipped
        stats.retries = report.retries
        stats.timeouts = report.timeouts
        stats.speculative_wins = report.speculative_wins
