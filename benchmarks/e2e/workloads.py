"""The four workloads: seeded inputs, the timed rounds, the checks.

A run builds a default-configured engine (what a quickstart reader
gets), then executes whole *rounds* until the run's seconds are up.  A
round draws one query from each of :data:`STRATA` length strata, so
any number of completed rounds has the same length mix and a faster
program simply completes more of them.  With a tracer, odd rounds run
under the layer proxies and even rounds without: the two halves see
statistically identical ops in the same cache states, which is what
``trace.overhead_frac`` compares.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import itertools
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro import Repose, Trajectory
from repro.core.rptrie import RPTrie
from repro.core.search import ResultHeap, refine_top_k
from repro.datasets import generate_dataset, preprocess
from repro.datasets.stats import paper_delta
from repro.distances import get_measure

from layers import ROOT, Bindings, BuildProxies, QueryProxies
from spans import END, NAME, PARENT, START

PARTITIONS = 16
#: The trajectory set is part of a workload's identity, like its
#: cardinality: ``index_mb`` and ``build_s`` would otherwise move with
#: the seed by more than their bounds.  ``--seed`` drives everything
#: the program is *asked*: queries, batches, the request/insert stream.
DATA_SEED = 2021
STRATA = 8
BATCH = 32
CLIENTS = 8
#: Requests per caller and segment; the last caller also inserts once.
SEGMENT = 6
JITTER_SIGMA = 0.002
INSERT_ID0 = 10_000_000
QUERY_ID0 = 20_000_000
#: Every n-th batch slot / served request is checked against the scan
#: floor (single queries: every one).
SCAN_EVERY = 4

clock = time.perf_counter

#: Seconds :func:`yardstick` takes at the reference machine speed (this
#: container's median).  The sandbox's cores swing between two speeds
#: ~25 % apart every few seconds, so every wall time is reported *at
#: reference speed*: multiplied by ``YARD_REF_S / yardstick now``.
YARD_REF_S = 2.5e-3
_YARD = [np.random.default_rng(0).random((24, 2)) for _ in range(300)]


def yardstick() -> float:
    """Seconds a fixed kernel takes right now: a pure-Python loop plus
    small-array numpy calls, the mix the program under test is made of."""
    start = clock()
    total = 0
    for i in range(30000):
        total += i * i
    query = _YARD[0]
    for other in _YARD:
        dist = np.hypot(query[:, 0] - other[0, 0], query[:, 1] - other[0, 1])
        np.minimum(dist, dist[::-1]).min()
    return clock() - start


def speed() -> float:
    """Factor taking a wall time measured now to reference speed.  The
    mean of a burst, not its median: a stretch of program time absorbs
    every short stall, so the yardstick must too."""
    return YARD_REF_S / statistics.fmean(yardstick() for _ in range(3))


def mark(marks: list) -> None:
    """Note the machine's speed at this point of a long stretch of
    work: ``(clock before, factor, clock after)``."""
    before = clock()
    marks.append((before, speed(), clock()))


def stretches(marks: list) -> list[float]:
    """Reference-speed seconds between consecutive marks, each stretch
    at the mean speed of its two ends, the yardstick's own time out."""
    return [(until - since) * (f0 + f1) / 2
            for (_, f0, since), (until, f1, _) in zip(marks, marks[1:])]


@dataclass(frozen=True)
class Workload:
    """What ``BENCHMARK.json`` names; its ``why`` lines say what each
    is for, README.md at length."""

    name: str
    kind: str
    dataset: str
    scale: float
    smoke_scale: float
    measure: str
    k: int


WORKLOADS = {w.name: w for w in (
    Workload("dtw_single", "single", "t-drive", 0.01, 0.001, "dtw", 10),
    Workload("frechet_k50", "single", "t-drive", 0.004, 0.0003, "frechet",
             50),
    Workload("hausdorff_batch", "batch", "t-drive", 0.01, 0.001,
             "hausdorff", 10),
    Workload("hausdorff_serve", "serve", "sf", 0.01, 0.001, "hausdorff",
             10),
)}


def same_answer(items: list, ref: list) -> bool:
    """Bit-equal, except for *which* of several candidates tied at the
    k-th distance were kept: the program's heaps keep the first tied
    candidate they meet, so under ties (trajectories clipped to the
    same box corner) that choice depends on visiting order on both
    sides.  The per-pair recheck still certifies every kept distance."""
    if items == ref:
        return True
    if len(items) != len(ref) or not ref:
        return False
    kth = ref[-1][0]
    return all(a == b or a[0] == b[0] == kth for a, b in zip(items, ref))


class QueryStream:
    """Everything the program is asked, as a pure function of the seed."""

    def __init__(self, data, seed: int):
        self.rng = np.random.default_rng(seed)
        self.trajectories = data.trajectories
        order = np.argsort([len(t) for t in self.trajectories],
                           kind="stable")
        self._chunks = np.array_split(order, STRATA)
        self._strata: list[list[int]] = [[] for _ in self._chunks]
        box = data.bounding_box()
        self._lo = (box.min_x, box.min_y)
        self._hi = (box.max_x, box.max_y)
        self._ids = itertools.count(QUERY_ID0)
        self._digest = hashlib.blake2b(digest_size=16)
        self.hot = self.cold_round()

    def cold(self, stratum: int) -> Trajectory:
        """An unused dataset trajectory of one length stratum."""
        pending = self._strata[stratum]
        if not pending:
            pending.extend(self.rng.permutation(self._chunks[stratum]))
        return self._issue(self.trajectories[pending.pop()])

    def cold_round(self, per_stratum: int = 1) -> list[Trajectory]:
        return [self.cold(s) for s in range(STRATA)
                for _ in range(per_stratum)]

    def hot_repeat(self) -> Trajectory:
        return self._issue(self.hot[self.rng.integers(len(self.hot))])

    def hot_jittered(self, traj_id: int | None = None) -> Trajectory:
        """A fresh near-copy of a hot query, clipped to the data box."""
        base = self.hot[self.rng.integers(len(self.hot))]
        points = base.points + self.rng.normal(0.0, JITTER_SIGMA,
                                               base.points.shape)
        return self._issue(Trajectory(
            np.clip(points, self._lo, self._hi),
            traj_id=next(self._ids) if traj_id is None else traj_id))

    def shuffled(self, items: list) -> list:
        return [items[i] for i in self.rng.permutation(len(items))]

    def _issue(self, traj: Trajectory) -> Trajectory:
        self._digest.update(traj.points.tobytes())
        return traj

    def digest(self) -> str:
        """Hash of every input issued so far, in order."""
        return self._digest.hexdigest()


class Counts:
    """Per-op sums of the counters the API's own reports carry."""

    def __init__(self):
        self.ops = self.plans = 0
        self.sums: Counter = Counter()

    def _stats(self, stats) -> None:
        for name in ("nodes_visited", "nodes_pruned", "leaf_refinements",
                     "distance_computations", "exact_refinements"):
            self.sums[name] += getattr(stats, name)

    def _plan(self, plan) -> None:
        if plan.waves:
            self.plans += 1
            self.sums["waves"] += len(plan.waves)
            self.sums["partitions_skipped"] += plan.partitions_skipped

    def single(self, outcome) -> None:
        self.ops += 1
        self._stats(outcome.result.stats)
        self._plan(outcome.plan)
        self.sums["probe_hits"] += outcome.plan.probe_cache_hits
        self.sums["probe_misses"] += outcome.plan.probe_cache_misses

    def batch(self, outcome) -> None:
        self.ops += 1
        report = outcome.plan
        for result, plan in zip(outcome.results, report.per_query):
            self._stats(result.stats)
            self._plan(plan)
        self.sums["probe_hits"] += report.probe_cache_hits
        self.sums["probe_misses"] += report.probe_cache_misses
        for name in ("tasks_dispatched", "queries_deduplicated",
                     "cross_query_tightenings", "query_distance_calls"):
            self.sums[name] += getattr(report, name)

    def metrics(self) -> dict[str, float]:
        s, ops = self.sums, max(self.ops, 1)
        probes = s["probe_hits"] + s["probe_misses"]
        seen = s["nodes_visited"] + s["nodes_pruned"]
        return {
            "cluster.planner.waves": s["waves"] / max(self.plans, 1),
            "cluster.planner.partitions_skipped":
                s["partitions_skipped"] / ops,
            "cluster.rdd.probe_cache_hit_frac":
                s["probe_hits"] / max(probes, 1),
            "cluster.batch.tasks_dispatched": s["tasks_dispatched"] / ops,
            "cluster.batch.queries_deduplicated":
                s["queries_deduplicated"] / ops,
            "cluster.batch.cross_query_tightenings":
                s["cross_query_tightenings"] / ops,
            "cluster.query_index.distance_calls":
                s["query_distance_calls"] / ops,
            "core.search.nodes_visited": s["nodes_visited"] / ops,
            "core.search.nodes_pruned": s["nodes_pruned"] / ops,
            "core.search.prune_frac": s["nodes_pruned"] / max(seen, 1),
            "distances.batch.leaf_refinements":
                s["leaf_refinements"] / ops,
            "distances.batch.candidates":
                s["distance_computations"] / ops,
            "distances.batch.exact_refinements":
                s["exact_refinements"] / ops,
            "distances.batch.exact_frac":
                s["exact_refinements"] / max(s["distance_computations"], 1),
        }


class Run:
    """One set-up run of a workload; subclasses define the op.

    Every stored time is in seconds at reference speed (see
    :func:`speed`); ``raw_busy_s`` keeps the timed ops' measured total
    so the run can say how fast the machine was.
    """

    root = "top_k"

    def __init__(self, spec: Workload, seed: int, smoke: bool = False,
                 tracer=None):
        marks: list[tuple] = []
        mark(marks)
        self.spec, self.tracer = spec, tracer
        self.measure = get_measure(spec.measure)
        self.data = preprocess(generate_dataset(
            spec.dataset, scale=spec.smoke_scale if smoke else spec.scale,
            seed=DATA_SEED))
        with BuildProxies(tracer) if tracer else contextlib.nullcontext(), \
                Bindings() as bindings:
            build_trie = RPTrie.build

            def marked_build(trie, trajectories):
                # A build lasts seconds and the machine changes speed
                # under it: take its speed before every partition.
                mark(marks)
                return build_trie(trie, trajectories)

            bindings.bind(RPTrie, "build", marked_build)
            mark(marks)
            first = len(marks) - 1
            self.engine = Repose.build(
                self.data, measure=spec.measure,
                delta=paper_delta(spec.dataset, spec.measure),
                num_partitions=PARTITIONS)
            mark(marks)
            last = len(marks) - 1
        self.stores = [index.trie.store
                       for index in self.engine.local_indexes()]
        self.stream = QueryStream(self.data, seed)
        self.inserted: dict[int, Trajectory] = {}
        self.counts = Counts()
        self.attempted = self.failed = self.queries = 0
        self.waits: list[float] = []         # one per untraced op
        self.traced_waits: list[float] = []  # one per traced op
        self.scans: list[float] = []
        self.busy_s = self.raw_busy_s = self.phase_s = 0.0
        self._recheck: list[tuple] = []
        self._oracle()
        self.warm_up()
        mark(marks)
        seconds = stretches(marks)
        self.build_s = sum(seconds[first:last])
        self.setup_s = sum(seconds)
        #: Traced op id -> its speed factor (-1: the build's spans).
        self.op_speed = {-1: self.build_s
                         / (marks[last][0] - marks[first][2])}

    # -- references ---------------------------------------------------------

    def scan(self, query: Trajectory, k: int):
        """The scan floor: the no-index answer and its seconds."""
        heap = ResultHeap(k)
        factor = speed()
        start = clock()
        for store in self.stores:
            refine_top_k(self.measure, query.points, list(store.ids()),
                         store, heap)
        seconds = (clock() - start) * factor
        self.phase_s += seconds
        return heap.sorted_items(), seconds

    def _oracle(self) -> None:
        """One query against a per-pair linear scan that shares neither
        bounds nor batch kernels with what it checks."""
        query, k = self.stream.hot[0], self.spec.k
        truth = sorted((self.measure.distance(query, t), t.traj_id)
                       for t in self.data)[:k]
        indexed = self.engine.top_k(query, k).result.items
        self.attempted += 1
        if not (same_answer(indexed, truth)
                and same_answer(self.scan(query, k)[0], truth)):
            self.fail(1, "oracle disagrees with index or scan floor")

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        print(f"FAILED ({ops} ops): {why}", file=sys.stderr)

    def judge(self, query, items, complete: bool, ref=None) -> None:
        """Count one answered query; ``ref`` is its scan-floor answer
        when it has one.  Distances are re-derived after the phase."""
        self.attempted += 1
        if not complete:
            self.fail(1, "incomplete outcome")
        elif ref is not None and not same_answer(items, ref):
            self.fail(1, f"answer differs from the scan floor: "
                         f"{items[:3]}... vs {ref[:3]}...")
        else:
            self._recheck.append((query, items))

    def trajectory(self, tid: int) -> Trajectory:
        return self.inserted[tid] if tid in self.inserted \
            else self.data.get(tid)

    def finish(self) -> None:
        """Post-phase checks: every reported distance, per pair."""
        for query, items in self._recheck:
            if any(self.measure.distance(query, self.trajectory(tid)) != d
                   for d, tid in items):
                self.fail(1, "a reported distance is not the per-pair one")
        self._recheck.clear()

    # -- timed phase --------------------------------------------------------

    def _schedule(self, seconds: float, rounds: int | None):
        """One entry per round — its proxies, or None for an untraced
        round — until the time (or the smoke round count) is up; traced
        and untraced rounds come in pairs.  Time is the reference-speed
        seconds of the ops and scan floors so far, so the same program
        completes the same rounds however fast the machine is."""
        self.phase_s = 0.0
        for done in itertools.count():
            paired = self.tracer is None or done % 2 == 0
            if rounds is not None:
                if done >= rounds:
                    return
            elif done and paired and self.phase_s >= seconds:
                return
            yield (None if paired else
                   QueryProxies(self.tracer, self.engine, self.root))

    def run(self, seconds: float, rounds: int | None = None) -> None:
        for proxies in self._schedule(seconds, rounds):
            with proxies or contextlib.nullcontext():
                self.round(traced=proxies is not None)
        self._ended()

    def _ended(self) -> None:
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.finish()

    def _record(self, raw: float, factor: float, traced: bool,
                queries: int, first_op: int) -> None:
        """Book one timed stretch that answered ``queries`` queries."""
        self.phase_s += raw * factor
        if traced:
            self.traced_waits.append(raw * factor)
            for op in range(first_op, self.tracer.op + 1):
                self.op_speed[op] = factor
        else:
            self.waits.append(raw * factor)
            self.busy_s += raw * factor
            self.raw_busy_s += raw
            self.queries += queries

    def _timed(self, call, traced: bool, queries: int):
        """Run one op; returns its outcome, or None if it raised.  An
        op that carries several queries is long enough for the machine
        to change speed under it, so it is bracketed."""
        first_op = self.tracer.op + 1 if traced else 0
        factor = speed()
        start = clock()
        try:
            outcome = call()
        except Exception:
            traceback.print_exc()
            self.attempted += queries
            self.fail(queries, "op raised")
            return None
        raw = clock() - start
        if queries > 1:
            factor = (factor + speed()) / 2
        self._record(raw, factor, traced, queries, first_op)
        return outcome

    # -- results ------------------------------------------------------------

    def latencies(self) -> np.ndarray:
        """Seconds each untraced caller waited for one answer: the wall
        of the call that carried it."""
        return np.array(self.waits)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        waits = self.latencies() * 1e3
        return {
            "setup_s": (self.setup_s, "s"),
            "build_s": (self.build_s, "s"),
            "index_mb": (self.engine.index_bytes() / 2 ** 20, "MiB"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
            "query_p50_ms": (float(np.median(waits)), "ms"),
            "query_p80_ms": (float(np.percentile(waits, 80)), "ms"),
            "queries_per_s": (self.queries / self.busy_s, "1/s"),
            "scan_p50_ms": (float(np.median(self.scans)) * 1e3, "ms"),
        }

    def machine_speed(self) -> float:
        """Measured seconds per reference second over the timed ops
        (above 1: the machine ran slower than the reference)."""
        return self.raw_busy_s / self.busy_s

    def index_vs_scan(self) -> float:
        """Index seconds per query over scan-floor seconds per query."""
        return (self.busy_s / self.queries) / float(np.mean(self.scans))

    def overhead_frac(self) -> float:
        """Traced over untraced seconds per op, minus one (a
        workload's ops all carry the same number of queries)."""
        return float(np.mean(self.traced_waits) / np.mean(self.waits)) - 1.0

    def service_metrics(self) -> dict[str, float]:
        return {}


class SingleRun(Run):
    """Distinct queries through ``engine.top_k``, each followed by its
    scan floor so drift cancels in ``index_vs_scan``."""

    def warm_up(self) -> None:
        for stratum in (0, STRATA - 1):
            self.engine.top_k(self.stream.cold(stratum), self.spec.k)

    def round(self, traced: bool) -> None:
        k = self.spec.k
        for query in self.stream.shuffled(self.stream.cold_round()):
            outcome = self._timed(lambda: self.engine.top_k(query, k),
                                  traced, 1)
            if outcome is None:
                continue
            ref, scan_s = self.scan(query, k)
            self.scans.append(scan_s)
            self.counts.single(outcome)
            self.judge(query, outcome.result.items, outcome.complete, ref)


class BatchRun(Run):
    """32-query batches through ``engine.top_k_batch``: a quarter hot
    repeats (drawn with replacement, so a batch holds exact duplicates),
    a quarter jittered copies of hot queries, half distinct cold ones."""

    root = "top_k_batch"

    def warm_up(self) -> None:
        self._refs = {q.points.tobytes(): self.scan(q, self.spec.k)[0]
                      for q in self.stream.hot}
        for _ in range(2):
            self.engine.top_k_batch(self.stream.cold_round(), self.spec.k)

    def next_batch(self) -> list[Trajectory]:
        stream, quarter = self.stream, BATCH // 4
        return stream.shuffled(
            [stream.hot_repeat() for _ in range(quarter)]
            + [stream.hot_jittered() for _ in range(quarter)]
            + stream.cold_round(2 * quarter // STRATA))

    def round(self, traced: bool) -> None:
        k, batch = self.spec.k, self.next_batch()
        outcome = self._timed(lambda: self.engine.top_k_batch(batch, k),
                              traced, len(batch))
        if outcome is None:
            return
        self.counts.batch(outcome)
        for slot, (query, result) in enumerate(zip(batch, outcome.results)):
            ref = self._refs.get(query.points.tobytes())
            if ref is None and slot % SCAN_EVERY == 0:
                ref, scan_s = self.scan(query, k)
                self.scans.append(scan_s)
            complete = not (outcome.failed_partitions
                            and outcome.failed_partitions[slot])
            self.judge(query, result.items, complete, ref)


@dataclass
class Request:
    """One served request: what was asked, what came back, between
    which insert counts, and when (raw clock; ``factor`` converts)."""

    query: Trajectory
    outcome: object
    visible: int
    started: int
    sent: float
    replied: float
    traced: bool
    factor: float = 1.0


class ServeRun(Run):
    """A closed loop of :data:`CLIENTS` callers, each awaiting its
    reply, through ``engine.serve()`` defaults.  One round is a segment
    of :data:`SEGMENT` requests per caller (half hot repeats, a quarter
    jittered, a quarter cold) during which the last caller also awaits
    one ``service.insert``.  Callers run in lock step, so the insert
    arrives behind the others' requests: it cuts their micro-batch
    short, waits for it, then rolls the index epoch."""

    root = "top_k_batch"

    def warm_up(self) -> None:
        # The service hands callers one query's slice of a batch, so
        # the batch-level report is only visible here.
        batch_call, outcomes = self.engine.top_k_batch, []

        def observed(*args, **kwargs):
            outcomes.append(batch_call(*args, **kwargs))
            return outcomes[-1]

        self.engine.top_k_batch = observed
        for stratum in (0, STRATA - 1):
            self.engine.top_k_batch([self.stream.cold(stratum)],
                                    self.spec.k)
        outcomes.clear()
        self._outcomes = outcomes
        self._requests: list[Request] = []
        self._insert_waits: list[tuple] = []
        self._inserts_started = self._inserts_done = 0

    def _plan(self) -> list[list[tuple]]:
        stream, plans = self.stream, []
        for client in range(CLIENTS):
            ops = []
            for i in range(SEGMENT):
                draw = stream.rng.random()
                if draw < 0.5:
                    query = stream.hot_repeat()
                elif draw < 0.75:
                    query = stream.hot_jittered()
                else:
                    query = stream.cold((client + i) % STRATA)
                ops.append(("query", query))
            plans.append(ops)
        traj = stream.hot_jittered(INSERT_ID0 + len(self.inserted))
        self.inserted[traj.traj_id] = traj
        plans[-1].insert(SEGMENT // 2, ("insert", traj))
        return plans

    async def _client(self, service, ops, traced: bool, sent: list) -> None:
        k = self.spec.k
        for kind, item in ops:
            start = clock()
            try:
                if kind == "insert":
                    self._inserts_started += 1
                    await service.insert(item)
                    self._inserts_done += 1
                    self.attempted += 1
                    self._insert_waits.append((clock() - start, traced))
                    continue
                visible = self._inserts_done
                outcome = await service.top_k(item, k)
            except Exception:
                traceback.print_exc()
                self.attempted += 1
                self.fail(1, f"{kind} raised")
                continue
            sent.append(Request(item, outcome, visible,
                                self._inserts_started, start, clock(),
                                traced))

    async def _segment(self, service, traced: bool) -> None:
        plans, sent = self._plan(), []
        first_op = self.tracer.op + 1 if traced else 0
        factor = speed()
        start = clock()
        await asyncio.gather(*(self._client(service, ops, traced, sent)
                               for ops in plans))
        raw = clock() - start
        factor = (factor + speed()) / 2
        for request in sent:
            request.factor = factor
        self._requests += sent
        self._record(raw, factor, traced, sum(len(p) for p in plans),
                     first_op)

    def run(self, seconds: float, rounds: int | None = None) -> None:
        async def main():
            async with self.engine.serve() as service:
                self.service = service
                for proxies in self._schedule(seconds, rounds):
                    with proxies or contextlib.nullcontext():
                        await self._segment(service,
                                            traced=proxies is not None)
        asyncio.run(main())
        self._ended()

    def latencies(self) -> np.ndarray:
        return np.array([(r.replied - r.sent) * r.factor
                         for r in self._requests if not r.traced])

    def finish(self) -> None:
        """Checks at the final index state.  A request answered while
        ``visible``..``started`` inserts had been applied must equal
        the scan floor with the later inserts filtered out, for one
        epoch in that window."""
        for outcome in self._outcomes:
            self.counts.batch(outcome)
        k, order = self.spec.k, sorted(self.inserted)
        epoch_of = {tid: i for i, tid in enumerate(order)}
        self.stores = [index.trie.store
                       for index in self.engine.local_indexes()]
        for n, request in enumerate(self._requests):
            items, ref = request.outcome.result.items, None
            if n % SCAN_EVERY == 0:
                wide, scan_s = self.scan(request.query, k + len(order))
                self.scans.append(scan_s)
                for epoch in range(request.visible, request.started + 1):
                    ref = [(d, tid) for d, tid in wide
                           if epoch_of.get(tid, -1) < epoch][:k]
                    if same_answer(items, ref):
                        break
            self.judge(request.query, items, request.outcome.complete, ref)
        super().finish()

    def service_metrics(self) -> dict[str, float]:
        """Serving-layer waits.  Queue wait and insert wait need the
        micro-batch and ``engine.insert`` spans, so they cover the
        traced segments; the rest covers every request."""
        spans = self.tracer.spans
        batches = sorted((rec[END], rec[START]) for rec in spans
                         if rec[NAME] == ROOT and rec[PARENT] == -1)
        ends = [end for end, _ in batches]
        queue_waits = []
        for r in self._requests:
            at = np.searchsorted(ends, r.replied) - 1
            if r.traced and at >= 0:
                queue_waits.append(
                    max(batches[at][1] - r.sent, 0.0) * r.factor)
        applies = [rec[END] - rec[START] for rec in spans
                   if rec[NAME] == "cluster.service.insert_apply_ms"]
        insert_waits = [wait for wait, traced in self._insert_waits
                        if traced]
        overheads = [(r.replied - r.sent - r.outcome.wall_seconds) * r.factor
                     for r in self._requests]
        stats, registry = self.service.stats, self.service.registry
        return {
            "cluster.service.queue_wait_ms":
                float(np.mean(queue_waits)) * 1e3 if queue_waits else 0.0,
            "cluster.service.overhead_ms": float(np.mean(overheads)) * 1e3,
            "cluster.service.batch_size_mean":
                float(np.mean(stats.batch_sizes)),
            "cluster.service.registry_hit_frac":
                registry.counters()["hits"] / max(len(self._requests), 1),
            "cluster.service.insert_wait_ms":
                float(np.mean(insert_waits) - np.mean(applies)) * 1e3
                if insert_waits and applies else 0.0,
        }


KINDS = {"single": SingleRun, "batch": BatchRun, "serve": ServeRun}


def make_run(name: str, seed: int, smoke: bool = False, tracer=None) -> Run:
    spec = WORKLOADS[name]
    return KINDS[spec.kind](spec, seed, smoke=smoke, tracer=tracer)
