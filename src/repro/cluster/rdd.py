"""A miniature RDD: lazy, partitioned, in-memory collections.

Mirrors the slice of the Spark Core API the paper uses (Section V-C):
``parallelize``, ``map``, ``filter``, ``mapPartitions``, ``collect``,
``count``, plus partitioning control via
:class:`~repro.cluster.partitioner.Partitioner`.  Transformations are
lazy — each RDD records its parent and a per-partition function — and
actions trigger execution through an
:class:`~repro.cluster.engine.ExecutionEngine`, which records the
per-partition task durations used by the simulated scheduler.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import (ExecutionEngine, TaskTiming, WorkloadHints,
                     require_results)
from .partitioner import Partitioner

__all__ = ["ProbeCache", "ClusterContext", "RDD"]


class ProbeCache:
    """Driver-side cache of planner partition probes, epoch-invalidated.

    A probe (:class:`~repro.core.search.PartitionProbe`) is a pure
    function of the query, the shared query-pivot distances and the
    partition's index, and the query planners re-probe every partition
    on every planned query.  A stream of repeated queries — the same
    trajectory issued in consecutive batches — therefore
    recomputes identical probes.  This cache memoizes them per
    ``(partition id, query fingerprint)`` for the current *index epoch*:
    any index rebuild or incremental insert bumps the epoch
    (:meth:`bump_epoch`), dropping every cached probe, because a changed
    partition's bounds are new.  Capacity-bounded, evicting oldest
    entries first; :attr:`hits`/:attr:`misses` expose effectiveness.

    The epoch is also the driver's *index epoch*: any derived cache
    whose validity depends on the indexes not having changed (the
    serving layer's :class:`~repro.cluster.service.HotQueryRegistry`)
    can :meth:`subscribe` to epoch rolls and drop its own state in the
    same moment probes are dropped, so no reader anywhere observes
    state from a previous epoch.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self._entries: dict[tuple, object] = {}
        self._listeners: list[Callable[[int], None]] = []

    def subscribe(self, listener: Callable[[int], None]) -> None:
        """Register ``listener(new_epoch)`` to be called on every
        :meth:`bump_epoch`, synchronously and in subscription order.

        Listeners let epoch-stamped derived caches (the hot-query
        registry) invalidate eagerly instead of lazily checking the
        epoch on every read — a write (insert/rebuild) then leaves no
        stale entry behind for any reader to race with.
        """
        self._listeners.append(listener)

    @staticmethod
    def fingerprint(query, dqp=None) -> bytes | None:
        """Content fingerprint of one probe input, or None when the
        query exposes no point array (caching is then skipped)."""
        points = getattr(query, "points", None)
        if points is None:
            return None
        digest = hashlib.blake2b(
            np.ascontiguousarray(points).tobytes(), digest_size=16)
        if dqp is not None:
            digest.update(np.ascontiguousarray(dqp).tobytes())
        return digest.digest()

    def bump_epoch(self) -> None:
        """Invalidate every cached probe (the indexes changed) and
        notify every subscribed listener of the new epoch."""
        self.epoch += 1
        self._entries.clear()
        for listener in self._listeners:
            listener(self.epoch)

    def counters(self) -> tuple[int, int]:
        """Current ``(hits, misses)`` snapshot.

        The planners diff two snapshots around one plan's probe phase
        to attribute cache effectiveness to that plan's report —
        share-group members never probe at all, so their fingerprints
        appear in neither counter (the saving shows up as the *absence*
        of lookups, reported separately as ``queries_shared``).
        """
        return self.hits, self.misses

    def get(self, partition_id: int, fingerprint: bytes):
        """The cached probe for this (partition, query), or None."""
        probe = self._entries.get((partition_id, fingerprint))
        if probe is None:
            self.misses += 1
        else:
            self.hits += 1
        return probe

    def put(self, partition_id: int, fingerprint: bytes, probe) -> None:
        """Cache one computed probe, evicting the oldest entry at
        capacity."""
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[(partition_id, fingerprint)] = probe


class _MapTransform:
    """Element-wise transform (module level so process pools can
    pickle the task chain when the user function is picklable)."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, part: list) -> list:
        return [self.fn(element) for element in part]


class _FilterTransform:
    def __init__(self, predicate: Callable):
        self.predicate = predicate

    def __call__(self, part: list) -> list:
        return [e for e in part if self.predicate(e)]


class _MapPartitionsTransform:
    def __init__(self, fn: Callable[[list], Iterable]):
        self.fn = fn

    def __call__(self, part: list) -> list:
        return list(self.fn(part))


class _FlatMapTransform:
    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, part: list) -> list:
        out: list = []
        for element in part:
            out.extend(self.fn(element))
        return out


class _PartitionTask:
    """One partition's data plus its transformation chain."""

    __slots__ = ("partition", "chain")

    def __init__(self, partition: list, chain: list):
        self.partition = partition
        self.chain = chain

    def __call__(self) -> list:
        current = self.partition
        for fn in self.chain:
            current = fn(current)
        return current


class ClusterContext:
    """Entry point, playing the role of Spark's ``SparkContext``."""

    def __init__(self, engine: ExecutionEngine | None = None):
        #: Measured cost-model rates persisted by
        #: :meth:`repro.repose.DistributedTopK.calibrate`.  Assigning a
        #: new :attr:`engine` re-seeds it from this dict, so
        #: calibration outlives any single engine.  (Set before the
        #: engine so the setter can read it.)
        self.calibration: dict[str, float] = {}
        self.engine = engine if engine is not None else ExecutionEngine()
        self.last_timings: list[TaskTiming] = []
        #: Wave-aware task accounting: per-wave timing lists of the most
        #: recent action.  Single-shot actions record one wave; the
        #: query planner records one entry per dispatched wave, which is
        #: what the barrier-aware makespan simulation
        #: (:func:`repro.cluster.scheduler.simulate_schedule_waves`)
        #: consumes.  ``last_timings`` stays the flat concatenation.
        self.last_wave_timings: list[list[TaskTiming]] = []
        #: Workload hints forwarded to the engine on every action, so
        #: an ``"auto"`` engine can pick a backend per dispatch.  The
        #: driver (:class:`repro.repose.DistributedTopK`) refreshes
        #: this before each build/query; plain RDD users may leave it
        #: None (the engine then stays on its deterministic default).
        self.hints: WorkloadHints | None = None
        #: Planner probe memoization (see :class:`ProbeCache`).  The
        #: driver bumps its epoch whenever indexes are (re)built or a
        #: trajectory is inserted, so stale probes can never be served.
        self.probe_cache = ProbeCache()

    @property
    def engine(self) -> ExecutionEngine:
        """The execution engine running this context's actions."""
        return self._engine

    @engine.setter
    def engine(self, engine: ExecutionEngine) -> None:
        """Install ``engine``, seeding it with any persisted calibration
        (engine-measured rates win over previously stored ones)."""
        for measure, rate in self.calibration.items():
            engine.calibrated_cost_us.setdefault(measure, rate)
        self._engine = engine

    def record_timings(self,
                       wave_timings: Sequence[list[TaskTiming]]) -> None:
        """Record one action's per-wave task timings (flat + waved)."""
        self.last_wave_timings = [list(w) for w in wave_timings]
        self.last_timings = [t for wave in self.last_wave_timings
                             for t in wave]

    def parallelize(self, data: Iterable, num_partitions: int = 4,
                    partitioner: Partitioner | None = None) -> "RDD":
        """Distribute ``data`` into partitions.

        Without a partitioner, elements are split into equal-size
        contiguous chunks (Spark's default for ``parallelize``).
        """
        items = list(data)
        if partitioner is not None:
            partitions = partitioner.split(items)
        else:
            partitions = _chunk(items, num_partitions)
        return RDD(self, source_partitions=partitions)

    def from_partitions(self, partitions: Sequence[list]) -> "RDD":
        """Wrap pre-materialized partitions (used by the strategies)."""
        return RDD(self, source_partitions=[list(p) for p in partitions])


class RDD:
    """A lazy, partitioned collection.

    Each RDD is either a source (materialized partitions) or a
    transformation of a parent, holding a function applied to one whole
    partition at a time.
    """

    def __init__(self, context: ClusterContext,
                 source_partitions: list[list] | None = None,
                 parent: "RDD | None" = None,
                 transform: Callable[[list], list] | None = None):
        self.context = context
        self._source = source_partitions
        self._parent = parent
        self._transform = transform
        if (source_partitions is None) == (parent is None):
            raise ValueError("RDD needs exactly one of source or parent")

    # -- transformations (lazy) --------------------------------------------

    def map(self, fn: Callable) -> "RDD":
        """Element-wise transformation."""
        return RDD(self.context, parent=self, transform=_MapTransform(fn))

    def filter(self, predicate: Callable) -> "RDD":
        """Keep elements satisfying ``predicate``."""
        return RDD(self.context, parent=self,
                   transform=_FilterTransform(predicate))

    def map_partitions(self, fn: Callable[[list], Iterable]) -> "RDD":
        """Transform one whole partition at a time (Spark's
        ``mapPartitions``) — the operation REPOSE uses to build and
        query per-partition RP-Tries."""
        return RDD(self.context, parent=self,
                   transform=_MapPartitionsTransform(fn))

    def flat_map(self, fn: Callable) -> "RDD":
        """Map each element to an iterable and flatten the results."""
        return RDD(self.context, parent=self, transform=_FlatMapTransform(fn))

    # -- actions (eager) -----------------------------------------------------

    @property
    def num_partitions(self) -> int:
        """Partition count of the source RDD this chain derives from."""
        rdd: RDD = self
        while rdd._source is None:
            rdd = rdd._parent  # type: ignore[assignment]
        return len(rdd._source)

    def collect(self) -> list:
        """Materialize every partition and concatenate the results."""
        parts = self.collect_partitions()
        out: list = []
        for part in parts:
            out.extend(part)
        return out

    def collect_partitions(self) -> list[list]:
        """Materialize and return per-partition lists.

        Also records per-partition task timings on the context
        (``context.last_timings``).  Collect is an all-or-nothing
        action: if any partition task failed terminally (possible only
        under a :class:`~repro.cluster.engine.FaultPolicy`), raises
        :class:`~repro.exceptions.TaskFailedError` — partial
        collections would silently drop data.
        """
        chain: list[Callable[[list], list]] = []
        rdd: RDD = self
        while rdd._source is None:
            chain.append(rdd._transform)  # type: ignore[arg-type]
            rdd = rdd._parent  # type: ignore[assignment]
        chain.reverse()
        source = rdd._source

        tasks = [_PartitionTask(part, chain) for part in source]
        outcomes, timings = self.context.engine.run(
            tasks, hints=self.context.hints)
        self.context.record_timings([timings])
        return require_results(outcomes)

    def count(self) -> int:
        """Number of elements across every materialized partition."""
        return sum(len(part) for part in self.collect_partitions())

    def reduce(self, fn: Callable) -> object:
        """Left-fold the collected elements with ``fn`` (non-empty)."""
        items = self.collect()
        if not items:
            raise ValueError("reduce of empty RDD")
        acc = items[0]
        for item in items[1:]:
            acc = fn(acc, item)
        return acc


def _chunk(items: list, num_partitions: int) -> list[list]:
    """Split into ``num_partitions`` contiguous, near-equal chunks."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    base, extra = divmod(len(items), num_partitions)
    partitions = []
    start = 0
    for pid in range(num_partitions):
        size = base + (1 if pid < extra else 0)
        partitions.append(items[start:start + size])
        start += size
    return partitions
