"""Mini Spark-like execution substrate.

The paper runs REPOSE on Spark (Section V-C): trajectories and the local
RP-Trie are packaged into an ``RpTrieRDD`` and manipulated with
``mapPartitions``/``collect``.  This subpackage provides the equivalent
substrate for a single machine:

* :class:`~repro.cluster.rdd.ClusterContext` /
  :class:`~repro.cluster.rdd.RDD` — lazy partitioned collections with
  ``map``, ``filter``, ``map_partitions``, ``collect``;
* :class:`~repro.cluster.partitioner.Partitioner` — Spark's abstract
  partitioner, subclassed by the global partitioning strategies;
* :mod:`~repro.cluster.engine` — execution backends that record
  per-partition task durations;
* :mod:`~repro.cluster.scheduler` — a simulated ``W x C``-core cluster
  that schedules recorded task durations and reports the makespan, which
  stands in for wall-clock query time on the paper's 16-node cluster
  (see DESIGN.md, substitutions);
* :mod:`~repro.cluster.planner` — the two-phase query planner: probe
  partitions for first-level lower bounds, dispatch them in promise
  order through coordinated waves, and broadcast the tightening global
  k-th-best distance into every later wave's local searches (reports,
  per-query planning, the wave builder and failure fold, range
  queries);
* :mod:`~repro.cluster.batch` — the top-k wave loop at any batch width
  (a single query is a batch of one): shared (cached) probes,
  partition-affinity task grouping, and a per-query threshold vector
  with cross-query triangle-inequality reuse;
* :mod:`~repro.cluster.query_index` — the driver-side metric index
  (mutable VP-tree with content-fingerprint prefilter and a shared
  pair cache) the batch planner's query scans — share clustering,
  cross-query tightening, registry neighbor lookups — run against.
"""

from .rdd import RDD, ClusterContext, ProbeCache
from .partitioner import (
    HashPartitioner,
    ListPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from .engine import ExecutionEngine, TaskTiming
from .scheduler import (
    ClusterSpec,
    ScheduleReport,
    lpt_order,
    simulate_schedule,
    simulate_schedule_waves,
)
from .driver import RunningTopK, RunningTopKVector, merge_range, merge_top_k
from .planner import PlanReport, QueryPlanner, WaveReport
from .query_index import QueryIndex
from .batch import BatchPlanReport, BatchQueryPlanner

__all__ = [
    "RDD",
    "ClusterContext",
    "ProbeCache",
    "Partitioner",
    "HashPartitioner",
    "RoundRobinPartitioner",
    "ListPartitioner",
    "ExecutionEngine",
    "TaskTiming",
    "ClusterSpec",
    "ScheduleReport",
    "lpt_order",
    "simulate_schedule",
    "simulate_schedule_waves",
    "RunningTopK",
    "RunningTopKVector",
    "merge_top_k",
    "merge_range",
    "QueryPlanner",
    "PlanReport",
    "WaveReport",
    "BatchQueryPlanner",
    "BatchPlanReport",
    "QueryIndex",
]
