"""BENCH_batch_planner — per-query waved execution vs the batch planner.

Runs a skewed multi-query workload — queries drawn from the dataset's
hot corner (the batch-analysis skew of Section V-A), with two of them
repeated, the way production streams re-issue hot queries — through
three executions per measure:

* ``single``   — per-query one-shot fan-out (the exactness reference);
* ``per_query``— per-query waved plans (PR 3's planner, one plan per
  query: ``queries x partitions`` task inflation, no sharing);
* ``batch``    — ``top_k_batch(plan="waves")``: one shared probe pass
  (served from the epoch-invalidated probe cache on repeats),
  fingerprint-identical queries deduplicated, partition-affinity task
  grouping through ``local_search_multi``, and a per-query threshold
  vector cross-tightened by the triangle inequality for metric
  measures.

Recorded per measure: dispatched tasks, executed (query, partition)
searches, exact refinements, probe-cache hits, cross-query
tightenings, wall and simulated (barrier-aware) times.  All three
executions are exact and bit-identical per query (asserted here;
property-tested in ``tests/test_batch_planner.py``), so every delta is
pure work saved.  Results are persisted to
``benchmarks/results/BENCH_batch_planner.json``.

Acceptance (asserted, also run in CI): for every measure the batch
plan dispatches strictly fewer tasks than per-query waved execution
while refining at most as much, and across the whole workload it
performs strictly fewer exact refinements.
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench import BenchConfig, format_table, make_workload, write_report
from repro.bench.config import RESULTS_DIR
from repro.repose import Repose

CFG = BenchConfig.from_env()

MEASURES = ("hausdorff", "frechet", "dtw", "erp", "edr")
NUM_PARTITIONS = 16
WAVE_SIZE = 2
K = 20
NUM_DISTINCT = 4
NUM_REPEATS = 2
NUM_QUERIES = NUM_DISTINCT + NUM_REPEATS


def _skewed_queries(workload, count: int) -> list:
    """Queries biased towards the densest corner of the dataset — the
    partition-affinity case the batch planner exists for — with the
    first :data:`NUM_REPEATS` of them re-issued at the end of the
    batch, the way production streams repeat hot queries."""
    trajs = workload.dataset.trajectories
    box = workload.dataset.bounding_box()
    anchor = np.array([box.min_x, box.min_y])

    def corner_distance(t):
        return float(np.linalg.norm(t.points.mean(axis=0) - anchor))

    ranked = sorted(trajs, key=corner_distance)
    distinct = ranked[:count - NUM_REPEATS]
    return distinct + distinct[:NUM_REPEATS]


def _batch_cell(measure_name: str, workload) -> dict:
    """Per-query waved vs batched counters for one measure."""
    engine = Repose.build(workload.dataset, measure=measure_name,
                          delta=workload.delta,
                          num_partitions=NUM_PARTITIONS, plan="waves",
                          plan_options={"wave_size": WAVE_SIZE})
    queries = _skewed_queries(workload, NUM_QUERIES)
    cache = engine.context.probe_cache

    cell = {
        "queries": len(queries),
        "num_partitions": NUM_PARTITIONS,
        "wave_size": WAVE_SIZE,
        "k": K,
    }

    # Exactness reference: per-query single-shot.
    reference = [engine.top_k(q, K, plan="single").result.items
                 for q in queries]

    # Per-query waved plans (one full plan per query).
    per_query = {"tasks": 0, "exact_refinements": 0,
                 "partitions_skipped": 0, "wall_seconds": 0.0,
                 "simulated_seconds": 0.0}
    for query, expected in zip(queries, reference):
        outcome = engine.top_k(query, K, plan="waves")
        assert outcome.result.items == expected
        per_query["tasks"] += sum(len(w.partitions)
                                  for w in outcome.plan.waves)
        per_query["exact_refinements"] += \
            outcome.result.stats.exact_refinements
        per_query["partitions_skipped"] += \
            outcome.result.stats.partitions_skipped
        per_query["wall_seconds"] += outcome.wall_seconds
        per_query["simulated_seconds"] += outcome.simulated_seconds

    # The batched wave plan (probes now served from the cache).
    hits_before, misses_before = cache.hits, cache.misses
    batch_outcome = engine.top_k_batch(queries, K, plan="waves")
    for result, expected in zip(batch_outcome.results, reference):
        assert result.items == expected
    report = batch_outcome.plan
    batch = {
        "tasks": report.tasks_dispatched,
        "partition_queries": report.partition_queries_dispatched,
        "queries_per_task": (report.grouped_queries
                             / max(report.tasks_dispatched, 1)),
        "exact_refinements": sum(r.stats.exact_refinements
                                 for r in batch_outcome.results),
        "partitions_skipped": report.partitions_skipped,
        "cross_query_tightenings": report.cross_query_tightenings,
        "queries_deduplicated": report.queries_deduplicated,
        "probe_cache_hits": cache.hits - hits_before,
        "probe_cache_misses": cache.misses - misses_before,
        "wall_seconds": batch_outcome.wall_seconds,
        "simulated_seconds": batch_outcome.simulated_seconds,
    }

    cell.update(per_query=per_query, batch=batch)
    cell["tasks_saved"] = per_query["tasks"] - batch["tasks"]
    cell["task_reduction"] = 1.0 - batch["tasks"] / max(
        per_query["tasks"], 1)
    cell["exact_refinements_saved"] = (per_query["exact_refinements"]
                                       - batch["exact_refinements"])
    return cell


def test_report_batch_planner():
    """Benchmark entry point (also runnable under pytest)."""
    workload = make_workload("t-drive", "hausdorff", scale=CFG.scale,
                             num_queries=1, cap=min(CFG.cap, 600),
                             seed=CFG.seed)
    results = {}
    rows = []
    for name in MEASURES:
        cell = _batch_cell(name, workload)
        results[name] = cell
        rows.append([
            name,
            cell["per_query"]["tasks"],
            cell["batch"]["tasks"],
            f"{cell['task_reduction']:.0%}",
            f"{cell['batch']['queries_per_task']:.2f}",
            cell["per_query"]["exact_refinements"],
            cell["batch"]["exact_refinements"],
            cell["batch"]["queries_deduplicated"],
            cell["batch"]["cross_query_tightenings"],
            cell["batch"]["probe_cache_hits"],
        ])
    table = format_table(
        "Batch planner: per-query waved vs batched "
        f"(k={K}, partitions={NUM_PARTITIONS}, wave={WAVE_SIZE}, "
        f"skewed queries={NUM_QUERIES} incl. {NUM_REPEATS} repeats)",
        ["Measure", "Tasks/query", "Tasks batch", "Saved", "Q/task",
         "Exact/query", "Exact batch", "Dedup", "Cross-tighten",
         "Probe hits"],
        rows)
    write_report("batch_planner", table)

    payload = {
        "config": {"k": K, "num_partitions": NUM_PARTITIONS,
                   "wave_size": WAVE_SIZE, "num_queries": NUM_QUERIES,
                   "scale": CFG.scale, "cap": min(CFG.cap, 600)},
        "measures": results,
    }
    path = RESULTS_DIR / "BENCH_batch_planner.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[batch planner benchmark saved to {path}]")

    # Acceptance: grouping and dedup must strictly reduce dispatched
    # tasks AND exact refinements for every measure on the skewed
    # repeated-query workload, and the probe cache must serve every
    # batch probe.
    for name in MEASURES:
        cell = results[name]
        assert cell["batch"]["tasks"] < cell["per_query"]["tasks"], (
            name, cell["batch"]["tasks"], cell["per_query"]["tasks"])
        assert (cell["batch"]["exact_refinements"]
                < cell["per_query"]["exact_refinements"]), name
        assert cell["batch"]["queries_deduplicated"] == NUM_REPEATS, name
        assert cell["batch"]["probe_cache_misses"] == 0, name


if __name__ == "__main__":
    test_report_batch_planner()
