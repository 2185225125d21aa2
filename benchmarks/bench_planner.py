"""BENCH_planner — single-shot fan-out vs the two-phase wave planner.

Runs the same skewed synthetic workload (queries drawn from the
dataset's hot region, so partition promise varies sharply) through
``plan="single"`` and ``plan="waves"`` and records, per measure:

* exact refinements (full exact-distance evaluations) — the work
  threshold propagation exists to remove;
* candidates refined and trie nodes pruned;
* partitions skipped outright by the probe phase and the number of
  finite threshold broadcasts;
* wall and simulated (barrier-aware) query times.

Both plans are exact and bit-identical (asserted here per query and
property-tested in ``tests/test_planner.py``), so every delta below is
pure work saved.  Results are printed as a table and persisted to
``benchmarks/results/BENCH_planner.json`` for the perf trajectory.
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench import BenchConfig, format_table, make_workload, write_report
from repro.bench.config import RESULTS_DIR
from repro.repose import Repose

CFG = BenchConfig.from_env()

MEASURES = ("hausdorff", "frechet", "dtw", "erp")
NUM_PARTITIONS = 16
WAVE_SIZE = 4
K = 10
NUM_QUERIES = 4


def _skewed_queries(workload, count: int) -> list:
    """Queries biased towards the densest corner of the dataset: the
    batch-analysis skew of Section V-A, which is where promise-ordered
    waves pay off most."""
    trajs = workload.dataset.trajectories
    box = workload.dataset.bounding_box()
    anchor = np.array([box.min_x, box.min_y])

    def corner_distance(t):
        return float(np.linalg.norm(t.points.mean(axis=0) - anchor))

    ranked = sorted(trajs, key=corner_distance)
    return ranked[:count]


def _planner_cell(measure_name: str, workload) -> dict:
    """Single-shot vs waved counters for one measure."""
    engine = Repose.build(workload.dataset, measure=measure_name,
                          delta=workload.delta,
                          num_partitions=NUM_PARTITIONS, plan="waves",
                          plan_options={"wave_size": WAVE_SIZE})
    queries = _skewed_queries(workload, NUM_QUERIES)

    cell = {
        "queries": len(queries),
        "num_partitions": NUM_PARTITIONS,
        "wave_size": WAVE_SIZE,
        "k": K,
    }
    totals = {"single": {}, "waves": {}}
    for mode in ("single", "waves"):
        exact = refined = pruned = 0
        skipped = broadcasts = 0
        wall = simulated = 0.0
        results = []
        for query in queries:
            outcome = engine.top_k(query, K, plan=mode)
            stats = outcome.result.stats
            exact += stats.exact_refinements
            refined += stats.distance_computations
            pruned += stats.nodes_pruned
            skipped += stats.partitions_skipped
            broadcasts += stats.threshold_broadcasts
            wall += outcome.wall_seconds
            simulated += outcome.simulated_seconds
            results.append(outcome.result.items)
        totals[mode] = {
            "exact_refinements": exact,
            "candidates_refined": refined,
            "nodes_pruned": pruned,
            "partitions_skipped": skipped,
            "threshold_broadcasts": broadcasts,
            "wall_seconds": wall,
            "simulated_seconds": simulated,
            "_results": results,
        }

    # Bit-identity is the planner's contract: assert it on every query.
    assert totals["single"]["_results"] == totals["waves"]["_results"]
    for mode in totals:
        del totals[mode]["_results"]
    cell.update(single=totals["single"], waves=totals["waves"])
    single, waves = totals["single"], totals["waves"]
    cell["exact_refinements_saved"] = (
        single["exact_refinements"] - waves["exact_refinements"])
    cell["refine_reduction"] = (
        1.0 - waves["exact_refinements"]
        / max(single["exact_refinements"], 1))
    return cell


def test_report_planner():
    """Benchmark entry point (also runnable under pytest)."""
    workload = make_workload("t-drive", "hausdorff", scale=CFG.scale,
                             num_queries=1, cap=min(CFG.cap, 600),
                             seed=CFG.seed)
    results = {}
    rows = []
    for name in MEASURES:
        cell = _planner_cell(name, workload)
        results[name] = cell
        rows.append([
            name,
            cell["single"]["exact_refinements"],
            cell["waves"]["exact_refinements"],
            f"{cell['refine_reduction']:.0%}",
            cell["waves"]["partitions_skipped"],
            cell["waves"]["threshold_broadcasts"],
            cell["single"]["nodes_pruned"],
            cell["waves"]["nodes_pruned"],
        ])
    table = format_table(
        "Query planner: single-shot vs waves "
        f"(k={K}, partitions={NUM_PARTITIONS}, wave={WAVE_SIZE}, "
        f"skewed queries={NUM_QUERIES})",
        ["Measure", "Exact single", "Exact waves", "Saved",
         "Parts skipped", "Broadcasts", "Pruned single", "Pruned waves"],
        rows)
    write_report("planner", table)

    payload = {
        "config": {"k": K, "num_partitions": NUM_PARTITIONS,
                   "wave_size": WAVE_SIZE, "num_queries": NUM_QUERIES,
                   "scale": CFG.scale, "cap": min(CFG.cap, 600)},
        "measures": results,
    }
    path = RESULTS_DIR / "BENCH_planner.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[planner benchmark saved to {path}]")

    # Acceptance: on the skewed workload, threshold propagation must
    # strictly reduce exact refinements for every bounded measure.
    for name in MEASURES:
        cell = results[name]
        assert (cell["waves"]["exact_refinements"]
                < cell["single"]["exact_refinements"]), (
            name, cell["waves"]["exact_refinements"],
            cell["single"]["exact_refinements"])


if __name__ == "__main__":
    test_report_planner()
