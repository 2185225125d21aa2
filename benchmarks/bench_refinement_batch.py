"""BENCH_refinement — old vs new leaf refinement throughput.

Measures the batch refinement engine (this repo's vectorized candidate
screening plus batched banded/exact DPs, :mod:`repro.distances.batch`)
against the seed per-trajectory early-abandoning loop, in two
settings:

* **engine throughput** (candidates/second): refine one candidate batch
  against a warm k-th-best threshold, the state a leaf sees mid-search
  once earlier leaves have tightened ``dk``;
* **exact-refinement throughput**: the same batches with ``k`` equal to
  the candidate count, so no threshold ever prunes and every candidate
  pays its exact distance — this isolates the batched exact DP kernels
  (banded/batched DTW and Frechet sweeps) from the lower-bound screen.

End-to-end query time is ``benchmarks/e2e``'s business (searches have
had one refinement path since the candidate pool; there is no
per-trajectory search to compare with).  Both paths here are exact and
bit-identical (asserted here and property tested in
``tests/test_batch_refinement.py`` and ``tests/test_banded_dp.py``), so
this benchmark is a pure like-for-like performance comparison.
Results are printed as a table and persisted to
``benchmarks/results/BENCH_refinement.json`` so future PRs have a perf
trajectory to compare against.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench import BenchConfig, format_table, make_workload, write_report
from repro.bench.config import RESULTS_DIR
from repro.core.search import ResultHeap
from repro.core.store import TrajectoryStore
from repro.distances.base import get_measure
from repro.distances.batch import refine_top_k
from repro.distances.threshold import distance_with_threshold

CFG = BenchConfig.from_env()

MEASURES = ("hausdorff", "frechet", "dtw", "erp")
#: Candidate-batch size for the engine-throughput microbenchmark
#: (roughly one dense leaf / one linear-scan chunk).
BATCH_SIZE = 64
REPEATS = 5


def _timed(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _refinement_cell(measure_name: str, workload) -> dict:
    """Candidates/sec of old vs new refinement."""
    measure = get_measure(measure_name)
    trajectories = workload.dataset.trajectories
    store = TrajectoryStore(trajectories)
    query = workload.queries[0]
    tids = [t.traj_id for t in trajectories]

    # Warm threshold: the k-th best over the partition, i.e. the state
    # refinement sees once earlier leaves have filled the heap.
    warm = ResultHeap(CFG.k)
    for tid in tids:
        warm.offer(measure.distance(query.points, store.points_of(tid)), tid)

    batches = [tids[lo:lo + BATCH_SIZE]
               for lo in range(0, len(tids), BATCH_SIZE)]

    def run_batched():
        heap = warm.clone()
        for batch in batches:
            refine_top_k(measure, query.points, batch, store, heap)
        return heap

    def run_sequential():
        heap = warm.clone()
        for tid in tids:
            dist = distance_with_threshold(measure, query.points,
                                           store.points_of(tid), heap.dk)
            heap.offer(dist, tid)
        return heap

    assert run_batched().sorted_items() == run_sequential().sorted_items()
    new_seconds = _timed(run_batched)
    old_seconds = _timed(run_sequential)

    # Exact stage: k = candidate count, so the threshold never prunes
    # and every candidate pays its full exact distance — the batched
    # (banded) DP kernels against the per-pair DPs, nothing else.
    count = len(tids)

    def run_exact_batched():
        heap = ResultHeap(count)
        for batch in batches:
            refine_top_k(measure, query.points, batch, store, heap)
        return heap

    def run_exact_sequential():
        heap = ResultHeap(count)
        for tid in tids:
            dist = distance_with_threshold(measure, query.points,
                                           store.points_of(tid), heap.dk)
            heap.offer(dist, tid)
        return heap

    assert (run_exact_batched().sorted_items()
            == run_exact_sequential().sorted_items())
    exact_new_seconds = _timed(run_exact_batched)
    exact_old_seconds = _timed(run_exact_sequential)

    return {
        "candidates": count,
        "old_candidates_per_sec": count / old_seconds,
        "new_candidates_per_sec": count / new_seconds,
        "refine_speedup": old_seconds / new_seconds,
        "exact_old_candidates_per_sec": count / exact_old_seconds,
        "exact_new_candidates_per_sec": count / exact_new_seconds,
        "exact_speedup": exact_old_seconds / exact_new_seconds,
    }


def test_report_refinement():
    workload = make_workload("t-drive", "hausdorff", scale=CFG.scale,
                             num_queries=1, cap=min(CFG.cap, 600),
                             seed=CFG.seed)
    results = {}
    rows = []
    for name in MEASURES:
        cell = _refinement_cell(name, workload)
        results[name] = cell
        rows.append([name, cell["candidates"],
                     f"{cell['old_candidates_per_sec']:.0f}",
                     f"{cell['new_candidates_per_sec']:.0f}",
                     f"{cell['refine_speedup']:.2f}x",
                     f"{cell['exact_old_candidates_per_sec']:.0f}",
                     f"{cell['exact_new_candidates_per_sec']:.0f}",
                     f"{cell['exact_speedup']:.2f}x"])
    table = format_table(
        "Batch refinement engine vs per-trajectory loop "
        f"(k={CFG.k}, batch={BATCH_SIZE})",
        ["Measure", "Candidates", "Old cand/s", "New cand/s",
         "Refine speedup", "Exact old c/s", "Exact new c/s",
         "Exact speedup"], rows)
    write_report("refinement_batch", table)

    payload = {
        "config": {"k": CFG.k, "batch_size": BATCH_SIZE,
                   "scale": CFG.scale, "cap": min(CFG.cap, 600)},
        "measures": results,
    }
    path = RESULTS_DIR / "BENCH_refinement.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[refinement benchmark saved to {path}]")

    # Acceptance: the vectorized engine at least doubles refinement
    # throughput for Hausdorff and DTW on the synthetic workload.  The
    # threshold is env-tunable so CI smoke runs on noisy shared runners
    # can use a regression-catching margin instead of the full 2x.
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))
    for name in ("hausdorff", "dtw"):
        assert results[name]["refine_speedup"] >= min_speedup, (
            name, results[name]["refine_speedup"], min_speedup)
    # The batched exact DP kernels must beat the per-pair DPs when
    # nothing prunes (the pure exact-refinement stage) for the two
    # DP-dominated measures this PR targets.
    min_exact = float(os.environ.get("REPRO_BENCH_MIN_EXACT_SPEEDUP",
                                     "1.5"))
    for name in ("dtw", "frechet"):
        assert results[name]["exact_speedup"] >= min_exact, (
            name, results[name]["exact_speedup"], min_exact)


if __name__ == "__main__":
    test_report_refinement()
