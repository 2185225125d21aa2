"""BENCH_kernels — compiled DP kernel tier vs the numpy sweeps.

Times the five exact elastic DP families (row-sweep DTW, anti-diagonal
Frechet, the ERP gap-point edit DP, and the EDR/LCSS edit sweeps)
through the kernel registry (:mod:`repro.distances.kernels`) on the
same candidate stacks, once per available backend, and reports exact-DP
candidates/second.  Before timing, every backend's values are asserted
**bit-identical** to the numpy sweep (the registry's equivalence
contract, ``TOLERANCES`` all 0.0), so the comparison is strictly
like-for-like.

Acceptance (env-tunable for noisy CI runners): the best compiled
backend must reach ``REPRO_BENCH_KERNELS_MIN_ERP`` (default 3.0) times
numpy throughput for ERP and ``REPRO_BENCH_KERNELS_MIN`` (default 2.0)
times for DTW/Frechet/EDR/LCSS.  When no compiled backend is available
(no C compiler) the benchmark still writes the
numpy baseline but skips the speedup assertions.

Results persist to ``benchmarks/results/BENCH_kernels.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.bench import BenchConfig, format_table, make_workload, write_report
from repro.bench.config import RESULTS_DIR
from repro.distances.batch import (
    batch_match_tensor,
    batch_point_distance_tensor,
)
from repro.distances.erp import DEFAULT_GAP
from repro.distances.kernels import available_backends, get_kernels

CFG = BenchConfig.from_env()

FAMILIES = ("dtw", "frechet", "erp", "edr", "lcss")
EPS = 0.35
REPEATS = 5


def _candidate_stack(workload):
    """Pad the workload's trajectories into one candidate stack."""
    trajectories = workload.dataset.trajectories
    query = workload.queries[0].points
    lengths = np.array([len(t) for t in trajectories], dtype=np.int64)
    width = int(lengths.max())
    padded = np.full((len(trajectories), width, 2), np.inf)
    for c, traj in enumerate(trajectories):
        padded[c, : len(traj)] = traj.points
    return query, padded, lengths


def _kernel_args(family: str, query, padded):
    if family in ("edr", "lcss"):
        return (batch_match_tensor(query, padded, EPS),)
    dm = batch_point_distance_tensor(query, padded)
    if family == "erp":
        g = np.asarray(DEFAULT_GAP)
        ga = np.hypot(query[:, 0] - g[0], query[:, 1] - g[1])
        with np.errstate(invalid="ignore"):
            gb = np.hypot(padded[:, :, 0] - g[0], padded[:, :, 1] - g[1])
        return dm, ga, gb
    return (dm,)


def _timed(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_report_kernels():
    workload = make_workload("t-drive", "dtw", scale=CFG.scale,
                             num_queries=1, cap=min(CFG.cap, 600),
                             seed=CFG.seed)
    query, padded, lengths = _candidate_stack(workload)
    count = len(lengths)
    backends = available_backends()
    compiled = [b for b in backends if b != "numpy"]

    results: dict[str, dict] = {}
    rows = []
    for family in FAMILIES:
        args = _kernel_args(family, query, padded)
        cell: dict[str, float | dict] = {"candidates": count,
                                         "backends": {}}
        base_fn = getattr(get_kernels("numpy"), f"{family}_exact")
        base_vals, base_mask = base_fn(*args, lengths, dk=np.inf)
        assert base_mask.all()
        base_seconds = _timed(lambda: base_fn(*args, lengths, dk=np.inf))
        cell["backends"]["numpy"] = {
            "candidates_per_sec": count / base_seconds}
        best_speedup = 0.0
        best_backend = "numpy"
        for name in compiled:
            fn = getattr(get_kernels(name), f"{family}_exact")
            # The equivalence contract, asserted on the benchmark's own
            # workload: exact values bit-identical, everything exact.
            vals, mask = fn(*args, lengths, dk=np.inf)
            assert mask.all(), (family, name)
            assert np.array_equal(vals, base_vals), (family, name)
            # Warm once (cnative dlopen), then time.
            seconds = _timed(lambda: fn(*args, lengths, dk=np.inf))
            speedup = base_seconds / seconds
            cell["backends"][name] = {
                "candidates_per_sec": count / seconds,
                "speedup_vs_numpy": speedup,
            }
            if speedup > best_speedup:
                best_speedup, best_backend = speedup, name
        cell["best_backend"] = best_backend
        cell["best_speedup"] = best_speedup
        results[family] = cell
        row = [family, count, f"{count / base_seconds:.0f}"]
        for name in compiled:
            info = cell["backends"][name]
            row.append(f"{info['candidates_per_sec']:.0f} "
                       f"({info['speedup_vs_numpy']:.2f}x)")
        rows.append(row)

    headers = ["Family", "Candidates", "numpy cand/s"]
    headers += [f"{name} cand/s (speedup)" for name in compiled]
    table = format_table(
        f"Exact DP kernel tier (backends: {', '.join(backends)})",
        headers, rows)
    write_report("kernels", table)

    payload = {
        "config": {"scale": CFG.scale, "cap": min(CFG.cap, 600),
                   "eps": EPS, "repeats": REPEATS},
        "backends": list(backends),
        "families": results,
    }
    path = RESULTS_DIR / "BENCH_kernels.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[kernel benchmark saved to {path}]")

    if not compiled:
        print("[no compiled backend available; skipping speedup floors]")
        return
    min_erp = float(os.environ.get("REPRO_BENCH_KERNELS_MIN_ERP", "3.0"))
    min_rest = float(os.environ.get("REPRO_BENCH_KERNELS_MIN", "2.0"))
    assert results["erp"]["best_speedup"] >= min_erp, (
        "erp", results["erp"]["best_speedup"], min_erp)
    for family in ("dtw", "frechet", "edr", "lcss"):
        assert results[family]["best_speedup"] >= min_rest, (
            family, results[family]["best_speedup"], min_rest)


if __name__ == "__main__":
    test_report_kernels()
