#!/usr/bin/env python3
"""Regenerate every paper table and figure in one run.

Usage::

    python benchmarks/run_all.py            # all experiments
    python benchmarks/run_all.py table4 fig6  # a subset

Reports are printed and saved under ``benchmarks/results/``.  Scale and
other knobs come from the environment (see repro.bench.config).
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

EXPERIMENTS = {
    "table4": ("bench_table4_overview", "test_report_table4"),
    "fig6": ("bench_fig6_vary_k", "test_report_fig6"),
    "table5": ("bench_table5_delta", "test_report_table5"),
    "table6": ("bench_table6_np", "test_report_table6"),
    "fig7": ("bench_fig7_opt_trie", "test_report_fig7"),
    "fig8": ("bench_fig8_cardinality", "test_report_fig8"),
    "fig9": ("bench_fig9_partitions", "test_report_fig9"),
    "table7": ("bench_table7_partitioning", "test_report_table7"),
    "table8": ("bench_table8_heter_dita", "test_report_table8"),
    "table9": ("bench_table9_heter_dft", "test_report_table9"),
    "ablation_bounds": ("bench_ablation_bounds", "test_report_ablation_bounds"),
    "ablation_succinct": ("bench_ablation_succinct",
                          "test_report_ablation_succinct"),
    "refinement": ("bench_refinement_batch", "test_report_refinement"),
    "kernels": ("bench_kernels", "test_report_kernels"),
    "planner": ("bench_planner", "test_report_planner"),
    "batch_planner": ("bench_batch_planner", "test_report_batch_planner"),
    "faults": ("bench_faults", "test_report_faults"),
    "service": ("bench_service", "test_report_service"),
}


def _load_module(name: str):
    spec = importlib.util.spec_from_file_location(name,
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str]) -> int:
    wanted = argv or list(EXPERIMENTS)
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {list(EXPERIMENTS)}")
        return 2
    for key in wanted:
        module_name, fn_name = EXPERIMENTS[key]
        print(f"=== {key} ({module_name}.{fn_name}) ===")
        started = time.perf_counter()
        module = _load_module(module_name)
        getattr(module, fn_name)()
        print(f"=== {key} done in {time.perf_counter() - started:.1f}s ===\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
