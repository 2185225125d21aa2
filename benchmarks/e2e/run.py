"""bench_e2e runner: one workload, one seed, one JSON result line.

    python3 benchmarks/e2e/run.py --workload dtw_single --seed 0 \\
        --seconds 20 --trace 0

builds a default-configured engine, runs the workload's timed phase
(tracing off: the end-to-end metrics; ``--trace 1``: the per-layer
metrics, from alternating traced and untraced rounds), checks every
answer, prints each metric by name with its unit and, as the last line
of standard output, the JSON object the driver reads.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
BUILD_DIR = REPO / ".bench_build"

#: The DP kernel backend every recorded number was measured with.  A
#: silent cnative -> numpy fallback is a 2x change that must pass
#: neither as a regression nor as a win, so the runner refuses to
#: measure on any other backend.
KERNEL_BACKEND = "cnative"

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # Compiled kernels and the C compiler's scratch files stay inside
    # the checkout.
    "REPRO_KERNEL_CACHE_DIR": str(BUILD_DIR / "repro-kernels"),
    "TMPDIR": str(BUILD_DIR / "tmp"),
}


def pin_environment() -> None:
    """Re-exec once under the pinned environment (``PYTHONHASHSEED``
    and the BLAS thread counts are only read at interpreter start)."""
    env = dict(os.environ)
    env.pop("REPRO_KERNELS", None)
    env.update(PINNED_ENV)
    if env != dict(os.environ):
        os.makedirs(PINNED_ENV["TMPDIR"], exist_ok=True)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def run_stamp(kernels: str) -> dict:
    import numpy
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO, timeout=10,
            capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"git_rev": rev, "host": platform.node(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "kernels": kernels}


def per_layer(run, tracer, smoke: bool) -> dict[str, tuple[float, str]]:
    import layers
    values = dict.fromkeys(layers.PER_LAYER, 0.0)
    values.update(layers.build_metrics(tracer, run.engine, run.op_speed))
    values.update(layers.span_metrics(tracer, run.op_speed))
    values.update(run.counts.metrics())
    values.update(run.service_metrics())
    values.update(layers.micro_table(queries=1 if smoke else 4))
    values["index_vs_scan"] = run.index_vs_scan()
    values["trace.overhead_frac"] = run.overhead_frac()
    return {name: (values[name], unit)
            for name, (unit, _) in layers.PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets, one round (two with "
                             "--trace 1): for tests, not for numbers")
    parser.add_argument("--out", help="also write the full record here")
    parser.add_argument("--trace-out", help="write the spans here (JSONL)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spans
    import workloads
    from repro.distances.kernels import get_kernels

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    # Resolved (and, on a cold disk cache, compiled) before the set-up
    # clock starts.
    kernels = get_kernels().name
    if kernels != KERNEL_BACKEND and not args.smoke:
        print(f"error: kernel backend resolved to {kernels!r}, numbers "
              f"are recorded on {KERNEL_BACKEND!r}", file=sys.stderr)
        return 3
    stamp = run_stamp(kernels)

    tracer = spans.Tracer() if args.trace else None
    run = workloads.make_run(args.workload, args.seed, smoke=args.smoke,
                             tracer=tracer)
    run.run(args.seconds,
            rounds=(2 if tracer else 1) if args.smoke else None)
    metrics = (per_layer(run, tracer, args.smoke) if tracer
               else run.end_to_end())
    if args.trace_out:
        tracer.dump(args.trace_out)

    bad = [name for name, (value, _) in metrics.items()
           if not math.isfinite(value)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    record = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(run.waits) + len(run.traced_waits)} "
          f"inputs={run.stream.digest()} "
          f"machine={run.machine_speed():.3f}x reference seconds")
    print(" ".join(f"{key}={value}" for key, value in stamp.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")
    print(f"  failed_frac {run.failed / run.attempted:.4f} "
          f"({run.failed}/{run.attempted})")
    if args.out:
        full = {"stamp": stamp, "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "smoke": args.smoke,
                "inputs": run.stream.digest(),
                "machine_speed": run.machine_speed(), **record}
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
