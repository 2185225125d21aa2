"""Compare two sets of bench_e2e results, one row per workload x metric.

    python3 benchmarks/e2e/compare.py BASE_DIR NEW_DIR
    python3 benchmarks/e2e/compare.py --self-check SET_A SET_B

A set is a directory of ``run.py --out`` records (``--trace 0``), one
per workload and seed; a pair is the two records of one workload and
seed.  Verdicts follow the choosing-metrics guide:

* ``unresolved`` - the base's own inter-quartile spread exceeds the
  metric's bound, so no verdict can be trusted;
* ``regressed``  - the new median is worse than the base median by more
  than the bound ``BENCHMARK.json`` fixes;
* ``improved``   - at least ten pairs, the new side wins at least nine
  tenths of them (ties count for neither) and the medians differ by
  more than the base's inter-quartile distance;
* ``unchanged``  - anything else.

Exit status is 1 if any row regressed; with ``--self-check`` (two sets
of the same code) also if any row improved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(directory: str) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over one set's records."""
    values: dict = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        if not record["correct"]:
            sys.exit(f"{path}: {record['failed']} of "
                     f"{record['attempted']} ops failed; not comparable")
        for name, metric in record["metrics"].items():
            values[record["workload"], name][record["seed"]] = (
                metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: dict[int, float], new: dict[int, float], better: str,
          bound: float) -> tuple[str, str]:
    """(row text, verdict) for one workload x metric."""
    b1, bm, b3 = quartiles(list(base.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nm - bm) / bm
    pairs = [(base[seed], new[seed]) for seed in base.keys() & new.keys()]
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    if (b3 - b1) / bm > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
          and abs(nm - bm) > b3 - b1):
        verdict = "improved"
    else:
        verdict = "unchanged"
    row = (f"{bm:11.4f} [{b1:.4f}, {b3:.4f}]  {nm:11.4f} "
           f"[{n1:.4f}, {n3:.4f}]  x{nm / bm:.3f} of {bm:.4f}  "
           f"wins {wins}/{len(pairs)}")
    return row, verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--self-check", action="store_true",
                        help="both sets are the same code: any verdict "
                             "but unchanged/unresolved is an error")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(args.base), load(args.new)
    verdicts = defaultdict(int)
    print("workload         metric         base median [q1, q3]   "
          "new median [q1, q3]   ratio with base   verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = workload, metric["name"]
            if key not in base or key not in new:
                continue
            row, verdict = judge(base[key], new[key], metric["better"],
                                 metric["bound"])
            verdicts[verdict] += 1
            print(f"{workload:<16} {metric['name']:<14} {row}  {verdict}")
    print(", ".join(f"{count} {verdict}"
                    for verdict, count in sorted(verdicts.items())))
    bad = verdicts["regressed"] + (verdicts["improved"]
                                   if args.self_check else 0)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
