#!/usr/bin/env python3
"""Deep dive: why heterogeneous partitioning balances load.

Reproduces the reasoning of Section V-B with observable numbers: for
each global partitioning strategy this script builds REPOSE engines on
an OSM-like dataset, runs queries, and prints the *distribution* of
per-partition query times — the quantity the simulated cluster
scheduler turns into makespan.

Expected picture:

* heterogeneous — per-partition times tightly clustered (each partition
  is a small sample of the whole data distribution);
* homogeneous — heavy spread: partitions near the query work hard,
  distant ones finish instantly but their cores idle;
* random — in between (balanced counts, but no guarantee of balanced
  pruning difficulty).
"""

import numpy as np

from repro import Repose
from repro.cluster.scheduler import ClusterSpec
from repro.datasets import generate_dataset, preprocess, sample_queries


def spread(times):
    mean = float(np.mean(times))
    return max(times) / mean if mean > 0 else 1.0


def main() -> None:
    data = preprocess(generate_dataset("osm", scale=0.0002, seed=13))
    queries = sample_queries(data, count=5, seed=1)
    spec = ClusterSpec(num_workers=4, cores_per_worker=4)
    print(f"dataset: {len(data)} OSM-like trajectories, "
          f"16 partitions on a simulated 4x4-core cluster\n")

    for strategy in ("heterogeneous", "homogeneous", "random"):
        engine = Repose.build(data, measure="hausdorff", delta=1.0,
                              num_partitions=16, strategy=strategy,
                              cluster_spec=spec, plan="waves")
        ratios, makespans, utils = [], [], []
        for query in queries:
            outcome = engine.top_k(query, k=10)
            times = outcome.per_partition_seconds
            ratios.append(spread(times))
            makespans.append(outcome.simulated_seconds)
            utils.append(outcome.schedule.utilization)
        print(f"{strategy:>14}: max/mean partition time "
              f"{np.mean(ratios):5.2f}x, "
              f"mean makespan {np.mean(makespans) * 1e3:7.2f} ms, "
              f"utilization {np.mean(utils):5.1%}")

    print("\nThe max/mean ratio is the load-imbalance factor: 1.0 means "
          "\nevery partition costs the same (perfect balance); the paper's "
          "\nTable VII shows the same ordering on the real clusters.")


if __name__ == "__main__":
    main()
