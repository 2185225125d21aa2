#!/usr/bin/env python3
"""Quickstart: build a REPOSE engine and run a top-k query.

Walks the full pipeline on a synthetic stand-in for the T-drive taxi
dataset: generate -> preprocess -> build the index -> query -> inspect
results and pruning counters.
"""

from repro import Repose
from repro.datasets import generate_dataset, preprocess, sample_queries


def main() -> None:
    # A scaled-down synthetic T-drive: ~700 Beijing-taxi-like trajectories.
    data = preprocess(generate_dataset("t-drive", scale=0.002, seed=7))
    print(f"dataset: {len(data)} trajectories, "
          f"avg length {data.average_length():.1f} points")

    # Build the REPOSE engine: Hausdorff distance, the paper's delta for
    # T-drive (0.15), heterogeneous partitioning over 16 partitions.  On
    # one machine the engine answers from one RP-Trie over all of them.
    engine = Repose.build(data, measure="hausdorff", delta=0.15,
                          num_partitions=16)
    report = engine.build_report
    print(f"index built: {report.index_bytes / 2**20:.2f} MB "
          f"in {report.wall_seconds:.3f}s")

    # Query with one of the dataset's own trajectories.
    query = sample_queries(data, count=1, seed=11)[0]
    outcome = engine.top_k(query, k=10)

    print(f"\ntop-10 most similar to trajectory {query.traj_id}:")
    for rank, (distance, tid) in enumerate(outcome.result.items, start=1):
        print(f"  {rank:2d}. trajectory {tid:5d}  distance {distance:.4f}")

    print(f"\nquery time: {outcome.wall_seconds * 1e3:.2f} ms")
    stats = outcome.result.stats
    print(f"pruning: visited {stats.nodes_visited} trie nodes, "
          f"pruned {stats.nodes_pruned}, "
          f"refined {stats.distance_computations} exact distances "
          f"out of {len(data)} trajectories")


if __name__ == "__main__":
    main()
