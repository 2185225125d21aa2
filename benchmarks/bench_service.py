"""BENCH_service — the always-on serving layer's cost and payoff.

Measures two things about :class:`~repro.cluster.service.ReposeService`
on a T-drive-like Hausdorff workload, under the engine's default plan
(one RP-Trie):

* **Hot-query payoff.**  A stream of distinct queries is served twice
  through one service in small micro-batches (``max_batch`` forces
  several cuts per pass).  Pass 1 runs registry-cold; pass 2 replays
  the identical stream registry-warm, so every query seeds its search
  from its own stored final threshold.  Recorded per pass: exact
  refinements (summed from per-request outcomes), leaf tensor builds,
  request latency percentiles on the service's own clock, and the
  registry counters.  Both passes are asserted equal to
  ``plan="single"``, the independent one-shot fan-out, up to which
  candidates tied at the k-th distance are kept.

* **Front-end overhead.**  A stream of *unique* queries (no reuse for
  the registry to exploit) is submitted all at once to a service with
  ``max_batch >= N`` — one admission-queue pass, one cut, one
  ``top_k_batch`` — and timed against calling ``engine.top_k_batch``
  directly on the same queries, under the same plan; both answers are
  checked against ``plan="single"`` the same way.  The probe-cache epoch
  is bumped before every timed run so each measurement starts
  cache-cold; the best of ``REPEATS`` runs is kept for both paths.

Acceptance (asserted, also run in CI): the warm pass performs
*strictly fewer* exact refinements than the cold pass, and the
service's unique-stream wall time stays within
``REPRO_BENCH_SERVICE_MARGIN`` (default 0.50, i.e. at most 1.5x) of
the direct batch call — the micro-batching front-end is bookkeeping,
not a second execution path.  Results land in
``benchmarks/results/BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.bench import BenchConfig, format_table, make_workload, write_report
from repro.bench.config import RESULTS_DIR
from repro.repose import Repose

CFG = BenchConfig.from_env()

NUM_PARTITIONS = 8
K = 10
STREAM_QUERIES = 6
UNIQUE_QUERIES = 8
MAX_BATCH = 2
MAX_WAIT_MS = 1.0
REPEATS = 3

#: Allowed relative slowdown of the service path vs the direct batch
#: call on a unique stream.  Shared CI runners are noisy; locally the
#: overhead is a few percent.
MARGIN = float(os.environ.get("REPRO_BENCH_SERVICE_MARGIN", "0.50"))


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _same_up_to_ties(items: list, ref: list) -> bool:
    """Bit-equal to ``ref`` except for *which* candidates tied at the
    k-th distance were kept: the one trie and the partitions meet tied
    candidates in different orders, and a heap keeps the first."""
    if [d for d, _ in items] != [d for d, _ in ref]:
        return False
    return all(a == b or a[0] == ref[-1][0] for a, b in zip(items, ref))


def _gather_calls(engine) -> int:
    """Total leaf tensor builds across the searched stores."""
    return sum(index.trie.store.gather_calls
               for index in engine.local_indexes())


async def _serve_stream(engine, service, queries, reference) -> dict:
    """Serve one pass of ``queries`` and collect its cost counters."""
    gathers_before = _gather_calls(engine)
    latency_base = len(service.stats.latencies)
    refinements = []
    futures = [await service.submit(query, K) for query in queries]
    outcomes = await asyncio.gather(*futures)
    for outcome, expected in zip(outcomes, reference):
        assert _same_up_to_ties(outcome.result.items, expected), \
            "served != single"
        refinements.append(outcome.result.stats.exact_refinements)
    latencies = sorted(service.stats.latencies[latency_base:])
    return {
        "exact_refinements": sum(refinements),
        "leaf_gathers": _gather_calls(engine) - gathers_before,
        "latency_p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": _percentile(latencies, 0.99) * 1000.0,
    }


def _hot_stream_cell(engine, queries) -> dict:
    """Cold vs registry-warm replay of one stream through one service."""
    reference = [engine.top_k(query, K, plan="single").result.items
                 for query in queries]

    async def run_cell():
        service = engine.serve(max_wait_ms=MAX_WAIT_MS,
                               max_batch=MAX_BATCH, dispatch="inline")
        async with service:
            cold = await _serve_stream(engine, service, queries,
                                       reference)
            warm = await _serve_stream(engine, service, queries,
                                       reference)
        return service, cold, warm

    service, cold, warm = asyncio.run(run_cell())
    return {
        "queries": len(queries),
        "max_batch": MAX_BATCH,
        "batches": service.stats.batches,
        "cold": cold,
        "warm": warm,
        "exact_refinements_saved": (cold["exact_refinements"]
                                    - warm["exact_refinements"]),
        "registry": service.registry.counters(),
    }


def _unique_stream_cell(engine, queries) -> dict:
    """Service front-end vs direct ``top_k_batch`` on unique queries."""
    reference = [engine.top_k(query, K, plan="single").result.items
                 for query in queries]

    def timed_direct() -> float:
        engine.context.probe_cache.bump_epoch()
        started = time.perf_counter()
        outcome = engine.top_k_batch(queries, K)
        elapsed = time.perf_counter() - started
        for result, expected in zip(outcome.results, reference):
            assert _same_up_to_ties(result.items, expected), \
                "direct != single"
        return elapsed

    def timed_service() -> float:
        engine.context.probe_cache.bump_epoch()

        async def run_pass():
            service = engine.serve(max_wait_ms=MAX_WAIT_MS,
                                   max_batch=len(queries),
                                   dispatch="inline")
            async with service:
                started = time.perf_counter()
                futures = [await service.submit(query, K)
                           for query in queries]
                outcomes = await asyncio.gather(*futures)
                elapsed = time.perf_counter() - started
            for outcome, expected in zip(outcomes, reference):
                assert _same_up_to_ties(outcome.result.items, expected), \
                    "served != single"
            return elapsed

        return asyncio.run(run_pass())

    direct = min(timed_direct() for _ in range(REPEATS))
    served = min(timed_service() for _ in range(REPEATS))
    return {
        "queries": len(queries),
        "direct_seconds": direct,
        "service_seconds": served,
        "overhead": served / direct - 1.0 if direct > 0 else 0.0,
        "margin": MARGIN,
    }


def test_report_service():
    """Benchmark entry point (also runnable under pytest)."""
    workload = make_workload("t-drive", "hausdorff", scale=CFG.scale,
                             num_queries=max(STREAM_QUERIES,
                                             UNIQUE_QUERIES),
                             cap=min(CFG.cap, 600), seed=CFG.seed)
    engine = Repose.build(workload.dataset, measure="hausdorff",
                          delta=workload.delta,
                          num_partitions=NUM_PARTITIONS)

    hot = _hot_stream_cell(engine, workload.queries[:STREAM_QUERIES])
    unique = _unique_stream_cell(engine,
                                 workload.queries[:UNIQUE_QUERIES])

    table = format_table(
        f"Serving layer (k={K}, partitions={NUM_PARTITIONS}, "
        f"max_batch={MAX_BATCH}, max_wait={MAX_WAIT_MS}ms)",
        ["Stream", "Exact refinements", "Leaf gathers", "p50 ms",
         "p99 ms"],
        [["cold", hot["cold"]["exact_refinements"],
          hot["cold"]["leaf_gathers"],
          f"{hot['cold']['latency_p50_ms']:.2f}",
          f"{hot['cold']['latency_p99_ms']:.2f}"],
         ["warm", hot["warm"]["exact_refinements"],
          hot["warm"]["leaf_gathers"],
          f"{hot['warm']['latency_p50_ms']:.2f}",
          f"{hot['warm']['latency_p99_ms']:.2f}"],
         ["unique/direct", "-", "-",
          f"{unique['direct_seconds'] * 1000.0:.2f}", "-"],
         ["unique/served", "-", "-",
          f"{unique['service_seconds'] * 1000.0:.2f}", "-"]])
    write_report("service", table)

    payload = {
        "config": {"k": K, "num_partitions": NUM_PARTITIONS,
                   "max_batch": MAX_BATCH, "max_wait_ms": MAX_WAIT_MS,
                   "repeats": REPEATS, "margin": MARGIN,
                   "scale": CFG.scale, "cap": min(CFG.cap, 600)},
        "hot_stream": hot,
        "unique_stream": unique,
    }
    path = RESULTS_DIR / "BENCH_service.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[serving layer benchmark saved to {path}]")

    # Acceptance: the warm replay strictly saves exact refinements
    # (the registry's whole point), never builds more leaf tensors,
    # and the front-end stays within MARGIN of the direct batch call.
    assert (hot["warm"]["exact_refinements"]
            < hot["cold"]["exact_refinements"]), (
        hot["warm"]["exact_refinements"], hot["cold"]["exact_refinements"])
    assert hot["warm"]["leaf_gathers"] <= hot["cold"]["leaf_gathers"], (
        hot["warm"]["leaf_gathers"], hot["cold"]["leaf_gathers"])
    assert hot["registry"]["hits"] >= STREAM_QUERIES, hot["registry"]
    assert unique["service_seconds"] <= (1.0 + MARGIN) * max(
        unique["direct_seconds"], 1e-9), unique


if __name__ == "__main__":
    test_report_service()
