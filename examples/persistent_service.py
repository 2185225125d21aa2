#!/usr/bin/env python3
"""An always-on serving lifecycle: build, serve, recur, insert, verify.

Simulates how a deployment would actually run REPOSE as a service:

1. build an engine over yesterday's trajectories (one RP-Trie on this
   machine);
2. start a :class:`~repro.cluster.service.ReposeService` — an asyncio
   admission queue that micro-batches single top-k requests into
   ``top_k_batch`` calls;
3. stream a bursty request mix of hot (recurring) and cold queries —
   recurring queries hit the cross-batch hot-query registry and start
   their search under their previous final threshold;
4. stream today's new trajectories in mid-traffic with barrier
   ``insert()``s (each one rolls the index epoch, invalidating the
   registry so no request is served stale state);
5. verify served answers are bit-identical to direct ``top_k`` calls
   at the same index state.
"""

import asyncio
import time

import numpy as np

from repro import Repose
from repro.datasets import generate_dataset, preprocess
from repro.types import Trajectory


async def serve_traffic(engine, hot, cold, today, k):
    """One day of traffic: bursts of hot+cold requests, mid-stream
    inserts, a final hot recurrence after the index changed."""
    service = engine.serve(max_wait_ms=2.0, max_batch=8)

    # Morning burst: every hot query twice (the second occurrence of
    # each lands in a later micro-batch and is seeded by the registry),
    # interleaved with cold queries.
    burst = [*hot, *cold, *hot]
    futures = [await service.submit(query, k) for query in burst]
    outcomes = await asyncio.gather(*futures)

    # Midday: today's trajectories arrive while traffic continues.
    # Each insert is a queue barrier — applied strictly between
    # micro-batches — and bumps the index epoch.
    for traj in today:
        await service.insert(
            Trajectory(traj.points, traj_id=traj.traj_id))

    # Afternoon: the hot queries recur once more.  The registry was
    # invalidated by the inserts, so these recompute (correctly seeing
    # today's data) and re-warm the registry.
    afternoon = await asyncio.gather(
        *[await service.submit(query, k) for query in hot])

    await service.stop()
    return service, outcomes, afternoon


def main() -> None:
    data = preprocess(generate_dataset("sf", scale=0.0015, seed=42))
    yesterday = data.trajectories[: len(data) // 2]
    today = data.trajectories[len(data) // 2: len(data) // 2 + 5]
    base = data.__class__(trajectories=list(yesterday))
    print(f"{len(yesterday)} historical trajectories, "
          f"{len(today)} arriving today")

    started = time.perf_counter()
    engine = Repose.build(base, measure="hausdorff", num_partitions=8)
    print(f"engine build: {time.perf_counter() - started:.2f}s")

    rng = np.random.default_rng(1)
    picks = rng.choice(len(yesterday), size=6, replace=False)
    hot = [yesterday[int(i)] for i in picks[:3]]
    cold = [yesterday[int(i)] for i in picks[3:]]
    k = 5

    # Reference answers at the pre-insert index state, computed before
    # any traffic runs (a direct top_k touches no registry).
    pre = {q.traj_id: engine.top_k(q, k).result.items
           for q in hot + cold}

    service, outcomes, afternoon = asyncio.run(
        serve_traffic(engine, hot, cold, today, k))

    # Verify: every served answer must be bit-identical to a direct
    # query at the same index state.
    morning = hot + cold + hot
    morning_ok = all(outcome.result.items == pre[query.traj_id]
                     for query, outcome in zip(morning, outcomes))
    print(f"morning burst ({len(morning)} requests): "
          f"{'verified bit-identical' if morning_ok else 'MISMATCH'} "
          f"against direct top_k (pre-insert)")
    post = {q.traj_id: engine.top_k(q, k).result.items
            for q in hot}
    verified = all(outcome.result.items == post[query.traj_id]
                   for query, outcome in zip(hot, afternoon))
    print(f"afternoon recurrences: "
          f"{'verified bit-identical' if verified else 'MISMATCH'} "
          f"against direct top_k (post-insert)")

    stats = service.stats
    registry = service.registry.counters()
    mean_batch = (sum(stats.batch_sizes) / len(stats.batch_sizes)
                  if stats.batch_sizes else 0.0)
    print(f"served {stats.requests} requests in {stats.batches} "
          f"micro-batches (mean size {mean_batch:.2f}), "
          f"{stats.inserts} barrier inserts")
    print(f"hot-query registry: {registry['hits']} hits, "
          f"{registry['stores']} stores, "
          f"{registry['invalidations']} entries invalidated by "
          f"epoch rolls")


if __name__ == "__main__":
    main()
