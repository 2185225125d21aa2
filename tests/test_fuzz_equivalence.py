"""Randomized batch/single equivalence fuzzing.

The batch planner's contract is absolute: whatever combination of
sharing machinery a batch engages — probe caching, fingerprint dedup,
near-duplicate share groups, partition-affinity grouping, triangle
cross-query thresholds — every per-query answer must be
**bit-identical** to running that query alone under ``plan="single"``.
The targeted property tests in ``tests/test_batch_planner.py`` pin the
mechanisms; this harness hammers the *combinations*: for every measure
it replays hundreds of randomized cases mixing duplicate, jittered and
disjoint queries, random ``k``, wave sizes and ``share_eps``, with
``insert()`` calls interleaved between batches (so probe-cache epochs
roll over mid-stream), occasionally re-runs a batch against the
now-warm probe cache, and occasionally checks a batch against an
oracle that shares no code with the index: a per-pair linear scan
(``tests/oracle.py``).

Every case is derived from one integer seed, so the run is fully
deterministic; any violation fails with the case seed and its full
parameter set in the message.  Knobs (environment):

A second harness streams the same randomized mixes through the
always-on serving layer (:class:`~repro.cluster.service.ReposeService`
on the deterministic virtual-clock loop): randomized arrival times
land requests in randomized micro-batch cuts, recurrences are served
registry-warm, and mid-stream barrier ``insert()``s roll the index
epoch — and every served answer must still be bit-identical to
``plan="single"`` at the matching index state.

A third leg runs the one-trie plan (the default) against
the linear scan: batches with duplicates, range queries and
insert-then-query.

``REPRO_FUZZ_CASES``
    Cases per measure (default 12 — 72 total across 6 measures; CI's
    "elevated" chaos leg runs 36).
    The served-path harness runs ``max(2, cases // 6)`` cases per
    measure (each case covers a whole request stream twice).
``REPRO_FUZZ_SEED``
    Base seed (default 20260729).  Reproduce a CI failure by exporting
    the seed printed in the failure message and re-running this file.
"""

from __future__ import annotations

import asyncio
import itertools
import os

import numpy as np
import pytest

from oracle import assert_same_up_to_ties, linear_scan
from repro.types import Trajectory, TrajectoryDataset
from repro.repose import Repose

MEASURES = ["hausdorff", "frechet", "dtw", "erp", "edr", "lcss"]

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260729"))
CASES_PER_MEASURE = int(os.environ.get("REPRO_FUZZ_CASES", "12"))

SPAN = 10.0
NUM_PARTITIONS = 6

#: Jitter scales for near-duplicate queries: well under the edit
#: measures' eps (so EDR/LCSS see the twin as identical), around it,
#: and well over it (a "near duplicate" only spatially).
JITTER_SCALES = (1e-5, 5e-4, 1e-2)

#: share_eps values to fuzz: off, exact-only, tight, loose, and
#: everything-is-one-group.
SHARE_EPS_CHOICES = (None, 0.0, 0.05, 0.5, 5.0, float("inf"))

_INSERT_IDS = itertools.count(100000)
_QUERY_IDS = itertools.count(900000)


def _random_trajectory(rng: np.random.Generator, traj_id: int,
                       hot: bool = True) -> Trajectory:
    """A short random walk, biased into the hot corner when ``hot``."""
    n = int(rng.integers(3, 13))
    if hot:
        start = rng.uniform(0.05 * SPAN, 0.3 * SPAN, 2)
    else:
        start = rng.uniform(0.05 * SPAN, 0.95 * SPAN, 2)
    steps = rng.normal(0.0, 0.02 * SPAN, (n - 1, 2))
    points = np.vstack([start, start + np.cumsum(steps, axis=0)])
    np.clip(points, 0.001, SPAN - 0.001, out=points)
    return Trajectory(points, traj_id=traj_id)


def _jittered(rng: np.random.Generator, base: Trajectory) -> Trajectory:
    """A near-duplicate of ``base``: same shape, perturbed points."""
    scale = float(rng.choice(JITTER_SCALES))
    points = base.points + rng.normal(0.0, scale, base.points.shape)
    np.clip(points, 0.001, SPAN - 0.001, out=points)
    return Trajectory(points, traj_id=next(_QUERY_IDS))


def _query_mix(rng: np.random.Generator, engine: Repose) -> list[Trajectory]:
    """A randomized batch: dataset queries, their exact duplicates and
    jittered near-duplicates, plus disjoint random queries, shuffled."""
    trajectories = engine.dataset.trajectories
    queries: list[Trajectory] = []
    for _ in range(int(rng.integers(1, 4))):
        base = trajectories[int(rng.integers(len(trajectories)))]
        queries.append(base)
        for _ in range(int(rng.integers(0, 3))):
            queries.append(base if rng.random() < 0.4
                           else _jittered(rng, base))
    for _ in range(int(rng.integers(0, 3))):
        queries.append(_random_trajectory(rng, next(_QUERY_IDS),
                                          hot=bool(rng.random() < 0.5)))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def _case_options(rng: np.random.Generator, k: int) -> dict:
    """Random planner knobs for one case."""
    options: dict = {"wave_size": int(rng.integers(1, 7))}
    share_eps = SHARE_EPS_CHOICES[int(rng.integers(
        len(SHARE_EPS_CHOICES)))]
    if share_eps is not None:
        options["share_eps"] = share_eps
    # Discarded draw: keeps each case seed's later draws, so a seed
    # printed by an older failure still replays the same case.
    rng.choice([-1, 0, k, 3 * k])
    return options


@pytest.mark.parametrize("measure", MEASURES)
def test_fuzz_batch_matches_single(measure):
    """Batched execution with every sharing feature randomized stays
    bit-identical, per query, to single-shot execution."""
    build_rng = np.random.default_rng((BASE_SEED, MEASURES.index(measure)))
    dataset = TrajectoryDataset(
        name=f"fuzz-{measure}",
        trajectories=[_random_trajectory(build_rng, i,
                                         hot=bool(i % 3))
                      for i in range(70)])
    engine = Repose.build(dataset, measure=measure, delta=0.4,
                          num_partitions=NUM_PARTITIONS)
    indexed = list(dataset.trajectories)

    for case in range(CASES_PER_MEASURE):
        case_seed = (BASE_SEED, MEASURES.index(measure), case)
        rng = np.random.default_rng(case_seed)
        if rng.random() < 0.25:
            # Interleaved growth: bumps the probe-cache epoch, so the
            # next batch must re-probe instead of serving stale bounds.
            indexed.append(_random_trajectory(
                rng, next(_INSERT_IDS), hot=bool(rng.random() < 0.5)))
            engine.insert(indexed[-1])
        queries = _query_mix(rng, engine)
        k = int(rng.integers(1, 13))
        options = _case_options(rng, k)
        context = (f"case_seed={case_seed} measure={measure} k={k} "
                   f"options={options} queries={len(queries)} "
                   f"(rerun: REPRO_FUZZ_SEED={BASE_SEED} "
                   f"python -m pytest tests/test_fuzz_equivalence.py "
                   f"-k {measure})")

        batch = engine.top_k_batch(queries, k, plan="waves",
                                   plan_options=options)
        expected = [engine.top_k(query, k, plan="single").result.items
                    for query in queries]
        for qi, (result, items) in enumerate(zip(batch.results, expected)):
            assert result.items == items, (
                f"batch/single divergence on query {qi}: {context}")

        if rng.random() < 0.3:
            # Re-issue against the warm probe cache: served probes must
            # reproduce the computed ones exactly.
            again = engine.top_k_batch(queries, k, plan="waves",
                                       plan_options=options)
            for qi, (result, items) in enumerate(zip(again.results,
                                                     expected)):
                assert result.items == items, (
                    f"warm-cache divergence on query {qi}: {context}")
        if rng.random() < 0.15:
            for qi, (result, query) in enumerate(zip(batch.results,
                                                     queries)):
                scan = linear_scan(engine.measure, query, indexed)
                try:
                    assert_same_up_to_ties(result.items, scan[:k], scan)
                except AssertionError as exc:
                    raise AssertionError(
                        f"oracle divergence on query {qi}: "
                        f"{context}") from exc


SERVED_CASES_PER_MEASURE = max(2, CASES_PER_MEASURE // 6)


@pytest.mark.parametrize("measure", MEASURES)
def test_fuzz_served_path_matches_single(measure):
    """Requests streamed through the serving layer — randomized
    arrival times, randomized windows, cold then registry-warm, with
    optional mid-stream barrier inserts — stay bit-identical, per
    request, to single-shot execution at the same index state."""
    build_rng = np.random.default_rng((BASE_SEED, 7,
                                       MEASURES.index(measure)))
    dataset = TrajectoryDataset(
        name=f"fuzz-served-{measure}",
        trajectories=[_random_trajectory(build_rng, i, hot=bool(i % 3))
                      for i in range(70)])
    # The served waved path; the one-trie path has its own leg below.
    engine = Repose.build(dataset, measure=measure, delta=0.4,
                          num_partitions=NUM_PARTITIONS, plan="waves")
    from repro.testing import run_virtual

    for case in range(SERVED_CASES_PER_MEASURE):
        case_seed = (BASE_SEED, 7, MEASURES.index(measure), case)
        rng = np.random.default_rng(case_seed)
        queries = _query_mix(rng, engine)
        k = int(rng.integers(1, 10))
        options = _case_options(rng, k)
        max_wait_ms = float(rng.uniform(1.0, 5.0))
        max_batch = int(rng.integers(2, 6))
        delays = rng.uniform(0.0, 0.004, len(queries))
        newcomer = (_random_trajectory(rng, next(_INSERT_IDS),
                                       hot=bool(rng.random() < 0.5))
                    if rng.random() < 0.5 else None)
        context = (f"case_seed={case_seed} measure={measure} k={k} "
                   f"options={options} max_wait_ms={max_wait_ms:.2f} "
                   f"max_batch={max_batch} insert={newcomer is not None} "
                   f"queries={len(queries)} "
                   f"(rerun: REPRO_FUZZ_SEED={BASE_SEED} "
                   f"python -m pytest tests/test_fuzz_equivalence.py "
                   f"-k 'served and {measure}')")

        # Phase-1 references at the pre-insert index state must be
        # computed before any traffic runs.
        pre = [engine.top_k(query, k, plan="single").result.items
               for query in queries]

        async def scenario():
            service = engine.serve(max_wait_ms=max_wait_ms,
                                   max_batch=max_batch,
                                   plan_options=options,
                                   dispatch="inline")
            async with service:
                futures = []
                for delay, query in zip(delays, queries):
                    if delay > 0:
                        await asyncio.sleep(float(delay))
                    futures.append(await service.submit(query, k))
                phase1 = await asyncio.gather(*futures)
                if newcomer is not None:
                    await service.insert(newcomer)
                futures = [await service.submit(query, k)
                           for query in queries]
                phase2 = await asyncio.gather(*futures)
            return service, phase1, phase2

        service, phase1, phase2 = run_virtual(scenario())
        assert sum(service.stats.batch_sizes) == 2 * len(queries)
        for qi, (outcome, items) in enumerate(zip(phase1, pre)):
            assert outcome.result.items == items, (
                f"served/single divergence on phase-1 request {qi}: "
                f"{context}")

        # Phase-2 references reflect the post-insert state (the
        # engine keeps the insert applied inside the service).
        post = [engine.top_k(query, k, plan="single").result.items
                for query in queries]
        for qi, (outcome, items) in enumerate(zip(phase2, post)):
            assert outcome.result.items == items, (
                f"served/single divergence on phase-2 request {qi}: "
                f"{context}")
        if newcomer is not None:
            assert service.registry.epoch == engine.context.probe_cache.epoch, (
                f"registry missed the epoch roll: {context}")


@pytest.mark.parametrize("measure", MEASURES)
def test_fuzz_one_trie_matches_linear_scan(measure):
    """The one-trie plan — the default — against the
    per-pair linear scan: batches mixing exact and near duplicates, a
    single top-k, a range query, with inserts between cases.  Answers
    equal the scan's up to which candidates tied at the k-th distance
    are kept."""
    build_rng = np.random.default_rng((BASE_SEED, 41,
                                       MEASURES.index(measure)))
    dataset = TrajectoryDataset(
        name=f"fuzz-trie-{measure}",
        trajectories=[_random_trajectory(build_rng, i, hot=bool(i % 3))
                      for i in range(70)])
    engine = Repose.build(dataset, measure=measure, delta=0.4,
                          num_partitions=NUM_PARTITIONS)
    assert engine.plan == "trie"
    indexed = list(dataset.trajectories)

    for case in range(CASES_PER_MEASURE):
        case_seed = (BASE_SEED, 41, MEASURES.index(measure), case)
        rng = np.random.default_rng(case_seed)
        if rng.random() < 0.25:
            indexed.append(_random_trajectory(
                rng, next(_INSERT_IDS), hot=bool(rng.random() < 0.5)))
            engine.insert(indexed[-1])
        queries = _query_mix(rng, engine)
        k = int(rng.integers(1, 13))
        context = (f"case_seed={case_seed} measure={measure} k={k} "
                   f"queries={len(queries)} "
                   f"(rerun: REPRO_FUZZ_SEED={BASE_SEED} "
                   f"python -m pytest tests/test_fuzz_equivalence.py "
                   f"-k 'trie and {measure}')")
        scans = [linear_scan(engine.measure, query, indexed)
                 for query in queries]
        batch = engine.top_k_batch(queries, k)
        single = engine.top_k(queries[0], k)
        for qi, (items, scan) in enumerate(
                [(r.items, scan) for r, scan in zip(batch.results, scans)]
                + [(single.result.items, scans[0])]):
            try:
                assert_same_up_to_ties(items, scan[:k], scan)
            except AssertionError as exc:
                raise AssertionError(
                    f"oracle divergence on query {qi}: {context}") from exc
        radius = scans[0][int(rng.integers(len(scans[0])))][0]
        ranged = engine.range_query(queries[0], radius).result.items
        assert ranged == [item for item in scans[0] if item[0] <= radius], (
            f"range divergence at radius {radius}: {context}")


WIDE_QUERIES = int(os.environ.get("REPRO_FUZZ_WIDE_QUERIES", "120"))


def _wide_query_mix(rng: np.random.Generator, engine: Repose,
                    total: int) -> list[Trajectory]:
    """A serving-scale batch: many near-duplicate families around
    dataset members (exact duplicates included), padded with disjoint
    random queries, shuffled.  Sized so the distinct-query count far
    exceeds CROSS_QUERY_LIMIT, the per-lookup distance-call budget."""
    trajectories = engine.dataset.trajectories
    queries: list[Trajectory] = []
    while len(queries) < (2 * total) // 3:
        base = trajectories[int(rng.integers(len(trajectories)))]
        queries.append(base)
        for _ in range(int(rng.integers(0, 4))):
            queries.append(base if rng.random() < 0.25
                           else _jittered(rng, base))
    while len(queries) < total:
        queries.append(_random_trajectory(rng, next(_QUERY_IDS),
                                          hot=bool(rng.random() < 0.5)))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


@pytest.mark.parametrize("measure", MEASURES)
def test_fuzz_wide_batch_matches_single(measure):
    """Serving-scale batches (more distinct queries than any
    query-index lookup's distance-call budget) stay bit-identical,
    per query, to single-shot execution — cold and probe-cache warm."""
    build_rng = np.random.default_rng((BASE_SEED, 23,
                                       MEASURES.index(measure)))
    dataset = TrajectoryDataset(
        name=f"fuzz-wide-{measure}",
        trajectories=[_random_trajectory(build_rng, i, hot=bool(i % 3))
                      for i in range(70)])
    engine = Repose.build(dataset, measure=measure, delta=0.4,
                          num_partitions=NUM_PARTITIONS)

    case_seed = (BASE_SEED, 23, MEASURES.index(measure), 0)
    rng = np.random.default_rng(case_seed)
    queries = _wide_query_mix(rng, engine, WIDE_QUERIES)
    k = int(rng.integers(1, 9))
    options = {"wave_size": 2, "share_eps": 0.05}
    context = (f"case_seed={case_seed} measure={measure} k={k} "
               f"queries={len(queries)} "
               f"(rerun: REPRO_FUZZ_SEED={BASE_SEED} "
               f"python -m pytest tests/test_fuzz_equivalence.py "
               f"-k 'wide and {measure}')")

    # Single-shot references, memoized by point content (duplicates
    # share one reference computation).
    memo: dict[bytes, list] = {}
    expected = []
    for query in queries:
        ckey = query.points.tobytes()
        if ckey not in memo:
            memo[ckey] = engine.top_k(query, k,
                                      plan="single").result.items
        expected.append(memo[ckey])

    cold = engine.top_k_batch(queries, k, plan="waves",
                              plan_options=options)
    for qi, (result, items) in enumerate(zip(cold.results, expected)):
        assert result.items == items, (
            f"cold batch diverged on query {qi}: {context}")

    distinct = cold.plan.num_queries - cold.plan.queries_deduplicated
    assert distinct > 64, (
        f"workload regression: only {distinct} distinct queries, "
        f"narrower than a serving-scale batch: {context}")

    # Warm run: the probe cache was populated by the cold run, so the
    # same clustering decisions probe nothing afresh.
    warm = engine.top_k_batch(queries, k, plan="waves",
                              plan_options=options)
    for qi, (result, items) in enumerate(zip(warm.results, expected)):
        assert result.items == items, (
            f"warm batch diverged on query {qi}: {context}")
    assert warm.plan.probe_cache_misses == 0, context
    assert warm.plan.share_groups == cold.plan.share_groups, context
    assert warm.plan.queries_shared == cold.plan.queries_shared, context
