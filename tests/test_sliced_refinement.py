"""Sliced refinement: long candidate lists go through the batch engine
one ``_REFINE_SLICE`` at a time.

``refine_top_k`` promises a heap equal to offering every candidate's
per-pair distance in ``tids`` order, and slices keep that order, so a
sliced refinement must equal that sequential loop bit for bit — ties at
the k-th distance included — and agree with the independent linear
scan (``tests/oracle.py``) up to which tied candidates are kept.
``refine_range`` and ``exact_distances`` must equal their per-pair
definitions.  The gather probe pins the point of slicing: a whole
store's scan or pivot column never gathers more than one slice.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle import assert_same_up_to_ties, linear_scan, random_walks
from repro.core.search import ResultHeap
from repro.core.store import TrajectoryStore
from repro.datasets import generate_dataset, preprocess
from repro.distances import get_measure
from repro.distances.batch import (_REFINE_SLICE, exact_distances,
                                   refine_range, refine_top_k)
from repro.types import Trajectory

MEASURES = ["hausdorff", "frechet", "dtw", "erp", "edr", "lcss"]
SIZES = [1, _REFINE_SLICE - 1, _REFINE_SLICE, _REFINE_SLICE + 1,
         3 * _REFINE_SLICE]
K = 7


@pytest.fixture(scope="module")
def candidates() -> list[Trajectory]:
    """3 x slice short walks; every third one is a copy of the one
    before it under another id, so distances tie everywhere — at the
    k-th distance too."""
    walks = random_walks(3 * _REFINE_SLICE, seed=36, min_len=2, max_len=9)
    for i in range(2, len(walks), 3):
        walks[i] = Trajectory(walks[i - 1].points, traj_id=walks[i].traj_id)
    return walks


@pytest.fixture(scope="module")
def per_pair(candidates) -> dict:
    """Per-pair distances from the query (candidate 1, which has a tied
    copy) to every candidate, per measure."""
    query = candidates[1]
    return {name: np.array([get_measure(name).distance(query, t)
                            for t in candidates])
            for name in MEASURES}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", MEASURES)
def test_top_k_is_the_in_order_loop(candidates, per_pair, name, size):
    measure, query = get_measure(name), candidates[1]
    pool = candidates[:size]
    store = TrajectoryStore(pool)
    tids = [t.traj_id for t in pool]
    heap = ResultHeap(K)
    refine_top_k(measure, query.points, tids, store, heap)
    loop = ResultHeap(K)
    for tid, distance in zip(tids, per_pair[name][:size].tolist()):
        loop.offer(distance, tid)
    assert heap.sorted_items() == loop.sorted_items()
    scan = linear_scan(measure, query, pool)
    assert_same_up_to_ties(heap.sorted_items(), scan[:K], scan)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", MEASURES)
def test_range_and_exact_are_per_pair(candidates, per_pair, name, size):
    measure, query = get_measure(name), candidates[1]
    pool = candidates[:size]
    store = TrajectoryStore(pool)
    tids = [t.traj_id for t in pool]
    distances = per_pair[name][:size]
    assert np.array_equal(
        exact_distances(measure, query.points, store, tids), distances)
    radius = float(np.sort(distances)[min(K, size) - 1])
    assert refine_range(measure, query.points, tids, store, radius) == [
        (d, tid) for d, tid in zip(distances.tolist(), tids) if d <= radius]


@pytest.fixture(scope="module")
def ruler_store() -> TrajectoryStore:
    """The 3,562 trajectories of the single-query benchmark workloads."""
    data = preprocess(generate_dataset("t-drive", scale=0.01, seed=2021))
    assert len(data) == 3562
    return TrajectoryStore(data.trajectories)


@pytest.mark.parametrize("name", ["hausdorff", "dtw", "erp"])
def test_no_gather_asks_for_more_than_one_slice(ruler_store, name,
                                                monkeypatch):
    measure = get_measure(name)
    tids = ruler_store.ids()
    query = ruler_store.points_of(tids[17])
    asked: list[int] = []
    gather = ruler_store.gather

    def probe(ids, max_len=None):
        ids = list(ids)
        asked.append(len(ids))
        return gather(ids, max_len=max_len)

    monkeypatch.setattr(ruler_store, "gather", probe)
    exact_distances(measure, query, ruler_store, tids)
    refine_top_k(measure, query, tids, ruler_store, ResultHeap(10))
    assert asked and max(asked) <= _REFINE_SLICE
