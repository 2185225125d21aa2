"""Exactness of the vectorized batch refinement engine.

Searches that refine through the batch engine must return what a
per-pair linear scan returns (``tests/oracle.py``: bit-equal distances,
and the same items up to which of several candidates tied at the k-th
distance is kept) for every measure, on ragged and degenerate inputs;
``refine_top_k`` itself must leave the heap *bit-identical* to the
per-trajectory early-abandoning loop, tie-breaks included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.rptrie import RPTrie
from repro.core.search import ResultHeap, local_range_search, local_search
from repro.core.store import TrajectoryStore
from repro.core.succinct import SuccinctRPTrie
from repro.baselines.linear import LinearScanIndex
from repro.distances.base import get_measure
from repro.distances.batch import (
    batch_lower_bounds,
    candidate_lower_bounds,
    refine_range,
    refine_top_k,
)
from repro.distances.threshold import distance_with_threshold
from repro.types import BoundingBox, Trajectory

from oracle import assert_same_up_to_ties, linear_scan, random_walks

MEASURES = ["hausdorff", "frechet", "dtw", "erp", "edr", "lcss"]


def degenerate_trajectories() -> list[Trajectory]:
    """Length-1, duplicate-point, duplicate-trajectory and ragged data."""
    trajs = random_walks(24, seed=11, min_len=2, max_len=40)
    extra = [
        Trajectory([(1.0, 1.0)], traj_id=100),                  # single point
        Trajectory([(2.0, 2.0)], traj_id=101),                  # single point
        Trajectory([(3.0, 3.0)] * 6, traj_id=102),              # duplicates
        Trajectory([(3.0, 3.0)] * 6, traj_id=103),              # tie twin
        Trajectory([(3.0, 3.0)] * 6, traj_id=104),              # tie twin
        Trajectory(trajs[0].points, traj_id=105),               # exact copy
        Trajectory(trajs[0].points, traj_id=106),               # exact copy
        Trajectory([(0.001, 0.001), (7.9, 7.9)], traj_id=107),  # extreme span
    ]
    return trajs + extra


@pytest.fixture(scope="module")
def ragged() -> list[Trajectory]:
    return degenerate_trajectories()


@pytest.fixture(scope="module")
def ragged_grid() -> Grid:
    return Grid.fit(BoundingBox(0.0, 0.0, 8.0, 8.0), delta=0.5)


class TestSearchBitIdentical:
    @pytest.mark.parametrize("name", MEASURES)
    def test_top_k_matches_legacy_path(self, ragged, ragged_grid, name):
        trie = RPTrie(ragged_grid, name, pivot_groups=3).build(ragged)
        for qi in (0, 5, 100, 102, 107):
            query = trie.trajectory(qi)
            scan = linear_scan(trie.measure, query, ragged)
            result = local_search(trie, query, 8)
            assert_same_up_to_ties(result.items, scan[:8], scan)
            # Flushes, not leaves: 4 + 8 + ... pooled candidates each.
            assert (result.stats.leaf_refinements
                    < result.stats.distance_computations / 3)

    @pytest.mark.parametrize("name", MEASURES)
    def test_range_matches_legacy_path(self, ragged, ragged_grid, name):
        trie = RPTrie(ragged_grid, name, pivot_groups=3).build(ragged)
        for qi in (3, 101, 104):
            query = trie.trajectory(qi)
            scan = linear_scan(trie.measure, query, ragged)
            radius = scan[5][0]
            result = local_range_search(trie, query, radius)
            assert result.items == [item for item in scan
                                    if item[0] <= radius]
            assert result.stats.leaf_refinements == 1

    @pytest.mark.parametrize("name", ["hausdorff", "dtw"])
    def test_succinct_trie_matches_legacy_path(self, ragged, ragged_grid,
                                               name):
        trie = RPTrie(ragged_grid, name, pivot_groups=3).build(ragged)
        frozen = SuccinctRPTrie(trie)
        query = ragged[7]
        scan = linear_scan(trie.measure, query, ragged)
        assert_same_up_to_ties(local_search(frozen, query, 10).items,
                               scan[:10], scan)
        assert (local_search(frozen, query, 10).items
                == local_search(trie, query, 10).items)

    def test_tie_breaking_matches_with_duplicate_trajectories(
            self, ragged, ragged_grid):
        # k smaller than the number of equidistant twins: two distinct
        # twins at the tied distance, whichever the traversal met first.
        trie = RPTrie(ragged_grid, "hausdorff").build(ragged)
        query = Trajectory([(3.0, 3.0), (3.5, 3.0)], traj_id=999)
        scan = linear_scan(trie.measure, query, ragged)
        assert scan[1][0] == scan[2][0]
        assert_same_up_to_ties(local_search(trie, query, 2).items,
                               scan[:2], scan)


class TestRefinerUnit:
    @pytest.mark.parametrize("name", MEASURES)
    def test_refine_heap_equals_sequential(self, ragged, name):
        measure = get_measure(name)
        store = TrajectoryStore(ragged)
        tids = [t.traj_id for t in ragged]
        query = ragged[4]
        for k in (1, 3, len(tids) + 5):
            batch_heap = ResultHeap(k)
            refine_top_k(measure, query.points, tids, store, batch_heap)
            seq_heap = ResultHeap(k)
            for tid in tids:
                dist = distance_with_threshold(
                    measure, query.points, store.points_of(tid), seq_heap.dk)
                seq_heap.offer(dist, tid)
            assert batch_heap.sorted_items() == seq_heap.sorted_items()

    @pytest.mark.parametrize("name", MEASURES)
    def test_empty_candidate_set(self, ragged, name):
        measure = get_measure(name)
        store = TrajectoryStore(ragged)
        heap = ResultHeap(3)
        refine_top_k(measure, ragged[0].points, [], store, heap)
        assert heap.sorted_items() == []
        assert refine_range(measure, ragged[0].points, [], store, 1.0) == []
        bounds, _ = candidate_lower_bounds(measure, ragged[0].points,
                                           store, [])
        assert bounds.shape == (0,)

    def test_bounds_never_exceed_exact_distance(self, ragged):
        store = TrajectoryStore(ragged)
        tids = [t.traj_id for t in ragged]
        query = ragged[9]
        for name in MEASURES:
            measure = get_measure(name)
            bounds, is_exact = candidate_lower_bounds(
                measure, query.points, store, tids)
            exact = np.array([measure.distance(query.points,
                                               store.points_of(tid))
                              for tid in tids])
            if is_exact:
                assert name == "hausdorff"
                np.testing.assert_array_equal(bounds, exact)
            else:
                assert (bounds <= exact + 1e-9).all(), name

    def test_batch_lower_bounds_on_padded_arrays(self, ragged):
        store = TrajectoryStore(ragged)
        tids = [t.traj_id for t in ragged][:10]
        padded, lengths = store.gather(tids)
        measure = get_measure("hausdorff")
        bounds, is_exact = batch_lower_bounds(
            measure, ragged[0].points, padded, lengths)
        assert is_exact
        assert bounds.shape == (10,)


class TestLinearScanBatched:
    @pytest.mark.parametrize("name", MEASURES)
    def test_batched_scan_matches_sequential(self, ragged, name):
        batched = LinearScanIndex(name).build(ragged)
        sequential = LinearScanIndex(name, batched=False).build(ragged)
        query = ragged[2]
        a = batched.top_k(query, 7)
        b = sequential.top_k(query, 7)
        assert a.items == b.items
        assert a.stats == b.stats

    def test_idless_trajectories_fall_back_to_sequential(self):
        # Trajectories without ids cannot live in the columnar store;
        # the scan must keep working as it did before the batch engine.
        trajs = [Trajectory([(float(i), 0.0), (float(i), 1.0)])
                 for i in range(5)]
        index = LinearScanIndex("hausdorff").build(trajs)
        result = index.top_k(trajs[0], 2)
        assert result.distances() == [0.0, 1.0]
