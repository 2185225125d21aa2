"""Tests for the best-first top-k search (Algorithm 2).

The defining invariant: for every measure and every trie variant, the
search returns exactly the brute-force top-k distances.
"""

import numpy as np
import pytest

from repro.core.rptrie import RPTrie
from repro.core.search import (
    TopKResult,
    _follow_run,
    local_search,
    probe_search,
)
from repro.core.succinct import SuccinctRPTrie
from repro.distances import get_measure
from repro.types import Trajectory

from oracle import assert_same_up_to_ties

MEASURES = {
    "hausdorff": get_measure("hausdorff"),
    "frechet": get_measure("frechet"),
    "dtw": get_measure("dtw"),
    "lcss": get_measure("lcss", eps=0.4),
    "edr": get_measure("edr", eps=0.4),
    "erp": get_measure("erp"),
}


def brute_force(measure, query, trajectories, k):
    distances = sorted(
        (measure.distance(query, t), t.traj_id) for t in trajectories)
    return distances[:k]


def assert_same_distances(result: TopKResult, expected, abs_tol=1e-9):
    got = [round(d, 9) for d in result.distances()]
    want = [round(d, 9) for d, _ in expected]
    assert got == want, f"got {got[:5]}..., want {want[:5]}..."


@pytest.mark.parametrize("name", list(MEASURES))
class TestExactness:
    def test_topk_matches_brute_force(self, small_grid, small_trajectories,
                                      name):
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[7]
        result = local_search(trie, query, 10)
        assert_same_distances(result,
                              brute_force(measure, query,
                                          small_trajectories, 10))

    def test_k_one(self, small_grid, small_trajectories, name):
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[3]
        result = local_search(trie, query, 1)
        # The query itself is in the dataset: nearest distance is 0.
        assert result.distances()[0] == pytest.approx(0.0, abs=1e-12)

    def test_k_larger_than_dataset(self, small_grid, small_trajectories,
                                   name):
        measure = MEASURES[name]
        subset = small_trajectories[:8]
        trie = RPTrie(small_grid, measure).build(subset)
        result = local_search(trie, subset[0], 50)
        assert len(result) == 8

    def test_external_query(self, small_grid, small_trajectories, name):
        """Query not contained in the dataset."""
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        rng = np.random.default_rng(42)
        query = Trajectory(rng.uniform(0.1, 7.9, (9, 2)), traj_id=777)
        result = local_search(trie, query, 5)
        assert_same_distances(result,
                              brute_force(measure, query,
                                          small_trajectories, 5))


class TestOptimizedTrieExactness:
    def test_hausdorff_optimized_exact(self, small_grid, small_trajectories):
        measure = MEASURES["hausdorff"]
        trie = RPTrie(small_grid, measure, optimized=True).build(
            small_trajectories)
        query = small_trajectories[11]
        result = local_search(trie, query, 10)
        assert_same_distances(result,
                              brute_force(measure, query,
                                          small_trajectories, 10))


class TestSuccinctExactness:
    @pytest.mark.parametrize("name", ["hausdorff", "frechet", "dtw"])
    def test_frozen_trie_same_results(self, small_grid, small_trajectories,
                                      name):
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        frozen = SuccinctRPTrie(trie)
        query = small_trajectories[5]
        live = local_search(trie, query, 10)
        cold = local_search(frozen, query, 10)
        assert [round(d, 9) for d in live.distances()] == \
            [round(d, 9) for d in cold.distances()]


class TestAblationSwitches:
    def test_disabling_bounds_preserves_exactness(self, small_grid,
                                                  small_trajectories):
        measure = MEASURES["hausdorff"]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[2]
        expected = brute_force(measure, query, small_trajectories, 10)
        for options in ({"use_pivots": False}, {"use_lbt": False},
                        {"use_lbo": False},
                        {"use_pivots": False, "use_lbt": False,
                         "use_lbo": False}):
            result = local_search(trie, query, 10, **options)
            assert_same_distances(result, expected)

    def test_bounds_reduce_refinements(self, small_grid, small_trajectories):
        """With all pruning off, every trajectory must be refined."""
        measure = MEASURES["hausdorff"]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[2]
        with_bounds = local_search(trie, query, 3)
        without = local_search(trie, query, 3, use_pivots=False,
                               use_lbt=False, use_lbo=False)
        assert (with_bounds.stats.distance_computations
                <= without.stats.distance_computations)


class TestPaperExample:
    def test_running_example_top2(self, paper_grid, paper_trajectories,
                                  paper_query):
        """Example 1: the top-2 under Hausdorff is {tau_1, tau_4}."""
        trie = RPTrie(paper_grid, "hausdorff").build(paper_trajectories)
        result = local_search(trie, paper_query, 2)
        assert sorted(result.ids()) == [1, 4]
        assert result.distances()[0] == pytest.approx(2.83, abs=0.005)
        assert result.distances()[1] == pytest.approx(3.16, abs=0.005)


class TestResultContainer:
    def test_kth_distance_of_empty(self):
        assert TopKResult().kth_distance() == float("inf")

    def test_sorted_ascending(self, small_grid, small_trajectories):
        trie = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        result = local_search(trie, small_trajectories[0], 10)
        distances = result.distances()
        assert distances == sorted(distances)

    def test_stats_populated(self, small_grid, small_trajectories):
        trie = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        result = local_search(trie, small_trajectories[0], 5)
        assert result.stats.nodes_visited > 0
        assert result.stats.distance_computations > 0


def _child(node, col, row):
    """The child of ``node`` labelled with cell ``(col, row)``."""
    from repro.core.zorder import z_encode
    label = z_encode(col, row)
    return next(c for c in node.iter_children() if c.z_value == label)


class TestRunDiscovery:
    """Runs are rediscovered from the node interface on every walk."""

    @pytest.mark.parametrize("frozen", [False, True])
    def test_run_ends(self, paper_grid, run_shapes, frozen):
        from repro.core.zorder import z_encode
        trie = RPTrie(paper_grid, "dtw").build(run_shapes.build)
        if frozen:
            trie = SuccinctRPTrie(trie)
        # A 12-cell unary tail is one run ending at its `$` parent —
        # whose only child is that leaf, so the run hands it on.
        last, cells, leaf = _follow_run(_child(trie.root, 0, 0))
        assert len(cells) == 12 and cells[-1] == z_encode(4, 1)
        assert [c.is_leaf for c in last.iter_children()] == [True]
        assert leaf.is_leaf and list(leaf.tids) == [0]
        # A node with one internal child *and* a `$` child ends the run
        # and keeps its leaf to itself.
        last, cells, leaf = _follow_run(_child(trie.root, 0, 7))
        assert cells == [z_encode(0, 7), z_encode(1, 7), z_encode(2, 7)]
        assert sorted(c.is_leaf for c in last.iter_children()) == \
            [False, True]
        assert leaf is None
        # A fork ends the run at the forking node.
        last, cells, leaf = _follow_run(_child(trie.root, 3, 3))
        assert cells[-1] == z_encode(5, 3)
        assert len(list(last.iter_children())) == 2 and leaf is None

    def test_insert_splits_a_run(self, paper_grid, run_shapes):
        trie = RPTrie(paper_grid, "dtw").build(run_shapes.build)
        for traj in run_shapes.inserts:
            trie.insert(traj)
        for first, length in (((0, 7), 2), ((0, 0), 3)):
            last, cells, leaf = _follow_run(_child(trie.root, *first))
            assert len(cells) == length and leaf is None
            assert len(list(last.iter_children())) == 2
        # Below the split the old tail is two runs now: up to the node
        # where an inserted path ends, then the rest.
        from repro.core.zorder import z_encode
        split = _follow_run(_child(trie.root, 0, 0))[0]
        last, cells, leaf = _follow_run(_child(split, 3, 0))
        assert cells[-1] == z_encode(7, 1) and len(cells) == 6
        assert leaf is None
        last, cells, leaf = _follow_run(_child(last, 6, 1))
        assert len(cells) == 3 and leaf.is_leaf

    @pytest.mark.parametrize("frozen", [False, True])
    def test_a_lone_leaf_is_queued_with_its_run(self, paper_grid,
                                                run_shapes, frozen):
        """``_expand`` bounds a run's lone `$` leaf with the run (LBt on
        the run-end state) and keeps the leaf — unless the extension
        stopped early, in which case nothing is kept at all."""
        from repro.core.search import _bound_computer, _expand
        trie = RPTrie(paper_grid, "dtw").build(run_shapes.build)
        if frozen:
            trie = SuccinctRPTrie(trie)
        query = run_shapes.path(run_shapes.cells[0], 900)
        computer = _bound_computer(trie, query, None)
        kept, pruned = _expand(computer, trie.root, computer.initial_state(),
                               0, float("inf"), None)
        tail = [entry for entry in kept
                if entry[1].is_leaf and list(entry[1].tids) == [0]]
        assert len(tail) == 1 and tail[0][3] == 12
        bound, leaf, state, depth = tail[0]
        assert bound == computer.leaf_bound(state, leaf.dmax, depth)
        internal = [entry for entry in kept if not entry[1].is_leaf]
        assert internal and len(kept) + pruned == len(
            list(trie.root.iter_children()))
        # With a cutoff every first-level run reaches, nothing survives.
        kept, pruned = _expand(computer, trie.root, computer.initial_state(),
                               0, 0.0, None)
        assert kept == [] and pruned == len(list(trie.root.iter_children()))


@pytest.mark.parametrize("name", list(MEASURES))
class TestRunTraversal:
    """Top-k over tries made of runs equals a linear scan with per-pair
    distances — mutable and frozen, seeded and unseeded, pivots on and
    off, before and after inserts split the runs."""

    @staticmethod
    def _queries(shapes):
        """External queries (a query that *is* a pivot makes the pivot
        bound an exact distance evaluated in the other argument order,
        which may sit one ulp above the refined one): along the long
        tail, along the forking chain, across both, and a single point."""
        return [shapes.path(shapes.cells[0], 900),
                shapes.path(shapes.cells[2], 901),
                shapes.path([(1, 6), (2, 6), (3, 6), (4, 6)], 902),
                shapes.path([(6, 1)], 903)]

    def _check(self, trie, measure, trajectories, query, k):
        scan = sorted((measure.distance(query, t), t.traj_id)
                      for t in trajectories)
        want = scan[:k]
        # Seeds *equal* true distances: every bound on the way (run-end
        # LBo/LBt, the pivot bound, the refinement screens) must sit at
        # or below the float distance it bounds, or the tied candidate
        # is lost.
        kth = want[-1][0]
        low = want[len(want) // 2][0]
        for use_pivots in (True, False):
            assert_same_up_to_ties(
                local_search(trie, query, k, use_pivots=use_pivots).items,
                want, scan)
            for dk in (kth, 2 * kth + 1):
                assert_same_up_to_ties(
                    local_search(trie, query, k, dk=dk,
                                 use_pivots=use_pivots).items, want, scan)
            # A seed below the k-th distance only suppresses what lies
            # beyond it.
            assert_same_up_to_ties(
                local_search(trie, query, k, dk=low,
                             use_pivots=use_pivots).items,
                [item for item in want if item[0] <= low], scan)
        probe = probe_search(trie, query)
        assert probe.bound <= scan[0][0] + 1e-9

    def test_equals_linear_scan(self, paper_grid, run_shapes, name):
        measure = MEASURES[name]
        build, inserts = run_shapes.build, run_shapes.inserts
        trie = RPTrie(paper_grid, measure, num_pivots=2).build(build)
        for query in self._queries(run_shapes):
            for k in (1, 3, len(build)):
                self._check(trie, measure, build, query, k)
                self._check(SuccinctRPTrie(trie), measure, build, query, k)
        for traj in inserts:
            trie.insert(traj)
        everything = build + inserts
        for query in self._queries(run_shapes):
            for k in (2, 5):
                self._check(trie, measure, everything, query, k)
                self._check(SuccinctRPTrie(trie), measure, everything,
                            query, k)


class TestCellGeometryOncePerCell:
    def test_no_per_extend_geometry(self, small_grid, small_trajectories,
                                    monkeypatch):
        """One search asks the grid for a cell's geometry at most once,
        however often the traversal crosses the cell — it used to be
        once per bound extension.  The recorder binds the way the
        bench_e2e tracer does: ``make_bound_computer`` by name with three
        positionals, ``extend`` by instance assignment."""
        from repro.core import search
        from repro.core.grid import Grid

        geometry_calls, crossed = [], []
        for method in ("cell_bounds", "reference_point"):
            original = getattr(Grid, method)

            def counted(self, z, _original=original):
                geometry_calls.append(z)
                return _original(self, z)
            monkeypatch.setattr(Grid, method, counted)
        make = search.make_bound_computer

        def recording(measure, grid, query_points):
            computer = make(measure, grid, query_points)
            extend = computer.extend

            def recorded(state, z, *rest):
                crossed.extend(z if hasattr(z, "__len__") else [z])
                return extend(state, z, *rest)
            computer.extend = recorded
            return computer
        monkeypatch.setattr(search, "make_bound_computer", recording)

        for name in ("dtw", "hausdorff", "edr", "erp"):
            trie = RPTrie(small_grid, MEASURES[name]).build(
                small_trajectories)
            del geometry_calls[:], crossed[:]  # the build may ask freely
            result = local_search(trie, small_trajectories[4], 5)
            assert result.stats.nodes_visited > 10
            assert len(crossed) > len(set(crossed)) > 0
            assert len(geometry_calls) <= len(set(crossed))
