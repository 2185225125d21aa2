"""Unit tests for RP-Trie construction."""

import numpy as np
import pytest

from oracle import assert_same_up_to_ties, linear_scan, random_walks
from repro.core.node import TERMINAL, TrieNode
from repro.core.rearrange import rearrange_dataset
from repro.core.reference import ReferenceEncoder, encoder_mode_for
from repro.core.rptrie import RPTrie
from repro.core.search import local_search
from repro.distances import get_measure
from repro.distances.base import rounding_slack
from repro.distances.kernels import KERNELS_ENV, available_backends
from repro.exceptions import IndexNotBuiltError
from repro.types import Trajectory


class TestTrieNode:
    def test_terminal_is_leaf(self):
        assert TrieNode(TERMINAL).is_leaf
        assert not TrieNode(5).is_leaf

    def test_update_hr_folds_min_max(self):
        node = TrieNode(0)
        node.update_hr(np.array([1.0, 5.0]))
        node.update_hr(np.array([3.0, 2.0]))
        np.testing.assert_allclose(node.hr_min, [1.0, 2.0])
        np.testing.assert_allclose(node.hr_max, [3.0, 5.0])

    def test_count_nodes(self):
        root = TrieNode(0)
        root.children = {1: TrieNode(1), 3: TrieNode(3)}
        root.children[1].children[2] = TrieNode(2)
        assert root.count_nodes() == 4
        assert root.child(3) is root.children[3] and root.child(4) is None


class TestBuild:
    def test_unbuilt_query_raises(self, paper_grid, paper_query):
        trie = RPTrie(paper_grid, "hausdorff")
        with pytest.raises(IndexNotBuiltError):
            trie.node_count

    def test_every_trajectory_reaches_a_leaf(self, paper_grid,
                                             paper_trajectories):
        trie = RPTrie(paper_grid, "hausdorff").build(paper_trajectories)
        stored = sorted(tid for leaf in trie.iter_leaves() for tid in leaf.tids)
        assert stored == sorted(t.traj_id for t in paper_trajectories)

    def test_prefix_trajectory_gets_own_leaf(self, paper_grid):
        """A trajectory that is a prefix of another ends at a $ leaf."""
        long = Trajectory([(0.5, 0.5), (1.5, 0.5), (2.5, 0.5)], traj_id=0)
        prefix = Trajectory([(0.5, 0.5), (1.5, 0.5)], traj_id=1)
        trie = RPTrie(paper_grid, "frechet").build([long, prefix])
        leaves = {tuple(leaf.tids) for leaf in trie.iter_leaves()}
        assert (0,) in leaves and (1,) in leaves

    def test_identical_references_share_one_leaf(self, paper_grid):
        a = Trajectory([(0.5, 0.5), (1.5, 0.5)], traj_id=0)
        b = Trajectory([(0.6, 0.6), (1.6, 0.4)], traj_id=1)  # same cells
        trie = RPTrie(paper_grid, "hausdorff").build([a, b])
        leaves = [leaf for leaf in trie.iter_leaves() if leaf.tids]
        assert len(leaves) == 1
        assert sorted(leaves[0].tids) == [0, 1]

    def test_dmax_bounded_by_half_diagonal(self, paper_grid,
                                           paper_trajectories):
        trie = RPTrie(paper_grid, "hausdorff").build(paper_trajectories)
        for leaf in trie.iter_leaves():
            assert leaf.dmax <= paper_grid.half_diagonal + 1e-12

    def test_hr_present_for_metric(self, paper_grid, paper_trajectories):
        trie = RPTrie(paper_grid, "hausdorff", num_pivots=2,
                      pivot_groups=3).build(paper_trajectories)
        for child in trie.root.children.values():
            assert child.hr_min is not None
            assert (child.hr_min <= child.hr_max + 1e-12).all()

    def test_hr_absent_for_non_metric(self, paper_grid, paper_trajectories):
        trie = RPTrie(paper_grid, "dtw").build(paper_trajectories)
        assert trie.num_pivots == 0
        for child in trie.root.children.values():
            assert child.hr_min is None

    def test_hr_nested_in_parent(self, small_grid, small_trajectories):
        """Child HR intervals lie within the parent's (enables monotone
        pivot bounds)."""
        trie = RPTrie(small_grid, "hausdorff", num_pivots=3,
                      pivot_groups=3).build(small_trajectories)
        stack = [trie.root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                if node is not trie.root and node.hr_min is not None:
                    assert (child.hr_min >= node.hr_min - 1e-12).all()
                    assert (child.hr_max <= node.hr_max + 1e-12).all()
                stack.append(child)

    def test_max_traj_len_is_subtree_max(self, small_grid,
                                         small_trajectories):
        trie = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        overall = max(len(t) for t in small_trajectories)
        assert trie.root.max_traj_len == overall

    def test_optimized_flag_ignored_for_order_sensitive(self, paper_grid,
                                                        paper_trajectories):
        trie = RPTrie(paper_grid, "frechet", optimized=True)
        assert not trie.optimized

    def test_optimized_no_more_nodes_than_plain(self, small_grid,
                                                small_trajectories):
        plain = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        optimized = RPTrie(small_grid, "hausdorff",
                           optimized=True).build(small_trajectories)
        assert optimized.node_count <= plain.node_count

    def test_rebuild_is_idempotent(self, paper_grid, paper_trajectories):
        trie = RPTrie(paper_grid, "hausdorff")
        trie.build(paper_trajectories)
        first = trie.node_count
        trie.build(paper_trajectories)
        assert trie.node_count == first

    def test_depth_matches_longest_reference(self, paper_grid,
                                             paper_trajectories):
        trie = RPTrie(paper_grid, "frechet").build(paper_trajectories)
        assert trie.depth() == 5  # longest collapsed reference (tau_3/tau_5)

    def test_memory_bytes_positive_and_grows(self, small_grid,
                                             small_trajectories):
        small = RPTrie(small_grid, "hausdorff").build(small_trajectories[:10])
        large = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        assert 0 < small.memory_bytes() < large.memory_bytes()

    def test_shared_pivots_are_used(self, small_grid, small_trajectories):
        pivots = small_trajectories[:3]
        trie = RPTrie(small_grid, "hausdorff", num_pivots=3,
                      pivots=pivots).build(small_trajectories)
        assert trie.pivots == pivots


def _walks_with_twins(count=40, seed=11) -> list[Trajectory]:
    """Random walks incl. single points, plus exact copies (shared
    leaves, distances tied at 0)."""
    walks = random_walks(count, seed=seed, min_len=1, max_len=16)
    return walks + [Trajectory(w.points, traj_id=500 + i)
                    for i, w in enumerate(walks[::7])]


def _nodes(trie):
    """path -> node, for every node under the root."""
    out, stack = {}, [((), trie.root)]
    while stack:
        path, node = stack.pop()
        out[path] = node
        stack.extend((path + (z,), child)
                     for z, child in node.children.items())
    return out


def _per_trajectory_build(grid, measure, trajectories, pivots,
                          optimized=False):
    """What ``RPTrie.build`` computes, one trajectory and one per-pair
    distance at a time: path -> (tids, dmax, max_traj_len, hr rows,
    child order)."""
    encoder = ReferenceEncoder(
        grid, mode=encoder_mode_for(measure, optimized=optimized))
    refs = [encoder.encode(t) for t in trajectories]
    if optimized:
        refs = rearrange_dataset(refs)
    by_id = {t.traj_id: t for t in trajectories}
    nodes: dict = {(): [[], 0.0, 0, [], []]}
    for ref in refs:
        traj = by_id[ref.traj_id]
        row = [measure.distance(traj, p) for p in pivots]
        path = ()
        for z in (*ref.z_values, TERMINAL):
            if path + (z,) not in nodes:
                nodes[path + (z,)] = [[], 0.0, 0, [], []]
                nodes[path][4].append(z)
            path += (z,)
        nodes[path][0].append(ref.traj_id)
        if measure.name in ("hausdorff", "frechet"):
            nodes[path][1] = max(nodes[path][1], float(
                grid.own_cell_center_distances(traj.points).max()))
        for depth in range(len(path) + 1):
            entry = nodes[path[:depth]]
            entry[2] = max(entry[2], len(traj))
            entry[3].append(row)
    return nodes


class TestBuildFromArrays:
    """The build takes z-values, ``Dmax`` and the pivot table from
    whole-partition array passes and kernel calls; the trie must be the
    one the per-trajectory, per-pair path builds."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name, optimized", [
        ("hausdorff", False), ("hausdorff", True), ("frechet", False),
        ("erp", False), ("dtw", False), ("edr", False)])
    def test_trie_equals_the_per_trajectory_build(
            self, small_grid, monkeypatch, name, optimized, backend):
        monkeypatch.setenv(KERNELS_ENV, backend)
        measure = get_measure(name)
        data = _walks_with_twins()
        trie = RPTrie(small_grid, measure, optimized=optimized,
                      num_pivots=3).build(data)
        assert len(trie.pivots) == (3 if measure.is_metric else 0)
        want = _per_trajectory_build(small_grid, measure, data, trie.pivots,
                                     optimized)
        got = _nodes(trie)
        assert set(got) == set(want)
        assert trie.node_count == len(got) - 1 == trie.root.count_nodes() - 1
        slack = rounding_slack(
            2 * max(len(t) for t in data),
            *(t.points for t in data), np.array([measure.params["gap"]])
        ) if name == "erp" else 0.0
        for path, node in got.items():
            tids, dmax, max_len, rows, child_order = want[path]
            assert (node.tids, node.dmax, node.max_traj_len,
                    list(node.children)) == (tids, dmax, max_len, child_order)
            if not trie.pivots:
                assert node.hr_min is None
                continue
            lo, hi = np.min(rows, axis=0), np.max(rows, axis=0)
            if name == "erp":  # the transposed sum: ulps, inside the slack
                assert np.abs(node.hr_min - lo).max() <= slack
                assert np.abs(node.hr_max - hi).max() <= slack
            else:
                assert node.hr_min.tobytes() == lo.tobytes()
                assert node.hr_max.tobytes() == hi.tobytes()

    def test_inserts_keep_the_trie_and_its_node_count(self, small_grid):
        """Build half, insert the rest: the nodes of building it all,
        and ``node_count`` tracks the walk it no longer does."""
        measure = get_measure("frechet")
        data = _walks_with_twins()
        whole = RPTrie(small_grid, measure, num_pivots=3).build(data)
        grown = RPTrie(small_grid, measure, num_pivots=3,
                       pivots=whole.pivots).build(data[:20])
        for traj in data[20:]:
            grown.insert(traj)
            assert grown.node_count == grown.root.count_nodes() - 1
        got, want = _nodes(grown), _nodes(whole)
        assert set(got) == set(want) and grown.node_count == whole.node_count
        for path, node in got.items():
            other = want[path]
            assert (node.tids, node.dmax, node.max_traj_len) == (
                other.tids, other.dmax, other.max_traj_len)
            assert node.hr_min.tobytes() == other.hr_min.tobytes()
            assert node.hr_max.tobytes() == other.hr_max.tobytes()

    def test_erp_seeded_with_the_kth_distance_keeps_the_tie(self,
                                                             small_grid):
        """ERP's table is the kernel's sum, not the per-pair DP's: a
        pivot as the query makes the triangle tight, the exact k-th
        distance as the seed makes an ulp matter."""
        measure = get_measure("erp")
        data = _walks_with_twins()
        trie = RPTrie(small_grid, measure, num_pivots=3).build(data)
        for query in [*trie.pivots, data[0], data[-1]]:
            scan = linear_scan(measure, query, data)
            for k in (1, 2, 5, 12):
                got = local_search(trie, query, k, dk=scan[k - 1][0],
                                   use_pivots=True).items
                assert_same_up_to_ties(got, scan[:k], scan)
