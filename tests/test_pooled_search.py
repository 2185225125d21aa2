"""Pooled refinement returns what a leaf-at-a-time loop returns.

``local_search`` pools the ids of the leaves it pops and refines them
in batched, compiled flushes against a ``dk`` that is stale between
flushes.  The claim (``repro.core.search`` module docstring) is that
this never changes the items, k-th-distance tie-breaks included.  The
reference here is Algorithm 2 as written — refine a leaf when it is
popped, one per-pair ``measure.distance`` at a time — on data where
ties are forced: duplicated trajectories (which also share a ``$``
leaf), trajectories clipped to one box corner, and k on the tie.  Both
also have to agree with a per-pair linear scan, up to which of several
candidates tied at the k-th distance is kept.

Nothing below needs the compiled tier: with no C compiler the cnative
parametrizations drop out and the numpy ones run (CI's
``numpy-fallback`` leg).  That leg is also where the numpy cells of the
big ``test_top_k`` grid run in full: beside a compiled tier they repeat
the first query's slice only (see :data:`RESOLVED`).
"""

from __future__ import annotations

import heapq
import itertools
import sys

import numpy as np
import pytest

from oracle import assert_same_up_to_ties, linear_scan, random_walks
from repro import Repose
from repro.core import search
from repro.core.grid import Grid
from repro.core.rptrie import RPTrie
from repro.core.search import (ResultHeap, local_range_search, local_search,
                               local_search_multi)
from repro.core.store import TrajectoryStore
from repro.core.succinct import SuccinctRPTrie
from repro.distances import (dtw_distance, edr_distance, erp_distance,
                             frechet_distance, get_measure, lcss_distance)
from repro.distances.batch import exact_distances, refine_top_k
from repro.distances.kernels import available_backends, resolve_backend
from repro.types import BoundingBox, Trajectory, TrajectoryDataset

MEASURES = {
    "hausdorff": get_measure("hausdorff"),
    "frechet": get_measure("frechet"),
    "dtw": get_measure("dtw"),
    "erp": get_measure("erp"),
    "edr": get_measure("edr", eps=0.4),
    "lcss": get_measure("lcss", eps=0.4),
}
BACKENDS = list(available_backends())
#: The backend a default engine runs on here.  ``test_top_k`` walks its
#: whole grid (6 queries x 3 k x pivots on/off x 4 seeds) on this one;
#: a cell of another available backend — numpy beside a compiled tier,
#: ~1 s per cell in Python run sweeps — keeps the first query's slice,
#: and gets the whole grid on the leg that resolves to it
#: (``REPRO_KERNELS=numpy``: CI's ``numpy-fallback``).
RESOLVED = resolve_backend()
INF = float("inf")


def tied_trajectories() -> list[Trajectory]:
    """Random walks, three copies of every fifth one, and walks that
    leave the box through one corner and are clipped onto it."""
    walks = random_walks(40, seed=5, min_len=3, max_len=18)
    out = list(walks)
    for i, walk in enumerate(walks[::5]):
        out += [Trajectory(walk.points, traj_id=100 + 2 * i),
                Trajectory(walk.points, traj_id=101 + 2 * i)]
    rng = np.random.default_rng(9)
    for i in range(8):
        n = int(rng.integers(3, 10))
        points = np.clip(7.0 + rng.uniform(0.0, 3.0, (n, 2)), 0.0, 7.999)
        points[:1 + i % 3] -= rng.uniform(0.2, 1.5, (1 + i % 3, 2))
        out.append(Trajectory(points, traj_id=200 + i))
    return out


def queries(data: list[Trajectory]) -> list[Trajectory]:
    """A duplicated member, a clipped member, and outsiders: a jittered
    copy, a path into the clipping corner, a single point."""
    rng = np.random.default_rng(2)
    return [data[0], data[-1], data[10],
            Trajectory(data[5].points + rng.normal(0, 0.05,
                                                   data[5].points.shape),
                       traj_id=900),
            Trajectory([(5.0, 5.5), (6.5, 7.0), (7.999, 7.999),
                        (7.999, 7.999)], traj_id=901),
            Trajectory([(4.0, 4.0)], traj_id=902)]


@pytest.fixture(scope="module")
def data() -> list[Trajectory]:
    return tied_trajectories()


@pytest.fixture(scope="module")
def tries(data):
    """name -> (mutable trie, frozen trie), built once per module."""
    grid = Grid.fit(BoundingBox(0.0, 0.0, 8.0, 8.0), delta=0.5)
    built = {}
    for name, measure in MEASURES.items():
        trie = RPTrie(grid, measure, num_pivots=3).build(data)
        built[name] = (trie, SuccinctRPTrie(trie))
    return built


@pytest.fixture(scope="module")
def scans(data):
    """(measure, query id) -> the per-pair linear scan, ascending."""
    return {(name, q.traj_id): linear_scan(measure, q, data)
            for name, measure in MEASURES.items() for q in queries(data)}


def leaf_at_a_time(trie, query, k, distance, dk=INF, use_pivots=True,
                   kernels=None):
    """Algorithm 2 as written: the traversal of ``local_search`` (same
    ``_expand``, same heap order), a popped leaf refined on the spot
    with per-pair distances, ``dk`` fresh at every pop."""
    results = ResultHeap(k, threshold=float(np.nextafter(dk, np.inf))
                         if np.isfinite(dk) else INF)
    computer = search._bound_computer(trie, query, kernels)
    pivot_bound = search._pivot_bound(trie, query, use_pivots, None, kernels)
    counter = itertools.count()
    heap = [(0.0, next(counter), trie.root, computer.initial_state(), 0)]
    while heap:
        priority, _, node, state, depth = heapq.heappop(heap)
        cutoff = results.dk
        if priority >= cutoff:
            break
        if node.is_leaf:
            for tid in node.tids:
                results.offer(distance[tid], tid)
            continue
        kept, _ = search._expand(computer, node, state, depth, cutoff,
                                 pivot_bound)
        for bound, child, child_state, child_depth in kept:
            heapq.heappush(heap, (bound, next(counter), child, child_state,
                                  child_depth))
    return results.sorted_items()


def tie_ks(scan) -> list[int]:
    """Two k whose k-th and (k+1)-th scan distances tie, and one past
    the pool's first two flushes."""
    tied = [k for k in range(1, len(scan)) if scan[k - 1][0] == scan[k][0]]
    assert tied, "the data is meant to tie"
    return sorted({tied[0], tied[len(tied) // 2], 13})


@pytest.mark.parametrize("kernels", BACKENDS)
@pytest.mark.parametrize("frozen", [False, True], ids=["rptrie", "succinct"])
@pytest.mark.parametrize("name", list(MEASURES))
class TestPooledEqualsLeafAtATime:
    def test_top_k(self, data, tries, scans, name, frozen, kernels):
        trie = tries[name][frozen]
        for query in queries(data)[:None if kernels == RESOLVED else 1]:
            scan = scans[name, query.traj_id]
            distance = {tid: d for d, tid in scan}
            for k in tie_ks(scan):
                kth, mid = scan[k - 1][0], scan[(k - 1) // 2][0]
                for use_pivots in (True, False):
                    for dk in (INF, kth, mid, 2 * kth + 1):
                        got = local_search(trie, query, k, dk=dk,
                                           use_pivots=use_pivots,
                                           kernels=kernels).items
                        assert got == leaf_at_a_time(
                            trie, query, k, distance, dk, use_pivots,
                            kernels), (query.traj_id, k, dk, use_pivots)
                        want = [item for item in scan[:k] if item[0] <= dk]
                        assert_same_up_to_ties(got, want, scan)

    def test_multi(self, data, tries, scans, name, frozen, kernels):
        trie = tries[name][frozen]
        group = queries(data)
        k = 6
        dks = [INF if i % 2 else scans[name, q.traj_id][k - 1][0]
               for i, q in enumerate(group)]
        for share_groups in (None, [0, 0, None, 1, 1, None]):
            results = local_search_multi(trie, group, k, dks=dks,
                                         share_groups=share_groups,
                                         kernels=kernels)
            for query, dk, result in zip(group, dks, results):
                distance = {tid: d for d, tid in scans[name, query.traj_id]}
                assert result.items == leaf_at_a_time(
                    trie, query, k, distance, dk, kernels=kernels)

    def test_range(self, data, tries, scans, name, frozen, kernels):
        """A range answer has no tie to break: it *is* the scan's."""
        trie = tries[name][frozen]
        for query in queries(data):
            scan = scans[name, query.traj_id]
            for radius in (0.0, scan[4][0], scan[len(scan) // 2][0]):
                want = [item for item in scan if item[0] <= radius]
                for use_pivots in (True, False):
                    got = local_range_search(trie, query, radius,
                                             use_pivots=use_pivots,
                                             kernels=kernels)
                    assert got.items == want
                    assert got.stats.leaf_refinements <= 1


class TestPoolAccounting:
    def test_flushes_are_few_and_batched(self, data, tries, monkeypatch):
        """Candidates reach the engine in pools of 4, 8, 16, ... — not
        one call per leaf — and the counters say so."""
        trie = tries["frechet"][0]
        sizes = []
        refine = search.refine_top_k

        def recording(measure, query, tids, *args, **kwargs):
            sizes.append(len(tids))
            return refine(measure, query, tids, *args, **kwargs)
        monkeypatch.setattr(search, "refine_top_k", recording)
        result = local_search(trie, data[3], len(data))
        # A flush is due at 4, 8, 16, 32 pooled ids; the leaf that
        # crosses the mark may bring its duplicates along.
        assert all(due <= size <= due + 2
                   for size, due in zip(sizes, (4, 8, 16, 32)))
        assert len(sizes) == 5 and sizes[4] <= 64     # what was left
        assert sum(sizes) == len(data)
        assert result.stats.leaf_refinements == len(sizes)
        # Pooled candidates plus the three query-to-pivot distances.
        assert result.stats.distance_computations == len(data) + 3


PYTHON_DPS = (frechet_distance, dtw_distance, erp_distance, edr_distance,
              lcss_distance)


class _PythonDPCalls:
    """Counts entries into the per-pair Python DPs by *code object*, so
    no alias, ``from``-import or default argument can route around it."""

    def __init__(self):
        self.codes = {fn.__code__: fn.__name__ for fn in PYTHON_DPS}
        self.entered: list[str] = []

    def _hook(self, frame, event, arg):
        if event == "call" and frame.f_code in self.codes:
            self.entered.append(self.codes[frame.f_code])

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


@pytest.mark.parametrize("kernels", BACKENDS)
@pytest.mark.parametrize("name", ["frechet", "dtw", "erp", "edr", "lcss"])
class TestNoPythonDPOnTheQueryPath:
    """The per-pair Python DPs are the oracle, not a code path: neither
    a query nor a scan may enter one (at the parent commit every
    candidate of every query did)."""

    def test_the_hook_sees_a_python_dp(self, name, kernels):
        with _PythonDPCalls() as calls:
            MEASURES[name].distance(np.zeros((2, 2)), np.ones((3, 2)))
        assert calls.entered == [f"{name}_distance"]

    def test_engine_top_k(self, data, name, kernels):
        dataset = TrajectoryDataset(name="tied", trajectories=list(data))
        engine = Repose.build(dataset, measure=MEASURES[name],
                              num_partitions=3, kernels=kernels)
        with _PythonDPCalls() as calls:
            for query in queries(data):
                for plan in ("waves", "single"):
                    engine.top_k(query, 5, plan=plan)
            engine.range_query(data[0], 1.0)
        assert calls.entered == []

    def test_refine_top_k_over_512_candidates(self, name, kernels):
        walks = random_walks(512, seed=12, min_len=4, max_len=30)
        store = TrajectoryStore(walks)
        with _PythonDPCalls() as calls:
            for query in walks[:3]:
                refine_top_k(MEASURES[name], query.points, store.ids(),
                             store, ResultHeap(10), kernels=kernels)
        assert calls.entered == []


@pytest.mark.parametrize("kernels", BACKENDS)
@pytest.mark.parametrize("name", list(MEASURES))
def test_exact_distances_are_the_per_pair_bits(data, name, kernels):
    """The query-to-pivot helper: one kernel call, ``measure.distance``'s
    bits — in the argument order the pivot tables were built with."""
    measure = MEASURES[name]
    store = TrajectoryStore(data)
    tids = [t.traj_id for t in data[::3]]
    for query in queries(data):
        got = exact_distances(measure, query.points, store, tids,
                              kernels=kernels)
        want = [measure.distance(query, store.get(tid)) for tid in tids]
        assert got.tolist() == want
