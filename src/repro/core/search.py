"""Best-first top-k search over an RP-Trie (paper, Algorithm 2).

Subtrees are explored in ascending order of their lower bound.
Internal nodes are ranked by ``max(LBo, LBp)``; ``$`` leaves by
``max(LBt, LBp)``.  A subtree is pruned when its bound reaches the
current k-th best distance ``dk``; because bounds are sound for whole
subtrees, the loop may break as soon as the popped bound reaches ``dk``.

**The unit of traversal is a run, not a node.**  A *run* is a maximal
chain of internal nodes each having exactly one child, which is
internal too (no ``$`` child) — one edge of the path-compressed trie.
Below the first level the tries built here are mostly such chains, so
the one child-expansion step (:func:`_expand`, shared by
:func:`probe_search`, :func:`local_search` and
:func:`local_range_search`) follows each child down its run through the
node interface both trie flavours share (``iter_children``,
``is_leaf``, ``z_value``) and pays one ``computer.extend`` call and one
heap entry for the whole run.  This is sound because every node of a
run has the same subtree: the bound of the run's last cell, its pivot
bound and its ``max_traj_len`` are those of the run's last node, and
since bounds never decrease along a path, an extension that stops
early at ``dk`` has already proved the subtree out.  Nothing about runs
is stored: they are rediscovered while walking, so inserts and the
frozen succinct trie need no bookkeeping.

**Leaves are pooled, not refined one by one.**  The tries built here
hold one trajectory per ``$`` leaf, so refining a leaf when it is
popped (as Algorithm 2 is written) asks for distances pair by pair.
Instead a popped leaf's trajectory ids go, in pop order, into a
per-search *pool* that is flushed (:func:`_flush`) through one
:func:`~repro.distances.batch.refine_top_k` call — one gathered tensor,
one batched screen, banded upper bounds, staged exact DPs in the kernel
tier — when it holds :data:`_POOL_FIRST` candidates, then twice that,
and so on up to ``_DP_BATCH_MAX``, and once more when the loop ends.
The doubling lets ``dk`` tighten early, while the result heap is still
filling; first flushes of 2 to 32 and caps of 16 to 256 all measured
within the ±5 % a single run resolves on the ``bench_e2e`` single-query
workloads (``docs/architecture.md`` has the sweep), so the sizes are
constants, not options.  :func:`local_range_search` pools every leaf it reaches and
flushes once (its radius never moves); :func:`local_search_multi` runs
one search, hence one pool, per query.

*Pooling never changes the items*, k-th-distance tie-breaks included.
Between flushes the loop prunes against a *stale* ``dk`` — at least as
loose as the one a leaf-at-a-time loop would hold at the same pop — so
it pops the same runs and leaves in the same relative order (extra heap
entries never reorder the entries both loops share: priorities are
equal and push order is inherited from the shared parents) plus some
*extra* ones the tighter loop had pruned or never reached.  Every extra
candidate lies under a bound that had reached the tighter loop's ``dk``
at that moment, so — bounds being sound — its distance is at least
that ``dk``, hence at least every later one.  ``refine_top_k`` replays
its values in ``tids`` order, i.e. pop order: by induction the heap
before an extra candidate is the heap the tighter loop held there, and
:meth:`ResultHeap.offer`'s strict ``<`` (and strict external
threshold) rejects a distance that is not below ``dk``.  So the shared
candidates meet the same heap in the same order in both loops
(``tests/test_pooled_search.py``: a leaf-at-a-time loop on per-pair
distances, data with forced ties).

Search statistics (runs visited/pruned, refinements) are collected so
experiments can report pruning effectiveness.

Two driver-facing hooks support the two-phase query planner
(:mod:`repro.cluster.planner`):

* :func:`probe_search` summarizes a partition from the bounds of the
  root's first-level runs alone — no refinement — so the driver can
  order partitions by promise and skip ones whose every trajectory is
  provably out;
* ``local_search(..., dk=...)`` seeds the search with an externally
  known k-th-best distance.  The threshold is applied *strictly* (only
  candidates whose distance exceeds ``dk`` are suppressed; ties at
  exactly ``dk`` survive), which keeps the driver's merged global
  top-k — including its (distance, tid) tie-breaks — bit-identical to
  a run without the seed.  Seeding only prunes work, never answers.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..distances.base import rounding_slack
from ..distances.batch import _DP_BATCH_MAX, refine_range, refine_top_k
from ..distances.kernels import get_kernels
from ..types import Trajectory
from .bounds import make_bound_computer
from .pivots import pivot_store, query_pivot_distances

__all__ = ["TopKResult", "SearchStats", "ResultHeap", "PartitionProbe",
           "probe_search", "local_search", "local_search_multi",
           "local_range_search"]


@dataclass
class SearchStats:
    """Counters describing one search run.

    ``nodes_visited`` counts heap (or stack) pops: one per run of the
    trie and one per ``$`` leaf reached — the cells inside a run are not
    separate visits.  ``nodes_pruned`` counts the runs and leaves whose
    bound reached the threshold and were dropped instead of queued.

    ``leaf_refinements`` counts pool flushes (one batched refinement
    call each), ``distance_computations`` the candidates that went
    through them plus any query-to-pivot distances computed locally,
    and ``exact_refinements`` the candidates that paid a full
    exact-distance evaluation (an exact DP, or Hausdorff's tensor
    reduction) instead of being dismissed by a bound — the number
    threshold propagation exists to shrink.

    The first block counts local per-partition work; the second is
    filled in by the driver-side query planner (zero for purely local
    runs) so cluster-wide pruning effectiveness is reportable from one
    merged object.
    """

    nodes_visited: int = 0
    nodes_pruned: int = 0
    leaf_refinements: int = 0
    distance_computations: int = 0
    exact_refinements: int = 0
    # -- driver/planner counters (see repro.cluster.planner) ---------------
    waves: int = 0
    threshold_broadcasts: int = 0
    partitions_skipped: int = 0
    # -- fault-tolerance counters (see repro.cluster.engine) ---------------
    retries: int = 0
    timeouts: int = 0
    speculative_wins: int = 0


@dataclass
class TopKResult:
    """Top-k result: (distance, trajectory id) pairs, ascending."""

    items: list[tuple[float, int]] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)

    def ids(self) -> list[int]:
        """Result trajectory ids, ascending by (distance, tid)."""
        return [tid for _, tid in self.items]

    def distances(self) -> list[float]:
        """Result distances, ascending."""
        return [d for d, _ in self.items]

    def kth_distance(self) -> float:
        """The worst kept distance (inf when no results are held)."""
        return self.items[-1][0] if self.items else float("inf")

    def __len__(self) -> int:
        return len(self.items)


class ResultHeap:
    """Fixed-capacity max-heap over (distance, tid): tracks dk.

    ``threshold`` is an optional *strict* external cutoff: distances at
    or above it are rejected outright and :attr:`dk` never exceeds it.
    The query planner seeds it with ``nextafter(global dk, inf)`` so
    candidates tied with the global k-th best still enter (the driver
    merge tie-breaks ties by tid), making threshold seeding invisible
    in the merged global result.
    """

    def __init__(self, k: int, threshold: float = float("inf")):
        self.k = k
        self.threshold = threshold
        self._heap: list[tuple[float, int]] = []  # (-distance, tid)

    @property
    def dk(self) -> float:
        """Current pruning threshold: the tighter of the heap's k-th
        best distance and the external :attr:`threshold`."""
        if len(self._heap) < self.k:
            return self.threshold
        return min(-self._heap[0][0], self.threshold)

    def offer(self, distance: float, tid: int) -> None:
        """Insert ``(distance, tid)`` if it beats the k-th best and the
        external threshold; otherwise drop it."""
        if distance >= self.threshold:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-distance, tid))
        elif distance < -self._heap[0][0]:
            heapq.heapreplace(self._heap, (-distance, tid))

    def clone(self) -> "ResultHeap":
        """Independent copy (used as the batch refiner's probe heap)."""
        other = ResultHeap(self.k, threshold=self.threshold)
        other._heap = list(self._heap)
        return other

    def sorted_items(self) -> list[tuple[float, int]]:
        """Held items as an ascending (distance, tid) list."""
        return sorted(((-nd, tid) for nd, tid in self._heap),
                      key=lambda item: (item[0], item[1]))


def _bound_computer(trie, query: Trajectory, kernels: str | None):
    """The query's bound computer over ``trie``'s grid, sweeping runs
    on the requested kernel backend."""
    computer = make_bound_computer(trie.measure, trie.grid, query.points)
    if kernels is not None:
        computer.kernels = get_kernels(kernels)
    return computer


def _pivot_bound(trie, query: Trajectory, use_pivots: bool,
                 dqp: np.ndarray | None, kernels: str | None, stats=None):
    """``LBp`` of this (trie, query) as a function of a node — the
    triangle-inequality bound off the node's ``HR`` array — or None
    when pivots are off or absent.  ``dqp`` is the caller's shared
    query-to-pivot vector, else computed here (one kernel call).

    ``d(q, t) >= d(q, p) - d(t, p)`` holds between the *real*
    distances; evaluated on three floats, a tight triangle (collinear
    points under Hausdorff/Frechet, a query that is a pivot) lands
    ``dqp - hr_max`` an ulp or two *above* the float ``d(q, t)`` —
    enough to drop a candidate tied with a seeded ``dk`` — so each of
    the three gives up :func:`~repro.distances.base.rounding_slack`.
    """
    if not (use_pivots and trie.pivots):
        return None
    if dqp is None:
        dqp = query_pivot_distances(trie, trie.measure, query, kernels)
        if stats is not None:
            stats.distance_computations += len(trie.pivots)
    points = [query.points, trie.store.extent(), pivot_store(trie).extent()]
    if "gap" in trie.measure.params:
        points.append(np.array([trie.measure.params["gap"]]))
    slack = 3.0 * rounding_slack(
        len(query) + int(trie.root.max_traj_len)
        + max(len(p) for p in trie.pivots), *points)

    def bound(node) -> float:
        if node.hr_min is None:
            return 0.0
        # A handful of pivots: Python's max over lists beats ndarray.max.
        return max(0.0, *(dqp - node.hr_max).tolist(),
                   *(node.hr_min - dqp).tolist()) - slack
    return bound


def _follow_run(node):
    """The run that starts at internal ``node``: its last node — the
    first one with a ``$`` child or other than exactly one child — its
    cells' z-values in path order, and the last node's ``$`` leaf when
    that is its only child (else None)."""
    cells = [node.z_value]
    while True:
        children = node.iter_children()
        child = next(children, None)
        if child is None or next(children, None) is not None:
            return node, cells, None
        if child.is_leaf:
            return node, cells, child
        node = child
        cells.append(node.z_value)


def _expand(computer, node, state, depth: int, cutoff: float,
            pivot_bound, use_lbt: bool = True, use_lbo: bool = True):
    """Expand ``node``: bound every child subtree, one run at a time.

    Returns ``(kept, pruned)``: ``kept`` holds ``(bound, node, state,
    depth)`` for each child whose bound stays below ``cutoff`` — for a
    ``$`` leaf the leaf itself under the parent's state, for an
    internal child the *last* node of its run under the state extended
    across the whole run — and ``pruned`` counts the children dropped.
    A run whose last node has nothing but a ``$`` leaf (most runs: one
    trajectory per leaf) is bounded *with* that leaf — ``LBt`` on the
    run-end state joins the run's bound — and the leaf is what is kept,
    sparing the heap round trip of a node that could only hand its leaf
    on; only when the extension ran to the end (a stopped sweep has no
    run-end state, and is pruned anyway).  The pivot bound needs no
    path state and is the same for every node of a run and a lone leaf
    under it (same subtree, same ``HR``), so it is read off the child
    first and a run it already prunes is neither walked nor extended;
    ``cutoff`` also stops a run's extension early (a disabled ``LBo``
    never prunes, so its runs are always extended in full).
    """
    pruned = 0
    children = []
    for child in node.iter_children():
        pivot = 0.0 if pivot_bound is None else pivot_bound(child)
        if pivot >= cutoff:
            pruned += 1
            continue
        cells = leaf = None
        if not child.is_leaf:
            child, cells, leaf = _follow_run(child)
        children.append((child, cells, leaf, pivot))
    runs = [cells for _, cells, _, _ in children if cells is not None]
    if len(runs) > 1:
        computer.touch(runs)
    kept = []
    run_cutoff = cutoff if use_lbo else float("inf")
    for child, cells, leaf, pivot in children:
        if cells is None:
            bound = (computer.leaf_bound(state, child.dmax, depth)
                     if use_lbt else 0.0)
            child_state, child_depth = state, depth
        else:
            child_state, bound = computer.extend(
                state, cells, child.max_traj_len, run_cutoff)
            child_depth = depth + len(cells)
            ran_to_end = bound < run_cutoff
            if not use_lbo:
                bound = 0.0
            if leaf is not None and ran_to_end:
                child = leaf
                if use_lbt:
                    bound = max(bound, computer.leaf_bound(
                        child_state, leaf.dmax, child_depth))
        bound = max(bound, pivot)
        if bound < cutoff:
            kept.append((bound, child, child_state, child_depth))
        else:
            pruned += 1
    return kept, pruned


@dataclass(frozen=True)
class PartitionProbe:
    """Cheap first-level summary of one partition (planner probe phase).

    ``bound`` lower-bounds the distance from the query to *every*
    trajectory in the partition (the minimum over the root's
    first-level child bounds), so a partition with
    ``bound > global dk`` provably holds none of the global top-k and
    can be skipped without being searched at all.  ``child_bounds``
    keeps the per-subtree values for promise ordering and LB-only
    candidate estimation; no leaf is refined to produce any of this.
    """

    bound: float
    child_bounds: tuple[float, ...]
    trajectories: int

    def estimated_candidates(self, threshold: float) -> int:
        """LB-only estimate: first-level subtrees a search seeded with
        ``threshold`` could still be forced to descend into."""
        return sum(1 for b in self.child_bounds if b <= threshold)


def probe_search(trie, query: Trajectory,
                 use_pivots: bool = True, use_lbt: bool = True,
                 use_lbo: bool = True,
                 dqp: np.ndarray | None = None,
                 kernels: str | None = None) -> PartitionProbe:
    """Probe one RP-Trie: root/first-level lower bounds only.

    The planner's phase-one primitive: costs one bound extension per
    first-level run (O(first-level cells x query length)), refines
    nothing and computes no distances beyond the (driver-shared)
    query-pivot distances.  Ablation switches mirror
    :func:`local_search` so the probe is sound under the same
    configuration it will later search with (a disabled bound
    contributes 0, which never over-estimates).
    """
    trie._require_built()
    computer = _bound_computer(trie, query, kernels)
    pivot_bound = _pivot_bound(trie, query, use_pivots, dqp, kernels)
    kept, unbounded = _expand(computer, trie.root, computer.initial_state(),
                              0, float("inf"), pivot_bound, use_lbt, use_lbo)
    bounds = [bound for bound, *_ in kept] + [float("inf")] * unbounded
    return PartitionProbe(
        bound=min(bounds) if bounds else float("inf"),
        child_bounds=tuple(sorted(bounds)),
        trajectories=int(getattr(trie, "num_trajectories", 0) or 0),
    )


#: Padded-tensor float64 elements a :class:`_SharedGatherStore` retains
#: before ending a share group starts evicting that group's entries.
#: Generous on purpose: under it nothing is ever evicted; it only bounds
#: peak memory when many share groups funnel through one task.
_SHARED_GATHER_BUDGET = 1 << 24


class _SharedGatherStore:
    """Read-through store view memoizing :meth:`gather` across queries.

    :func:`local_search_multi` runs a share group's near-duplicate
    queries back to back; two searches whose pools flush the same ids
    in the same order ask for the same padded tensor.  This view caches
    ``gather()`` results keyed by ``(tids, max_len)``; every other
    attribute delegates to the wrapped store, and the batch kernels
    treat gathered tensors as read-only, so sharing them is invisible
    in results.  (Since leaves are pooled a key is a *flush*, which two
    queries rarely repeat: ``docs/architecture.md`` has the hit rate.)

    Entries are tagged with the *share group* of the query that created
    them (:meth:`begin_group`); :meth:`release_group` drops a finished
    group's entries, but only once retained tensors exceed
    :data:`_SHARED_GATHER_BUDGET`.  :attr:`hits`/:attr:`misses` count
    served vs built tensors.
    """

    def __init__(self, store, budget_elems: int = _SHARED_GATHER_BUDGET):
        self._store = store
        self._gathers: dict = {}
        self._group_keys: dict = {}
        # Ordered set (dict keys): released labels, oldest first.
        self._released: dict = {}
        self._group = None
        self._elems = 0
        self.budget_elems = budget_elems
        self.hits = 0
        self.misses = 0

    def begin_group(self, label) -> None:
        """Tag subsequent gathers with share group ``label``."""
        self._group = label

    def release_group(self, label) -> None:
        """A share group finished: evict finished groups' tensors,
        oldest first, while retained tensors exceed the budget.

        Purely a memory policy — a released tensor is rebuilt on the
        next request, bit-identically.  Groups released while under
        budget stay eviction-eligible later.  Idempotent: releasing a
        label again keeps its place, so a persistent view serving the
        same share group batch after batch holds one entry for it.
        """
        self._released.setdefault(label, None)
        while self._elems > self.budget_elems and self._released:
            victim = next(iter(self._released))
            del self._released[victim]
            for key in self._group_keys.pop(victim, ()):
                entry = self._gathers.pop(key, None)
                if entry is not None:
                    self._elems -= entry[0].size

    def gather(self, tids, max_len=None):
        """Memoized :meth:`~repro.core.store.TrajectoryStore.gather`."""
        key = (tuple(tids), max_len)
        hit = self._gathers.get(key)
        if hit is None:
            self.misses += 1
            hit = self._store.gather(tids, max_len=max_len)
            self._gathers[key] = hit
            self._group_keys.setdefault(self._group, []).append(key)
            self._elems += hit[0].size
        else:
            self.hits += 1
        return hit

    def __getattr__(self, name):
        return getattr(self._store, name)


#: Process-wide persistent shared gather views, one per live store
#: (see :func:`_persistent_view`).  Weak keys: a view dies with its
#: store, so rebuilt indexes start fresh.
_PERSISTENT_VIEWS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _persistent_view(store) -> _SharedGatherStore:
    """The shared gather view that outlives one multi-query call.

    Share groups can span engine waves: a staggered near-duplicate
    member's task dispatches one wave *after* its representative's, in
    a separate :func:`local_search_multi` call, so every call on the
    same store is handed the same view.  Entries are evicted only by
    the budget policy (:meth:`_SharedGatherStore.release_group`) and
    rebuilt bit-identically if evicted, so correctness never depends on
    the cache — racing writers (an engine speculatively duplicating a
    straggler task) can at worst build the same tensor twice.  Stores
    that cannot be weak-referenced (test fakes) get a per-call view.
    """
    try:
        view = _PERSISTENT_VIEWS.get(store)
    except TypeError:
        return _SharedGatherStore(store)
    if view is None:
        view = _SharedGatherStore(store)
        try:
            _PERSISTENT_VIEWS[store] = view
        except TypeError:
            pass
    return view


#: Pool size of a search's first flush; it doubles per flush up to
#: ``_DP_BATCH_MAX`` (the module docstring has the sweep behind both).
_POOL_FIRST = 4


def _flush(refine, trie, query: Trajectory, pool: list[int], target,
           stats: SearchStats, store=None, kernels: str | None = None):
    """Refine the pooled candidates in one engine call and empty the
    pool: ``refine`` is :func:`~repro.distances.batch.refine_top_k`
    with the result heap as ``target``, or
    :func:`~repro.distances.batch.refine_range` with the radius (whose
    matches are returned).  Counts one ``leaf_refinements`` and the
    candidates."""
    if not pool:
        return []
    tids = pool[:]
    pool.clear()
    stats.leaf_refinements += 1
    stats.distance_computations += len(tids)
    return refine(trie.measure, query.points, tids,
                  store if store is not None else trie.store, target,
                  stats=stats, kernels=kernels)


def local_search(trie, query: Trajectory, k: int,
                 use_pivots: bool = True, use_lbt: bool = True,
                 use_lbo: bool = True,
                 dqp: np.ndarray | None = None,
                 dk: float = float("inf"),
                 store=None,
                 kernels: str | None = None) -> TopKResult:
    """Top-k search on one RP-Trie (Algorithm 2, leaves pooled).

    Parameters
    ----------
    trie:
        A built :class:`~repro.core.rptrie.RPTrie` (or the frozen
        succinct variant, which shares the node interface).
    query:
        Query trajectory.
    k:
        Number of results.
    use_pivots, use_lbt, use_lbo:
        Ablation switches; disabling a bound replaces it with 0 (never
        prunes), preserving exactness.
    dqp:
        Precomputed query-to-pivot distances.  Pivots are global in the
        distributed setting, so the driver computes ``dqp`` once per
        query and shares it with every partition (paper, Section IV-D);
        when None, the distances are computed here.
    dk:
        Externally known k-th-best distance (the planner's running
        global threshold).  Applied strictly — only candidates whose
        distance *exceeds* ``dk`` may be suppressed — so the driver's
        merged global top-k is unchanged; it seeds the result heap and
        through it node pruning and every refinement stage.  Default
        infinity: plain single-partition semantics.
    store:
        Alternate trajectory store for refinement (default: the trie's
        own).  :func:`local_search_multi` passes a shared
        gather-memoizing view; any substitute must return bit-identical
        arrays for the same ids, so results never depend on it.
    kernels:
        Kernel backend for run extension and batch refinement
        (:mod:`repro.distances.kernels`); None/"auto" picks the
        fastest available.  Backends never change results, only speed.
    """
    trie._require_built()
    stats = SearchStats()
    # Strict external cutoff: candidates tied with the global k-th best
    # must survive for the driver merge's (distance, tid) tie-breaks.
    results = ResultHeap(k, threshold=float(np.nextafter(dk, np.inf))
                         if np.isfinite(dk) else float("inf"))

    computer = _bound_computer(trie, query, kernels)
    pivot_bound = _pivot_bound(trie, query, use_pivots, dqp, kernels, stats)
    pool: list[int] = []
    flush_at = _POOL_FIRST

    counter = itertools.count()
    # Entries: (priority, tiebreak, node, path_state, depth)
    heap: list[tuple[float, int, object, object, int]] = [
        (0.0, next(counter), trie.root, computer.initial_state(), 0)
    ]

    while heap:
        priority, _, node, state, depth = heapq.heappop(heap)
        # Stale between flushes — looser, never wrong (module docstring).
        cutoff = results.dk
        if priority >= cutoff:
            break
        stats.nodes_visited += 1

        if node.is_leaf:
            pool.extend(node.tids)
            if len(pool) >= flush_at:
                _flush(refine_top_k, trie, query, pool, results, stats,
                       store, kernels)
                flush_at = min(2 * flush_at, _DP_BATCH_MAX)
            continue

        kept, pruned = _expand(computer, node, state, depth, cutoff,
                               pivot_bound, use_lbt, use_lbo)
        stats.nodes_pruned += pruned
        for bound, child, child_state, child_depth in kept:
            heapq.heappush(
                heap, (bound, next(counter), child, child_state, child_depth))
    _flush(refine_top_k, trie, query, pool, results, stats, store, kernels)

    return TopKResult(items=results.sorted_items(), stats=stats)


def local_search_multi(trie, queries: list[Trajectory], k: int,
                       dqps: list[np.ndarray | None] | None = None,
                       dks: list[float] | None = None,
                       use_pivots: bool = True, use_lbt: bool = True,
                       use_lbo: bool = True,
                       share_groups: list | None = None,
                       kernels: str | None = None,
                       ) -> list[TopKResult]:
    """Top-k for several queries against one RP-Trie, sharing work.

    The multi-query entry point behind the batch query planner
    (:mod:`repro.cluster.batch`): one dispatched partition task runs a
    whole *group* of queries, so the per-task overhead is paid once per
    group instead of once per query, and so are the store's
    per-measure derived caches (ERP masses).  Each query still
    runs its own best-first traversal, its own candidate pool and its
    own batch refinement (the broadcast tensors are query-dependent),
    seeded with its own entry of the ``dks`` vector.

    Parameters mirror :func:`local_search`; ``dqps`` and ``dks`` are
    per-query vectors aligned with ``queries`` (None entries and a None
    vector both mean "not supplied").  ``share_groups``, when given, is
    a per-query vector of *share-group* labels (None for ungrouped):
    queries carrying the same label are near-duplicates, so they are
    run consecutively against a shared :class:`_SharedGatherStore`
    view, *persistent* per store
    (:func:`_persistent_view`), so a group member whose task runs one
    engine wave after its representative's can still reuse a tensor
    the representative built.  The store may release a finished
    group's tensors to bound peak memory; execution order and eviction
    can never change any query's answer, because every search is an
    independent pure function of its own arguments.  Returns one
    :class:`TopKResult` per query, in input order, each **bit-identical**
    to ``local_search(trie, query, k, dqp=..., dk=...)`` run alone —
    only shared read-only tensors and caches differ.
    """
    # Only share-grouped calls memoize gathers, through the persistent
    # per-store view (see above).  Ungrouped queries read the trie's
    # own store: a gather is keyed by a whole flush, which two distinct
    # queries rarely repeat (docs/architecture.md has the hit rate).
    persistent = (share_groups is not None
                  and any(label is not None for label in share_groups))
    shared = _persistent_view(trie.store) if persistent else None
    order = list(range(len(queries)))
    if share_groups is not None:
        # Group members run consecutively (stable: grouped queries
        # first, by label, then ungrouped in input order).
        order.sort(key=lambda i: ((1, i) if share_groups[i] is None
                                  else (0, share_groups[i])))
    results: list[TopKResult | None] = [None] * len(queries)
    previous = None
    for index in order:
        label = (share_groups[index]
                 if share_groups is not None else None)
        if shared is not None:
            if previous is not None and label != previous:
                shared.release_group(previous)
            shared.begin_group(label)
        previous = label
        results[index] = local_search(
            trie, queries[index], k,
            use_pivots=use_pivots, use_lbt=use_lbt, use_lbo=use_lbo,
            dqp=dqps[index] if dqps is not None else None,
            dk=dks[index] if dks is not None else float("inf"),
            store=shared, kernels=kernels)
    if persistent:
        # Every label this call used (None included) is releasable
        # now: kept until the budget forces oldest-first eviction.
        for label in dict.fromkeys(
                share_groups[index] for index in order):
            shared.release_group(label)
    return results


def local_range_search(trie, query: Trajectory, radius: float,
                       use_pivots: bool = True,
                       dqp: np.ndarray | None = None,
                       kernels: str | None = None) -> TopKResult:
    """All trajectories within ``radius`` of the query, ascending.

    Reuses the top-k machinery with a fixed threshold instead of the
    adaptive ``dk``: a subtree is pruned as soon as its lower bound
    reaches ``radius``.  (Range search is the primitive DITA builds its
    top-k on; REPOSE supports it natively with the same bounds.)  As in
    :func:`local_search`, ``dqp`` lets the driver share query-to-pivot
    distances across partitions.  The radius never moves, so every leaf
    reached is pooled and the pool is refined by one batch engine call
    at the end.
    """
    trie._require_built()
    stats = SearchStats()
    computer = _bound_computer(trie, query, kernels)
    pivot_bound = _pivot_bound(trie, query, use_pivots, dqp, kernels, stats)
    pool: list[int] = []
    # A subtree survives while its bound is <= radius, i.e. strictly
    # below the next float (also what a distance equal to the radius
    # needs to be computed exactly and included).
    cutoff = float(np.nextafter(radius, np.inf))

    stack = [(trie.root, computer.initial_state(), 0)]
    while stack:
        node, state, depth = stack.pop()
        stats.nodes_visited += 1
        if node.is_leaf:
            pool.extend(node.tids)
            continue
        kept, pruned = _expand(computer, node, state, depth, cutoff,
                               pivot_bound)
        stats.nodes_pruned += pruned
        stack.extend(entry[1:] for entry in kept)

    items = _flush(refine_range, trie, query, pool, radius, stats,
                   kernels=kernels)
    return TopKResult(items=sorted(items), stats=stats)
