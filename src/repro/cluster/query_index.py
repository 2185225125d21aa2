"""Driver-side metric index over query trajectories.

Every driver structure that reasons about *queries* — share-group
clustering, cross-query triangle tightening, the hot-query registry's
near-duplicate scan — would, as a linear scan over query objects, pay
one trajectory-distance call per comparison.  Fine for six-query
benches; a wall for the thousand-query streams the serving layer
admits.  This module provides the index those scans run against:

* :class:`QueryIndex` — a mutable VP-tree (vantage-point tree, per the
  N-tree line of exact metric trajectory indexes) over arbitrary keyed
  items under an arbitrary ``distance(a, b)``.  In **metric** mode the
  triangle inequality prunes subtrees during range / nearest-neighbor
  searches, so a lookup touches ``O(log n)``-ish items instead of all
  of them.  In **non-metric** mode (DTW/EDR/LCSS, whose distances
  certify nothing) the index degrades to a deterministic linear scan,
  while the two cheap layers below still apply:

  - **Content fingerprints** as a pre-filter: items whose point arrays
    are byte-identical are *twins* of one node; a twin insert, and any
    lookup against a content-identical item, costs **zero** distance
    calls (every measure in the repo is a pseudometric with
    ``d(x, x) = 0``).
  - A **pair cache** memoizing every evaluated distance by unordered
    key pair, shared across lookups, across the clustering /
    cross-tightening phases of one batch (the planner passes its
    ``known`` dict), and — for the registry's index, whose keys are
    content fingerprints — across batches.

Soundness and bit-identity: every value the index serves is either an
exactly evaluated distance or absent.  Truncating a search at its
distance-call ``budget`` only *removes* matches — a partial minimum
over certified upper bounds is still a certified upper bound, and a
missed clustering match only forfeits plan sharing — so budgets tune
driver cost, never correctness.  All traversal orders are
deterministic functions of the insertion sequence.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = ["QueryIndex", "content_key"]

#: Routing depth past which an insert stops descending and attaches the
#: item to the current node's overflow bucket instead.  Keeps the cost
#: of one insert bounded (one distance per level) even for degenerate
#: distances — e.g. a constant distance function, under which a VP-tree
#: would otherwise grow a chain and inserts would go O(n).
DEPTH_LIMIT = 32


def content_key(obj) -> tuple | None:
    """Byte-level fingerprint of an item's point array, or None.

    Two items with equal content keys are interchangeable under every
    pseudometric (``d(x, y) = 0`` whenever the point arrays are
    identical), which is what lets the index treat them as *twins*
    without a distance call.  Items without a point array (scripted
    test fakes, plain strings) return None and never prefilter-match.
    """
    points = getattr(obj, "points", None)
    if points is None and isinstance(obj, np.ndarray):
        points = obj
    if points is None:
        return None
    arr = np.ascontiguousarray(points)
    return (arr.shape, arr.dtype.str, arr.tobytes())


class _BudgetExhausted(Exception):
    """Internal: a search spent its fresh-distance-call budget."""


class _Node:
    """One routed VP-tree item: vantage point plus its ball split."""

    __slots__ = ("order", "key", "obj", "ckey", "mu", "inner", "outer",
                 "bucket", "twins", "weight", "wmin")

    def __init__(self, order: int, key, obj, ckey):
        self.order = order
        self.key = key
        self.obj = obj
        self.ckey = ckey
        #: Ball radius splitting routed descendants: fixed forever at
        #: the distance of the first item routed through this node, so
        #: the inner/outer invariant holds for every later insert.
        self.mu: float | None = None
        self.inner: _Node | None = None
        self.outer: _Node | None = None
        #: Depth-capped overflow items.  They followed the same routing
        #: path as this node, so every ancestor ball constraint (hence
        #: every ancestor prune) applies to them; they are checked
        #: individually whenever this node is visited.
        self.bucket: list[_Node] = []
        #: Content-identical items: share this node's every distance.
        self.twins: list[tuple[int, object]] = []  # (order, key)
        # Per-tighten() weight state (refreshed without distance calls).
        self.weight = np.inf
        self.wmin = np.inf


class _SearchState:
    """Per-lookup budget accounting (fresh distance evaluations)."""

    __slots__ = ("budget", "spent")

    def __init__(self, budget: int | None):
        self.budget = budget
        self.spent = 0


class QueryIndex:
    """Mutable metric index over keyed query objects.

    Parameters
    ----------
    distance:
        ``distance(a, b) -> float`` between two item objects.  Must be
        symmetric with ``d(x, x) = 0``; the triangle inequality is
        additionally required only in metric mode.
    metric:
        True enables VP-tree routing and triangle pruning.  False
        (non-metric mode) keeps insertion free and turns every lookup
        into a budgeted linear scan in insertion order — the content
        prefilter and pair cache still apply, pruning does not.
    pair_cache:
        Optional dict memoizing evaluated distances under the
        unordered key pair ``(min(ka, kb), max(ka, kb))`` (keys must be
        mutually orderable).  Sharing one dict across several indexes
        — or across batches, with content-stable keys — shares their
        distance work.  Defaults to a private dict.

    Counters: :attr:`distance_calls` counts fresh distance evaluations
    (cache hits and prefilter hits are free); :attr:`prefilter_hits`
    counts lookups answered by content identity alone.
    """

    def __init__(self, distance: Callable, metric: bool = True,
                 pair_cache: dict | None = None):
        self.distance = distance
        self.metric = metric
        self.distance_calls = 0
        self.prefilter_hits = 0
        self._pair_cache = pair_cache if pair_cache is not None else {}
        self._root: _Node | None = None
        self._nodes: list[_Node] = []          # routed, insertion order
        self._by_content: dict[tuple, _Node] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def keys(self) -> list:
        """Every item key, in insertion order (twins included)."""
        out = []
        for node in self._nodes:
            out.append((node.order, node.key))
            out.extend(node.twins)
            for member in node.bucket:
                out.append((member.order, member.key))
                out.extend(member.twins)
        return [key for _, key in sorted(out)]

    # -- distance plumbing ---------------------------------------------------

    def _pair_key(self, a_key, b_key):
        try:
            return (a_key, b_key) if a_key <= b_key else (b_key, a_key)
        except TypeError:
            # Mixed un-orderable key types: fall back to no caching.
            return None

    def _dist(self, obj, obj_key, obj_ckey, node: _Node,
              state: _SearchState | None) -> float:
        """Distance from a lookup object to one indexed node.

        Zero-cost when the keys or the point contents are identical
        (pseudometric identity) or the pair was evaluated before; a
        fresh evaluation charges the lookup's budget and the index's
        :attr:`distance_calls`.
        """
        if obj_key is not None and obj_key == node.key:
            return 0.0
        if obj_ckey is not None and obj_ckey == node.ckey:
            self.prefilter_hits += 1
            return 0.0
        pair = (self._pair_key(obj_key, node.key)
                if obj_key is not None else None)
        if pair is not None:
            value = self._pair_cache.get(pair)
            if value is not None:
                return value
        if state is not None and state.budget is not None:
            if state.spent >= state.budget:
                raise _BudgetExhausted()
            state.spent += 1
        value = float(self.distance(obj, node.obj))
        self.distance_calls += 1
        if pair is not None:
            self._pair_cache[pair] = value
        return value

    # -- construction --------------------------------------------------------

    def add(self, key, obj) -> None:
        """Insert one item.

        Content-identical items become twins of the existing node
        (zero distance calls).  Metric mode routes the item down the
        tree — one distance per level, every one of which lands in the
        pair cache, so a lookup that preceded this insert (the
        planner's cluster-then-insert pattern) has usually prepaid the
        whole path.  Non-metric mode appends to the scan list for free.
        """
        ckey = content_key(obj)
        if ckey is not None:
            twin_of = self._by_content.get(ckey)
            if twin_of is not None:
                twin_of.twins.append((self._next_order(), key))
                self.prefilter_hits += 1
                self._count += 1
                return
        node = _Node(self._next_order(), key, obj, ckey)
        if ckey is not None:
            self._by_content[ckey] = node
        self._count += 1
        if self._root is None:
            self._root = node
            self._nodes.append(node)
            return
        if not self.metric:
            self._nodes.append(node)
            return
        cursor = self._root
        depth = 0
        while True:
            d = self._dist(obj, key, None, cursor, None)
            if cursor.mu is None:
                cursor.mu = d
                cursor.inner = node
                self._nodes.append(node)
                return
            depth += 1
            if depth >= DEPTH_LIMIT:
                # Depth-capped: the item lives in this node's overflow
                # bucket, not in the routed-node list (buckets are
                # visited through their owner).
                cursor.bucket.append(node)
                return
            if d <= cursor.mu:
                if cursor.inner is None:
                    cursor.inner = node
                    self._nodes.append(node)
                    return
                cursor = cursor.inner
            else:
                if cursor.outer is None:
                    cursor.outer = node
                    self._nodes.append(node)
                    return
                cursor = cursor.outer

    def _next_order(self) -> int:
        return self._count

    def _scan_nodes(self) -> Iterable[_Node]:
        """Every routed node (buckets included), insertion order."""
        for node in self._nodes:
            yield node
            yield from node.bucket

    # -- lookups -------------------------------------------------------------

    def range_search(self, obj, eps: float, obj_key=None,
                     budget: int | None = None, first: bool = False,
                     ) -> list[tuple[object, float]]:
        """All items within ``eps`` of ``obj`` (inclusive), as
        ``(key, distance)`` sorted by insertion order.

        Metric mode prunes a subtree when the vantage split proves no
        descendant can sit within ``eps``; non-metric mode scans.
        ``budget`` caps *fresh* distance evaluations; on exhaustion the
        matches found so far are returned (a deterministic subset —
        sound wherever a missed match only forfeits an optimization).
        ``first=True`` returns only the earliest-inserted match — the
        share-clustering contract ("join the first representative in
        range") — letting the non-metric scan stop at its first hit.
        """
        obj_ckey = content_key(obj)
        state = _SearchState(budget)
        matches: list[tuple[int, object, float]] = []

        def check(node: _Node, d: float) -> None:
            if d <= eps:
                matches.append((node.order, node.key, d))
                for order, key in node.twins:
                    matches.append((order, key, d))

        try:
            if not self.metric:
                for node in self._scan_nodes():
                    check(node, self._dist(obj, obj_key, obj_ckey, node,
                                           state))
                    if first and matches:
                        break
            elif self._root is not None:
                stack = [self._root]
                while stack:
                    node = stack.pop()
                    d = self._dist(obj, obj_key, obj_ckey, node, state)
                    check(node, d)
                    for member in node.bucket:
                        check(member, self._dist(obj, obj_key, obj_ckey,
                                                 member, state))
                    if node.mu is None:
                        continue
                    # Keep traversal order deterministic: outer pushed
                    # first so the inner child pops first.
                    if node.outer is not None and node.mu - d <= eps:
                        stack.append(node.outer)
                    if node.inner is not None and d - node.mu <= eps:
                        stack.append(node.inner)
        except _BudgetExhausted:
            pass
        matches.sort()
        if first:
            del matches[1:]
        return [(key, d) for _, key, d in matches]

    def nearest(self, obj, n: int = 1, obj_key=None,
                budget: int | None = None,
                ) -> list[tuple[object, float]]:
        """The ``n`` nearest items as ``(key, distance)``, ascending by
        ``(distance, insertion order)`` — exactly a brute-force scan's
        answer, ties included, when the budget does not truncate.

        Metric mode prunes a subtree only when its triangle lower
        bound strictly exceeds the current n-th best distance, so every
        item that could enter the answer (or re-order a tie) is
        visited.
        """
        obj_ckey = content_key(obj)
        state = _SearchState(budget)
        found: list[tuple[float, int, object]] = []

        def worst() -> float:
            return found[-1][0] if len(found) >= n else np.inf

        def check(node: _Node, d: float) -> None:
            found.append((d, node.order, node.key))
            for order, key in node.twins:
                found.append((d, order, key))
            found.sort()
            del found[n:]

        try:
            if not self.metric:
                for node in self._scan_nodes():
                    check(node, self._dist(obj, obj_key, obj_ckey, node,
                                           state))
            elif self._root is not None:
                stack: list[tuple[float, _Node]] = [(0.0, self._root)]
                while stack:
                    lb, node = stack.pop()
                    if lb > worst():
                        continue
                    d = self._dist(obj, obj_key, obj_ckey, node, state)
                    check(node, d)
                    for member in node.bucket:
                        if lb > worst():
                            break
                        check(member, self._dist(obj, obj_key, obj_ckey,
                                                 member, state))
                    if node.mu is None:
                        continue
                    inner_lb = max(lb, d - node.mu)
                    outer_lb = max(lb, node.mu - d)
                    # Visit the more promising child first: push it
                    # last.  Strict-ties go inner-first (deterministic).
                    children = []
                    if node.outer is not None:
                        children.append((outer_lb, node.outer))
                    if node.inner is not None:
                        children.append((inner_lb, node.inner))
                    children.sort(key=lambda c: -c[0])
                    for child_lb, child in children:
                        if child_lb <= worst():
                            stack.append((child_lb, child))
        except _BudgetExhausted:
            pass
        return [(key, d) for d, _, key in found]

    def tighten(self, weights: dict, budget: int | None = None,
                ) -> tuple[dict, int]:
        """Weighted-nearest self-join: the cross-query threshold pass.

        For every indexed item ``j`` computes ``min_i(weights[i] +
        d(i, j))`` over all indexed items ``i`` — the triangle-coupled
        broadcast threshold when ``weights`` are the per-query running
        ``dk`` values.  Identical to the full pairwise-matrix reduction
        (the diagonal is covered by ``d(j, j) = 0``), but branch-and-
        bound: per-node subtree weight minima — refreshed here in one
        O(n) pass with **zero** distance calls — prune every subtree
        that provably cannot improve on the best value so far, and an
        item whose own weight already equals the global minimum skips
        its lookup outright (nothing can improve it).

        ``budget`` caps fresh distance calls *per item lookup* (the
        ``CROSS_QUERY_LIMIT`` knob): a truncated lookup returns the
        partial minimum, which is still a certified upper bound.
        Returns ``(tightened, improved)``: per-key thresholds and how
        many keys improved strictly below their own weight.  Metric
        mode only — the caller guarantees ``distance`` is a metric.
        """
        self._refresh_weights(weights)
        global_min = min((node.wmin for node in self._nodes),
                         default=np.inf)
        out: dict = {}
        improved = 0
        for node in self._scan_nodes():
            for order, key in [(node.order, node.key)] + node.twins:
                own = weights.get(key, np.inf)
                if own <= global_min:
                    # min_i(w_i + d) >= global_min >= own: nothing to
                    # gain, and skipping costs no correctness (own dk
                    # is always included via the zero self-distance).
                    out[key] = own
                    continue
                best = self._nearest_weighted(node.obj, key, own, budget)
                out[key] = best
                if best < own:
                    improved += 1
        return out, improved

    def _refresh_weights(self, weights: dict) -> None:
        """Recompute node weights and subtree minima (no distance
        calls); missing keys weigh ``inf`` and so never tighten."""
        for node in self._nodes:
            w = weights.get(node.key, np.inf)
            for _, key in node.twins:
                w = min(w, weights.get(key, np.inf))
            # node.weight covers only items at this node's exact
            # distance (the node and its content twins).  Bucket
            # members sit at their own distances, so their weights may
            # fold into the subtree minimum (pruning) but never into
            # the owner's weight (candidate values).
            node.weight = w
            wmin = w
            for member in node.bucket:
                mw = weights.get(member.key, np.inf)
                for _, key in member.twins:
                    mw = min(mw, weights.get(key, np.inf))
                member.weight = member.wmin = mw
                wmin = min(wmin, mw)
            node.wmin = wmin
        # Children are always appended after their parent, so one
        # reverse sweep folds every subtree minimum bottom-up.
        for node in reversed(self._nodes):
            if node.inner is not None:
                node.wmin = min(node.wmin, node.inner.wmin)
            if node.outer is not None:
                node.wmin = min(node.wmin, node.outer.wmin)

    def _nearest_weighted(self, obj, obj_key, init_best: float,
                          budget: int | None) -> float:
        """Branch-and-bound ``min_i(weight_i + d(obj, i))``, never
        above ``init_best`` (the item's own weight, i.e. the zero
        self-distance candidate)."""
        best = init_best
        if self._root is None:
            return best
        state = _SearchState(budget)
        obj_ckey = None  # self-join: key identity already covers it

        def check(node: _Node, d: float) -> None:
            nonlocal best
            if node.weight + d < best:
                best = node.weight + d

        try:
            stack: list[tuple[float, _Node]] = [(0.0, self._root)]
            while stack:
                lb, node = stack.pop()
                if node.wmin + lb >= best:
                    continue
                d = self._dist(obj, obj_key, obj_ckey, node, state)
                check(node, d)
                for member in node.bucket:
                    if member.wmin + lb < best:
                        check(member, self._dist(obj, obj_key, obj_ckey,
                                                 member, state))
                if node.mu is None:
                    continue
                inner_lb = max(lb, d - node.mu)
                outer_lb = max(lb, node.mu - d)
                children = []
                if node.outer is not None:
                    children.append((outer_lb, node.outer))
                if node.inner is not None:
                    children.append((inner_lb, node.inner))
                children.sort(key=lambda c: -c[0])
                for child_lb, child in children:
                    if child.wmin + child_lb < best:
                        stack.append((child_lb, child))
        except _BudgetExhausted:
            pass
        return best

