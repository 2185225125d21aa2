"""RP-Trie node structures (paper, Fig. 2).

Internal nodes carry a z-value label, children, and the pivot-distance
array ``HR``.  Every reference trajectory is terminated by a ``$`` child
(:data:`TERMINAL`), so trajectory payloads (``Tid`` lists plus ``Dmax``)
always live in leaf nodes, exactly as in the paper.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TERMINAL", "TrieNode"]

#: Child key of the ``$`` terminator: every reference trajectory ends in
#: a child with this label, which is a leaf holding the trajectory ids.
TERMINAL = -1


class TrieNode:
    """One node of a (mutable, dict-based) RP-Trie.

    Attributes
    ----------
    z_value:
        The node's label: a grid-cell z-value, :data:`TERMINAL` for
        ``$`` leaves, or ``TERMINAL`` - 1 for the root sentinel.
    children:
        Mapping from child label to child node.
    tids:
        Trajectory ids stored here (non-empty only for ``$`` leaves).
    dmax:
        Max distance from the node's reference trajectory to the stored
        trajectories (leaf only; 0.0 when unused, e.g. non-metrics).
    hr_min, hr_max:
        Per-pivot (min, max) distance over all *actual* trajectories in
        the subtree (the paper's ``HR`` array).  ``None`` when the
        measure is not a metric.
    max_traj_len:
        Maximum actual trajectory length in the subtree; used by the
        LCSS bound to normalize.
    """

    __slots__ = ("z_value", "children", "tids", "dmax",
                 "hr_min", "hr_max", "max_traj_len")

    def __init__(self, z_value: int):
        self.z_value = z_value
        self.children: dict[int, TrieNode] = {}
        self.tids: list[int] = []
        self.dmax = 0.0
        self.hr_min: np.ndarray | None = None
        self.hr_max: np.ndarray | None = None
        self.max_traj_len = 0

    @property
    def is_leaf(self) -> bool:
        """True for ``$`` terminator leaves (the nodes holding tids)."""
        return self.z_value == TERMINAL

    def child(self, z: int) -> "TrieNode | None":
        return self.children.get(z)

    def iter_children(self):
        """Iterate over child nodes.

        Part of the traversal interface shared with the succinct frozen
        trie, which materializes child handles lazily.
        """
        return iter(self.children.values())

    def update_hr(self, pivot_distances: np.ndarray) -> None:
        """Fold one trajectory's pivot-distance vector into ``HR``."""
        if self.hr_min is None:
            self.hr_min = pivot_distances.copy()
            self.hr_max = pivot_distances.copy()
        else:
            np.minimum(self.hr_min, pivot_distances, out=self.hr_min)
            np.maximum(self.hr_max, pivot_distances, out=self.hr_max)

    def count_nodes(self) -> int:
        """Number of nodes in this subtree, including this node."""
        total = 1
        stack = [self]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                total += 1
                stack.append(child)
        return total

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"TrieNode({kind}, z={self.z_value}, children={len(self.children)})"
