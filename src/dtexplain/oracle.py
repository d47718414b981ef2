"""Brute-force ground truth over small feature spaces.

Everything here exhausts the feature space, as int bitsets over its
points, and reads ``tree.nodes`` with its own code, never the lowered
lists that the fast paths search, so the two sides can be checked
against each other.  Each class's points come from one walk over the
nodes, and entailment queries are answered by bitset algebra.
The oracle refuses a space of more than ``MAX_POINTS`` points instead
of degrading.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

from .explain import Explanation
from .model import (
    DecisionTree, Leaf, Literal, TreePath, _check_literal_set, _check_point
)

__all__ = [
    "MAX_POINTS",
    "BudgetExceededError",
    "BruteForceOracle",
]

# The one budget.  No universe cap is needed: enumerate_pi accepts at
# most one literal per feature, every feature has at least 2 values and
# 2**20 > MAX_POINTS, so an accepted universe has at most 19 literals.
MAX_POINTS = 10**6


class BudgetExceededError(ValueError):
    """The input is too large for exhaustive verification."""


class BruteForceOracle:
    """Exhaustive checker bound to one tree.

    Entailment is decided on int bitsets over the space's points, bit
    ``i`` standing for the i-th point of :meth:`FeatureSpace.points`.  A
    literal's points form a periodic block pattern, built without a walk
    and cached per feature and mask.  The first query records which
    points reach each class, from one walk over the tree's nodes that
    meets each edge's pattern with the points reaching its parent.  A
    query ANDs its literals' bitsets and looks for a point of another
    class.
    """

    def __init__(self, tree: DecisionTree):
        self.tree = tree
        if tree.space.point_count() > MAX_POINTS:
            raise BudgetExceededError(
                f"feature space has {tree.space.point_count()} points, "
                f"budget allows {MAX_POINTS}"
            )
        self._all_points = (1 << tree.space.point_count()) - 1
        self._others: dict[int, int] | None = None  # per class, by the first query
        self._selections: list[dict[int, int]] = [{} for _ in tree.space.features]

    def _walk(self, point: Sequence[int]) -> str:
        """The id of the leaf that ``point`` reaches, after :func:`_check_point`."""
        _check_point(self.tree.space, point)
        nodes = self.tree.nodes
        node_id = self.tree.root
        while not isinstance(node := nodes[node_id], Leaf):
            value = point[node.feature]
            for edge in node.edges:
                if edge.mask >> value & 1:
                    node_id = edge.child
                    break
        return node_id

    def _contrary(self, class_id: int) -> int:
        """The points that reach a leaf of another class than ``class_id``.
        The first call walks the tree's nodes once: a node's points are
        its parent's met with the edge's selection, and a leaf's points
        join its class."""
        if self._others is None:
            nodes = self.tree.nodes
            reach = [0] * len(self.tree.classes)
            stack = [(self.tree.root, self._all_points)]
            while stack:
                node_id, points = stack.pop()
                node = nodes[node_id]
                if isinstance(node, Leaf):
                    reach[node.class_id] |= points
                    continue
                for edge in node.edges:
                    edge_points = points & self._selection(node.feature, edge.mask)
                    if edge_points:
                        stack.append((edge.child, edge_points))
            self._others = {c: self._all_points & ~r for c, r in enumerate(reach)}
        return self._others.get(class_id, self._all_points)

    def _selection(self, feature: int, mask: int) -> int:
        """The points whose value on ``feature`` lies in the value ``mask``.
        The last feature varies fastest, so value ``v`` holds the ``v``-th
        run of ``stride`` points in every period of the pattern; the
        pattern is spelt in binary with point 0 last, as its lowest bit."""
        cache = self._selections[feature]
        found = cache.get(mask)
        if found is None:
            features = self.tree.space.features
            stride = math.prod(len(f.domain) for f in features[feature + 1 :])
            period = b"".join(
                (b"1" if mask >> v & 1 else b"0") * stride
                for v in range(len(features[feature].domain))
            )
            repeats = self.tree.space.point_count() // len(period)
            found = cache[mask] = int((period * repeats)[::-1], 2)
        return found

    def entails(self, literals: Iterable[Literal], class_id: int) -> bool:
        """Exhaustive entailment: every point consistent with the literals
        classifies to ``class_id``.  Raises ValueError for a literal outside
        the tree's feature space and for two literals on one feature."""
        consistent = self._all_points
        for lit in _check_literal_set(self.tree._full, literals):
            consistent &= self._selection(lit.feature, lit.mask)
        return not consistent & self._contrary(class_id)

    def enumerate_pi(
        self, universe: Sequence[Literal], class_id: int
    ) -> list[Explanation]:
        """All subset-minimal entailing subsets of the universe, by an
        ascending-cardinality sweep that skips every superset of an
        entailing subset, on int masks of universe indices."""
        universe = _check_literal_set(self.tree._full, universe)
        selections = [self._selection(lit.feature, lit.mask) for lit in universe]
        contrary = self._contrary(class_id)
        bits = [1 << i for i in range(len(universe))]
        minimal: list[int] = []  # sums of bits
        for size in range(len(universe) + 1):
            # both list the same index subsets in the same order
            pairs = zip(combinations(bits, size), combinations(selections, size))
            for combo, chosen in pairs:
                mask = sum(combo)
                for m in minimal:  # skip supersets; faster than any()
                    if m & mask == m:
                        break
                else:
                    consistent = self._all_points
                    for selection in chosen:
                        consistent &= selection
                    if not consistent & contrary:
                        minimal.append(mask)
        return [
            Explanation(
                frozenset(u for i, u in enumerate(universe) if m >> i & 1), class_id
            )
            for m in minimal
        ]

    def is_redundant(self, path: TreePath) -> bool:
        """True iff dropping some single literal of the path still entails;
        by monotonicity this equals containing a strictly smaller
        entailing subset."""
        self.tree.check_owns(path)
        literals = path.literals
        for skip in range(len(literals)):
            rest = [lit for i, lit in enumerate(literals) if i != skip]
            if self.entails(rest, path.prediction):
                return True
        return False

