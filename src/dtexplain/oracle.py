"""Brute-force ground truth over small feature spaces.

Everything here works by exhausting feature-space points with its own
little tree walker, independently of the traversal-based fast paths, so
the two sides can be checked against each other.  Each point is walked
at most once per tree; entailment queries are then answered by int
bitset algebra over the points.  Operations refuse inputs beyond the
budget instead of degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .explain import Explanation
from .model import DecisionTree, Leaf, Literal, TreePath, _check_in_space

__all__ = [
    "OracleBudget",
    "BudgetExceededError",
    "BruteForceOracle",
]


@dataclass(frozen=True)
class OracleBudget:
    """Caps on feature-space size and candidate-universe size."""

    max_points: int = 10**6
    max_universe: int = 20

    def __post_init__(self):
        if self.max_points <= 0 or self.max_universe <= 0:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = OracleBudget()


class BudgetExceededError(ValueError):
    """The input is too large for exhaustive verification."""


class BruteForceOracle:
    """Exhaustive checker bound to one tree.

    Entailment is decided on int bitsets over the space's points, bit
    ``i`` standing for the i-th point of :meth:`FeatureSpace.points`.  The
    first query walks every point once and records which points reach
    each class; a literal's points form a periodic block pattern, built
    without a walk and cached per feature and mask.  A query ANDs its
    literals' bitsets and looks for a point of another class.
    """

    def __init__(self, tree: DecisionTree, budget: OracleBudget = DEFAULT_BUDGET):
        self.tree = tree
        self.budget = budget
        if tree.space.point_count() > budget.max_points:
            raise BudgetExceededError(
                f"feature space has {tree.space.point_count()} points, "
                f"budget allows {budget.max_points}"
            )
        self._all_points = (1 << tree.space.point_count()) - 1
        self._others: dict[int, int] | None = None  # per class, by the first query
        self._selections: list[dict[int, int]] = [{} for _ in tree.space.features]

    def _walk(self, point: Sequence[int]) -> str:
        """The id of the leaf that ``point`` reaches."""
        nodes = self.tree.nodes
        node_id = self.tree.root
        while not isinstance(node := nodes[node_id], Leaf):
            value = point[node.feature]
            for edge in node.edges:
                if value in edge.values:
                    node_id = edge.child
                    break
        return node_id

    def _contrary(self, class_id: int) -> int:
        """The points that reach a leaf of another class than ``class_id``;
        the first call walks every point of the space once."""
        if self._others is None:
            nodes = self.tree.nodes
            size = (self.tree.space.point_count() + 7) // 8
            rows = [bytearray(size) for _ in self.tree.classes]
            for i, point in enumerate(self.tree.space.points()):
                rows[nodes[self._walk(point)].class_id][i >> 3] |= 1 << (i & 7)
            self._others = {
                c: self._all_points & ~int.from_bytes(row, "little")
                for c, row in enumerate(rows)
            }
        return self._others.get(class_id, self._all_points)

    def _selection(self, lit: Literal) -> int:
        """The points whose value on ``lit.feature`` lies in ``lit.mask``.
        The last feature varies fastest, so value ``v`` holds the ``v``-th
        run of ``stride`` points in every period of the pattern; the
        pattern is spelt in binary with point 0 last, as its lowest bit."""
        cache = self._selections[lit.feature]
        found = cache.get(lit.mask)
        if found is None:
            features = self.tree.space.features
            stride = math.prod(len(f.domain) for f in features[lit.feature + 1 :])
            period = b"".join(
                (b"1" if lit.mask >> v & 1 else b"0") * stride
                for v in range(len(features[lit.feature].domain))
            )
            repeats = self.tree.space.point_count() // len(period)
            found = cache[lit.mask] = int((period * repeats)[::-1], 2)
        return found

    def entails(self, literals: Iterable[Literal], class_id: int) -> bool:
        """Exhaustive entailment: every point consistent with the literals
        classifies to ``class_id``.  Raises ValueError for a literal outside
        the tree's feature space and for two literals on one feature."""
        consistent, seen = self._all_points, set()
        for lit in _check_in_space(self.tree._full, literals):
            if lit.feature in seen:
                raise ValueError(
                    f"more than one literal for feature index {lit.feature}"
                )
            seen.add(lit.feature)
            consistent &= self._selection(lit)
        return not consistent & self._contrary(class_id)

    def enumerate_pi(
        self, universe: Sequence[Literal], class_id: int
    ) -> list[Explanation]:
        """All subset-minimal entailing subsets of the universe, by an
        ascending-cardinality sweep that skips every superset of an
        entailing subset, on int masks of universe indices."""
        universe = _check_in_space(self.tree._full, universe)
        if len(universe) > self.budget.max_universe:
            raise BudgetExceededError(
                f"universe has {len(universe)} literals, "
                f"budget allows {self.budget.max_universe}"
            )
        feats = [lit.feature for lit in universe]
        if len(set(feats)) != len(feats):
            raise ValueError("universe must hold one literal per feature")
        selections = [self._selection(lit) for lit in universe]
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

