"""Brute-force ground truth over small feature spaces.

Everything here works by exhausting feature-space points with its own
little tree walker, independently of the traversal-based fast paths, so
the two sides can be checked against each other.  Operations refuse
inputs beyond the budget instead of degrading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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

    Memoizes entailment answers per literal set, which matters when many
    overlapping queries hit the same tree (as the equivalence suites do).
    """

    def __init__(self, tree: DecisionTree, budget: OracleBudget = DEFAULT_BUDGET):
        self.tree = tree
        self.budget = budget
        if tree.space.point_count() > budget.max_points:
            raise BudgetExceededError(
                f"feature space has {tree.space.point_count()} points, "
                f"budget allows {budget.max_points}"
            )
        self._memo: dict[frozenset[Literal], bool] = {}

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

    def _consistent_points(self, literals: Iterable[Literal]):
        allowed: dict[int, frozenset[int]] = {}
        for lit in literals:
            if lit.feature in allowed:
                raise ValueError(
                    f"more than one literal for feature index {lit.feature}"
                )
            allowed[lit.feature] = lit.allowed
        axes = [
            sorted(allowed.get(f.index, range(len(f.domain))))
            for f in self.tree.space.features
        ]
        return itertools.product(*axes)

    def entails(self, literals: Iterable[Literal], class_id: int) -> bool:
        """Exhaustive entailment: every point consistent with the literals
        classifies to ``class_id``.  Raises ValueError for a literal outside
        the tree's feature space."""
        key = frozenset(literals)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        _check_in_space(self.tree._full, key)
        nodes, leaves = self.tree.nodes, map(self._walk, self._consistent_points(key))
        result = all(nodes[leaf].class_id == class_id for leaf in leaves)
        self._memo[key] = result
        return result

    def enumerate_pi(
        self, universe: Sequence[Literal], class_id: int
    ) -> list[Explanation]:
        """All subset-minimal entailing subsets of the universe, by an
        ascending-cardinality sweep with superset pruning."""
        universe = tuple(universe)
        if len(universe) > self.budget.max_universe:
            raise BudgetExceededError(
                f"universe has {len(universe)} literals, "
                f"budget allows {self.budget.max_universe}"
            )
        feats = [lit.feature for lit in universe]
        if len(set(feats)) != len(feats):
            raise ValueError("universe must hold one literal per feature")
        minimal: list[frozenset[int]] = []
        for size in range(len(universe) + 1):
            for combo in itertools.combinations(range(len(universe)), size):
                chosen = frozenset(combo)
                if any(m <= chosen for m in minimal):
                    continue
                if self.entails([universe[i] for i in combo], class_id):
                    minimal.append(chosen)
        return [
            Explanation(
                literals=frozenset(universe[i] for i in m),
                target=class_id,
                mode=None,
                source=None,
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

