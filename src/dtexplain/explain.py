"""Explanation-redundancy decision and PI-explanation extraction.

A path is explanation-redundant when some tested feature can be declared
*universal* (free to take any domain value) without any contrary leaf
becoming reachable; the remaining literals then still entail the
prediction, so the path's literal set strictly contains a PI-explanation.

Every question here is answered by one lookup, :func:`_contrary_leaf`: an
explicit-stack depth-first search for a leaf of another class that some
point satisfying the current per-feature allowed sets can reach.  It
narrows a feature's allowed set when it descends an edge and undoes the
narrowing on backtrack; a feature without an entry is universal.  Being
iterative, it is not limited by the interpreter's recursion depth.

The per-path redundancy decision works node-locally: it follows the
leaf's parent chain up to the root (``TreePath.tests``), and at each node
searches only the subtrees hanging off the untaken edges.  Those subtrees
are pairwise disjoint across all path nodes, so the whole decision
examines each tree node at most once, which is the node-visit bound.

Extraction of one PI-explanation is greedy: each candidate feature in turn
is dropped when, with every previously dropped feature still universal, a
lookup from the root finds no contrary leaf.  Every drop is therefore an
entailment test of the literals kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import (
    DecisionTree,
    Instance,
    Leaf,
    Literal,
    TreePath,
    classify,
    instance_literals,
)

__all__ = [
    "Explanation",
    "RedundancyResult",
    "entails",
    "is_path_redundant",
    "one_pi_explanation_path",
    "one_pi_explanation_instance",
    "PATH_RESTRICTED",
    "PATH_UNRESTRICTED",
]

PATH_RESTRICTED = "path-restricted"
PATH_UNRESTRICTED = "path-unrestricted"


@dataclass(frozen=True)
class Explanation:
    """A literal set claimed to entail a prediction.

    ``mode`` tells whether the candidate literals came from a tree path or
    from the instance's equality literals (None for source-agnostic
    results, e.g. from the brute-force oracle).
    """

    literals: frozenset[Literal]
    target: int
    mode: str | None = None
    source: str | tuple | None = None

    def features(self) -> frozenset[int]:
        return frozenset(lit.feature for lit in self.literals)

    def sorted_literals(self) -> list[Literal]:
        return sorted(self.literals, key=Literal.sort_key)

    def render(self, tree: DecisionTree) -> str:
        body = ", ".join(lit.render(tree.space) for lit in self.sorted_literals())
        return "{" + body + "}"

    def as_value_map(self, tree: DecisionTree) -> dict[str, str | list[str]]:
        """Feature-name to value-name mapping, single values unwrapped."""
        out: dict[str, str | list[str]] = {}
        for lit in self.sorted_literals():
            feat = tree.space.feature(lit.feature)
            names = [feat.domain[v] for v in sorted(lit.allowed)]
            out[feat.name] = names[0] if len(names) == 1 else names
        return out


@dataclass(frozen=True)
class RedundancyResult:
    redundant: bool
    witness: int | None
    node_visits: int


def _contrary_leaf(
    tree: DecisionTree,
    node_id: str,
    target: int,
    allowed: dict[int, frozenset[int]],
) -> tuple[bool, int]:
    """Whether a leaf below ``node_id`` (inclusive) predicts a class other
    than ``target`` and is reachable by a point whose features take values
    in ``allowed`` (a feature without an entry is free).

    Edges are searched in declaration order and the search stops at the
    first contrary leaf.  Also returns the number of nodes entered, leaves
    included.  ``allowed`` itself is left unchanged.
    """
    allowed = dict(allowed)
    nodes = tree.nodes
    examined = 0
    # (child, feature, values): enter child with allowed[feature] = values;
    # child None restores allowed[feature] to values (None: free again)
    stack: list[tuple[str | None, int | None, frozenset[int] | None]] = [
        (node_id, None, None)
    ]
    while stack:
        child, feature, values = stack.pop()
        if child is None:
            if values is None:
                del allowed[feature]
            else:
                allowed[feature] = values
            continue
        examined += 1
        node = nodes[child]
        if isinstance(node, Leaf):
            if node.class_id != target:
                return True, examined
            continue
        if feature is not None:
            stack.append((None, feature, allowed.get(feature)))
            allowed[feature] = values
        entry = allowed.get(node.feature)
        for edge in reversed(node.edges):
            step = edge.values if entry is None else edge.values & entry
            if step:
                stack.append((edge.child, node.feature, step))
    return False, examined


def entails(tree: DecisionTree, literals: Iterable[Literal], class_id: int) -> bool:
    """True iff every point consistent with the literals classifies to
    ``class_id``; a single root-down traversal pruning disjoint edges."""
    allowed: dict[int, frozenset[int]] = {}
    for lit in literals:
        if lit.feature in allowed:
            raise ValueError(f"more than one literal for feature index {lit.feature}")
        allowed[lit.feature] = lit.allowed
    return not _contrary_leaf(tree, tree.root, class_id, allowed)[0]


def is_path_redundant(tree: DecisionTree, path: TreePath) -> RedundancyResult:
    """Decide whether a path's literal set strictly contains a
    PI-explanation; linear in the tree size.

    Path nodes are examined deepest-first.  A feature is droppable when,
    with the rest of the path fixed and the feature free below each of its
    nodes, no untaken edge of any of its nodes opens a consistent contrary
    sub-path; the witness is the first feature whose nodes have all been
    examined that way, which happens at its shallowest test.
    """
    tree.check_owns(path)
    visits = 0
    base = path.literal_map
    allowed = dict(base)
    failed: set[int] = set()
    for node_id, child_id, above in path.tests():
        node = tree.nodes[node_id]
        feature = node.feature
        visits += 1
        if feature in failed:
            continue
        for edge in node.edges:
            step = edge.values if above is None else edge.values & above
            if edge.child == child_id or not step:
                continue
            allowed[feature] = step
            found, examined = _contrary_leaf(tree, edge.child, path.prediction, allowed)
            visits += examined
            if found:
                failed.add(feature)
                break
        allowed[feature] = base[feature]
        if feature not in failed and above is None:
            return RedundancyResult(True, feature, visits)
    return RedundancyResult(False, None, visits)


def _greedy(
    tree: DecisionTree,
    kept: dict[int, frozenset[int]],
    order: Iterable[int],
    target: int,
) -> frozenset[Literal]:
    """Drop each feature of ``order`` in turn from ``kept`` when the rest
    still leaves every contrary leaf unreachable; the literals that stay
    form a PI-explanation."""
    for feature in order:
        values = kept.pop(feature)
        if _contrary_leaf(tree, tree.root, target, kept)[0]:
            kept[feature] = values
    return frozenset(Literal(f, v) for f, v in kept.items())


def one_pi_explanation_path(tree: DecisionTree, path: TreePath) -> Explanation:
    """Extract one PI-explanation from the path's own literals.

    Features are tried deepest-first (by their deepest test); the result is
    the path's literal set minus the dropped features, and it is
    subset-minimal.
    """
    tree.check_owns(path)
    order = dict.fromkeys(tree.nodes[node_id].feature for node_id, _, _ in path.tests())
    return Explanation(
        literals=_greedy(tree, path.literal_map, order, path.prediction),
        target=path.prediction,
        mode=PATH_RESTRICTED,
        source=path.path_id,
    )


def one_pi_explanation_instance(tree: DecisionTree, instance: Instance) -> Explanation:
    """Extract one PI-explanation from the instance's equality literals.

    Elimination is greedy in descending feature index, which pins a
    deterministic representative among the (possibly several) valid
    PI-explanations.
    """
    target, _ = classify(tree, instance)
    kept = {lit.feature: lit.allowed for lit in instance_literals(tree.space, instance)}
    return Explanation(
        literals=_greedy(tree, kept, sorted(kept, reverse=True), target),
        target=target,
        mode=PATH_UNRESTRICTED,
        source=tuple(instance),
    )
