"""Explanation-redundancy decision and PI-explanation extraction.

A path is explanation-redundant when some tested feature can be declared
*universal* (free to take any domain value) without any contrary leaf
becoming reachable; the remaining literals then still entail the
prediction, so the path's literal set strictly contains a PI-explanation.

Every question here is answered by one lookup, :func:`_contrary_leaf`: an
explicit-stack depth-first search for a leaf of another class that some
point satisfying the current per-feature allowed sets can reach.  It runs
on the tree's lowered form (integer node numbers, see
:class:`~dtexplain.model.DecisionTree`), and the allowed sets are a list
of int value masks indexed by feature, where a universal feature holds
its whole domain's mask.  The search narrows a feature's mask in place
when an edge really narrows it and undoes that on backtrack; on an early
return it replays the restores still pending, so no lookup copies the
list.  Being iterative, it is not limited by the interpreter's recursion
depth.

The per-path redundancy decision works node-locally: it follows the
leaf's parent chain up to the root (``TreePath.steps``), and at each node
searches only the subtrees hanging off the untaken edges.  Those subtrees
are pairwise disjoint across all path nodes, so the whole decision
examines each tree node at most once, which is the node-visit bound.

Extraction of one PI-explanation is greedy: each candidate feature in turn
is dropped when, with every previously dropped feature still universal, a
lookup finds no contrary leaf.  Every drop is therefore an entailment test
of the literals kept.  A lookup starts on the source's path, at the
shallower of the tried feature's shallowest test and the start of the last
accepted drop.  Every feature tested above that node is kept and allows
only its taken edge's values, so every consistent point takes the path's
edges down to it, and a lookup from the root narrows nothing on the way
(``step == entry``): its state at the start node is the same.

Two subtree summaries, computed once per tree (``_below``: the features
tested at or below a node; ``_classes``: the classes of the leaves below
it), let a lookup skip what cannot hold a reachable contrary leaf.
Before a lookup frees feature ``f``, the kept literals, ``f``'s among
them, entail the target.  So the lookup skips a child whose leaves all
have the target class, and a child below which ``f`` is not tested while
the values of ``f`` narrowed so far still meet ``f``'s kept values: a
contrary leaf there would be reached by a point with ``f`` in its kept
values, that is by a point satisfying the kept literals.  No lookup is
made when ``f`` is not tested at or below its start.  Only subtrees
without a reachable contrary leaf are skipped and the search order is
kept, so each lookup gives the unpruned answer after entering a subset
of its nodes.  ``entails`` and :func:`is_path_redundant` pass no freed
feature and skip nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import (
    DecisionTree,
    Instance,
    Literal,
    TreePath,
    _check_in_space,
    _point_literals,
    classify,
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

    def sorted_literals(self) -> list[Literal]:
        return sorted(self.literals, key=Literal.sort_key)

    def render(self, tree: DecisionTree) -> str:
        body = ", ".join(lit.render(tree.space) for lit in self.sorted_literals())
        return "{" + body + "}"

    def as_value_map(self, tree: DecisionTree) -> dict[str, str | list[str]]:
        """Feature-name to value-name mapping, single values unwrapped."""
        named = (lit.names(tree.space) for lit in self.sorted_literals())
        return {name: vals[0] if len(vals) == 1 else vals for name, vals in named}


@dataclass(frozen=True)
class RedundancyResult:
    redundant: bool
    witness: int | None
    node_visits: int


def _contrary_leaf(
    tree: DecisionTree,
    node: int,
    target: int,
    allowed: list[int],
    freed: int = -1,
    kept: int = 0,
) -> tuple[bool, int]:
    """Whether a leaf below node number ``node`` (inclusive) predicts a
    class other than ``target`` and is reachable by a point whose features
    take values in ``allowed`` (one value mask per feature).

    Edges are searched in declaration order and the search stops at the
    first contrary leaf.  Also returns the number of nodes entered, leaves
    included.  ``allowed`` is narrowed in place and restored before the
    return.

    With ``freed``, the caller vouches that the same lookup with
    ``allowed[freed] = kept`` finds nothing, and the search skips every
    child that provably holds no reachable contrary leaf: one whose leaves
    all predict ``target``, and one below which ``freed`` is not tested
    while the values of ``freed`` narrowed so far still meet ``kept``.
    """
    feature_of, leaf_class, children = tree._feature, tree._class, tree._children
    prune = freed >= 0
    if prune:
        below, classes = tree._below, tree._classes
        bit, other = 1 << freed, ~(1 << target)
    examined = 0
    # (node, feature, values): enter node with allowed[feature] = values
    # (feature -1: nothing narrowed); node -1 restores allowed[feature]
    stack = [(node, -1, 0)]
    while stack:
        node, feature, values = stack.pop()
        if node < 0:
            allowed[feature] = values
            continue
        examined += 1
        f = feature_of[node]
        if f < 0:
            if leaf_class[node] != target:
                for node, feature, values in reversed(stack):
                    if node < 0:
                        allowed[feature] = values
                return True, examined
            continue
        if feature >= 0:
            stack.append((-1, feature, allowed[feature]))
            allowed[feature] = values
        entry = allowed[f]
        for child, mask in reversed(children[node]):
            step = mask & entry
            if not step or prune and (
                not classes[child] & other
                or not below[child] & bit
                and (step if f == freed else allowed[freed]) & kept
            ):
                continue
            stack.append((child, -1, 0) if step == entry else (child, f, step))
    return False, examined


def _allowed(tree: DecisionTree, literals: Iterable[Literal]) -> list[int]:
    """One value mask per feature: its literal's values, else the whole
    domain."""
    allowed = tree._full[:]
    seen = set()
    for lit in literals:
        if lit.feature in seen:
            raise ValueError(f"more than one literal for feature index {lit.feature}")
        seen.add(lit.feature)
        allowed[lit.feature] = lit.mask
    return allowed


def entails(tree: DecisionTree, literals: Iterable[Literal], class_id: int) -> bool:
    """True iff every point consistent with the literals classifies to
    ``class_id``; a single root-down traversal pruning disjoint edges.
    Raises ValueError for a literal outside the tree's feature space."""
    literals = _check_in_space(tree._full, literals)
    return not _contrary_leaf(tree, 0, class_id, _allowed(tree, literals))[0]


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
    base = _allowed(tree, path.literals)
    allowed = base[:]
    failed: set[int] = set()
    for node, taken in path.steps():
        feature = tree._feature[node]
        visits += 1
        if feature in failed:
            continue
        above = tree._above[node]
        entry = above or tree._full[feature]
        for child, mask in tree._children[node]:
            step = mask & entry
            if child == taken or not step:
                continue
            allowed[feature] = step
            found, examined = _contrary_leaf(tree, child, path.prediction, allowed)
            visits += examined
            if found:
                failed.add(feature)
                break
        allowed[feature] = base[feature]
        if feature not in failed and not above:
            return RedundancyResult(True, feature, visits)
    return RedundancyResult(False, None, visits)


def _greedy(
    tree: DecisionTree,
    literals: tuple[Literal, ...],
    order: Iterable[int],
    target: int,
    leaf: int,
) -> tuple[frozenset[Literal], int]:
    """Drop each feature of ``order`` in turn from ``literals`` when the
    rest still leaves every contrary leaf unreachable; the literals that
    stay form a PI-explanation.  Also returns the number of nodes the
    lookups entered.

    Each lookup starts on the path to ``leaf``, the source's leaf, at the
    shallower of the tried feature's shallowest test and the start of the
    last accepted drop (at the leaf if neither exists).  Features tested
    above it are kept, so every consistent point follows the path there
    and the lookup would narrow nothing on the way down from the root.
    The literals kept so far entail ``target``, so the lookup frees one
    feature with its kept values, and none is made when the feature is not
    tested at or below the start.
    """
    chain = [leaf]  # the path's nodes, deepest first
    while (node := tree._parent[chain[-1]]) >= 0:
        chain.append(node)
    top = {tree._feature[node]: k for k, node in enumerate(chain)}
    allowed = _allowed(tree, literals)
    dropped = set()
    entered = last = 0
    for feature in order:
        start = max(top.get(feature, 0), last)
        kept = allowed[feature]
        allowed[feature] = tree._full[feature]
        if tree._below[chain[start]] >> feature & 1:
            found, examined = _contrary_leaf(
                tree, chain[start], target, allowed, feature, kept
            )
            entered += examined
            if found:
                allowed[feature] = kept
                continue
        dropped.add(feature)
        last = start
    return frozenset(lit for lit in literals if lit.feature not in dropped), entered


def _extract_path(tree: DecisionTree, path: TreePath) -> tuple[Explanation, int]:
    """:func:`one_pi_explanation_path` and the number of tree nodes its
    lookups entered."""
    tree.check_owns(path)
    order = dict.fromkeys(tree._feature[node] for node, _ in path.steps())
    literals, entered = _greedy(tree, path.literals, order, path.prediction, path.leaf)
    found = Explanation(literals, path.prediction, PATH_RESTRICTED, path.path_id)
    return found, entered


def one_pi_explanation_path(tree: DecisionTree, path: TreePath) -> Explanation:
    """Extract one PI-explanation from the path's own literals.

    Features are tried deepest-first (by their deepest test); the result is
    the path's literal set minus the dropped features, and it is
    subset-minimal.
    """
    return _extract_path(tree, path)[0]


def one_pi_explanation_instance(tree: DecisionTree, instance: Instance) -> Explanation:
    """Extract one PI-explanation from the instance's equality literals.

    Elimination is greedy in descending feature index, which pins a
    deterministic representative among the (possibly several) valid
    PI-explanations.
    """
    target, path = classify(tree, instance)
    literals = _point_literals(instance)
    order = range(len(literals) - 1, -1, -1)
    return Explanation(
        literals=_greedy(tree, literals, order, target, path.leaf)[0],
        target=target,
        mode=PATH_UNRESTRICTED,
        source=tuple(instance),
    )
