"""Explanation-redundancy decision and PI-explanation extraction.

A path is explanation-redundant when some tested feature can be declared
*universal* (free to take any domain value) without any contrary leaf
becoming reachable; the remaining literals then still entail the
prediction, so the path's literal set strictly contains a PI-explanation.

Every question here is answered by one lookup kernel,
:func:`_contrary_leaf`: a depth-first search, on the tree's lowered
form (integer node numbers in preorder, see
:class:`~dtexplain.model.DecisionTree`), for a leaf of another class that
a point can reach whose features take values in one int mask per feature
(a universal feature holds its whole domain's mask).  It scans the
subtree's range of node numbers with no stack, jumping past each subtree
whose edge (``DecisionTree._edge``, met with the values the edges from
the root let reach its parent) misses the mask of the parent's feature.
It only reads the masks, and being iterative, it is not limited by the
interpreter's recursion depth.

Each question starts from a source: a path's literals, or an
instance's equality literals, with the class they must entail.
:func:`_source` resolves it once, into the record that the scan,
extraction, enumeration, report and checkers all read.  One node-local
scan per source, :func:`_scan`, decides which features can be dropped
alone, counting each tree node at most once.  It does not enter every
node it counts: an off-path subtree that the lookup would walk in plain
preorder, a leaf among them, is counted from the tree's preorder
summaries, for a path and for an instance alike.  The features
it cannot drop form the *core*, which every PI-explanation drawn from
the source contains; the first one it can drop is the redundancy
witness.
Extraction returns the core when the core alone entails the prediction.
Otherwise it drops the other features greedily, each when a lookup with
it freed finds no contrary leaf.  Each lookup starts on the source's path,
above the shallowest test of every freed feature, and none is made for a
feature that the ``_below`` summary shows untested below the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .model import (
    DecisionTree,
    Instance,
    Literal,
    TreePath,
    _check_literal_set,
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


@dataclass(frozen=True, slots=True)
class Explanation:
    """A literal set claimed to entail a prediction, one literal per
    feature; equal answers compare equal whatever their source."""

    literals: frozenset[Literal]
    target: int

    def sorted_literals(self) -> list[Literal]:
        return sorted(self.literals, key=lambda lit: lit.feature)

    def render(self, tree: DecisionTree) -> str:
        body = ", ".join(lit.render(tree.space) for lit in self.sorted_literals())
        return "{" + body + "}"

    def as_value_map(self, tree: DecisionTree) -> dict[str, str | list[str]]:
        """Feature-name to value-name mapping, single values unwrapped."""
        named = (lit.names(tree.space) for lit in self.sorted_literals())
        return {name: vals[0] if len(vals) == 1 else vals for name, vals in named}


@dataclass(frozen=True, slots=True)
class RedundancyResult:
    redundant: bool
    witness: int | None
    node_visits: int


def _contrary_leaf(
    tree: DecisionTree, node: int, target: int, allowed: list[int]
) -> tuple[bool, int]:
    """Whether a leaf below node number ``node`` (inclusive) predicts a
    class other than ``target`` and is reachable by a point whose features
    take values in ``allowed`` (one value mask per feature).

    Edges are searched in declaration order and the search stops at the
    first contrary leaf.  Also returns the number of nodes entered, leaves
    included.

    The search scans the subtree's preorder range ``[node, _end[node])``
    with no stack: after entering node ``i`` it steps to ``i + 1``, and
    it jumps from a node ``j`` to ``_end[j]``, past ``j``'s subtree, when
    ``_edge[j]``, the values on the edge into ``j`` that reach it, misses
    the parent's feature's mask.  ``allowed`` is only read, and since
    ``_edge`` is met with the values the edges from the root let reach
    the parent, the answer is that of a search that narrows the masks on
    the way down from ``node``, started with each mask met with the edges
    taken to ``node``.  Each caller's masks lie inside those edges, or
    leave free a feature not tested above ``node``: ``entails`` starts at
    the root, and extraction on the source's path above the shallowest
    test of every feature it frees.  The scan alone starts just below a
    test of the feature it frees, which ``_edge`` then limits to the edge
    taken there.
    """
    feature_of, leaf_class = tree._feature, tree._class
    parent, edge, end = tree._parent, tree._edge, tree._end
    examined = 0
    last = end[node]
    while True:
        examined += 1
        if feature_of[node] < 0 and leaf_class[node] != target:
            return True, examined
        node += 1
        while node < last:
            if edge[node] & allowed[feature_of[parent[node]]]:
                break
            node = end[node]  # past the subtree of an edge the mask misses
        else:
            return False, examined


def _allowed(tree: DecisionTree, literals: Iterable[Literal]) -> list[int]:
    """One value mask per feature: its literal's values, else the whole
    domain.  The literals name distinct features."""
    allowed = tree._full[:]
    for lit in literals:
        allowed[lit.feature] = lit.mask
    return allowed


def entails(tree: DecisionTree, literals: Iterable[Literal], class_id: int) -> bool:
    """True iff every point consistent with the literals classifies to
    ``class_id``; a single root-down traversal pruning disjoint edges.
    Raises ValueError for a literal outside the tree's feature space or
    two literals on one feature."""
    literals = _check_literal_set(tree._full, literals)
    return not _contrary_leaf(tree, 0, class_id, _allowed(tree, literals))[0]


class HittingSetError(ValueError):
    """The tree and the explanation source are inconsistent."""


class _Source(NamedTuple):
    """An explanation source resolved against its tree; see :func:`_source`."""

    literals: tuple[Literal, ...]  # the candidates an explanation is drawn from
    target: int  # the class they entail
    path: TreePath  # the path itself, or the one the instance takes
    mode: str


def _source(tree: DecisionTree, source: TreePath | Instance, mode: str) -> _Source:
    """Resolve a path (path-restricted) or an instance (path-unrestricted),
    classifying an instance once.  Raises :class:`HittingSetError` when
    the source does not suit the mode."""
    if mode == PATH_RESTRICTED:
        if not isinstance(source, TreePath):
            raise HittingSetError("path-restricted mode needs a tree path source")
        tree.check_owns(source)
        return _Source(source.literals, source.prediction, source, mode)
    if mode == PATH_UNRESTRICTED:
        if isinstance(source, TreePath):
            raise HittingSetError("path-unrestricted mode needs an instance source")
        target, path = classify(tree, source)
        return _Source(_point_literals(source), target, path, mode)
    raise HittingSetError(f"unknown mode {mode!r}")


class _Scan(NamedTuple):
    """What one walk up a source's path finds; see :func:`_scan`."""

    core: int  # bit f for each feature the source cannot drop alone
    top: dict[int, int]  # tested feature -> its shallowest test, deepest first
    masks: list[int]  # the literals' value masks by feature; copy to free one
    verdict: RedundancyResult
    visits: int  # nodes examined by the whole walk


def _scan(tree: DecisionTree, src: _Source, stop: bool = False) -> _Scan:
    """Decide, for each feature tested on the source's path, whether its
    literals without it still entail its target.

    The path is walked deepest first.  At a node testing feature ``f``,
    the untaken edges' subtrees are searched in declaration order, with
    ``f`` allowed every value that reaches the node but leaves the path,
    until a contrary leaf is found.  A feature whose search finds one is
    in the core; the first one whose shallowest test is passed with none
    found is the redundancy witness, where ``stop`` ends the walk.

    Each subtree ``S`` is searched by :func:`_contrary_leaf` from ``S``,
    unless its preorder summaries (``DecisionTree._preorder``, made with
    the tree) answer for it: every edge of the tree is reachable, so the
    lookup would walk ``S`` in plain preorder up to its first contrary
    leaf unless that walk tests a *pinned* feature, one the literals
    narrow below what reaches the node: for a path, one it tests below
    the node; for an instance, whose single values are taken to pin them
    all, any.  ``f`` is never pinned, so an off-path leaf is counted
    without a lookup.  The counts and answers are those of one lookup
    from the node.
    """
    parent, feature_of, end = tree._parent, tree._feature, tree._end
    above_of, full, target = tree._above, tree._full, src.target
    classes, alone = tree._classes, 1 << target
    first, first_count, first_tested, other_count, other_tested = tree._preorder
    allowed = _allowed(tree, src.literals)
    top: dict[int, int] = {}
    core = visits = 0
    # the pinned features, ``f`` aside: a path's tested below the node,
    # an instance's all
    narrowed = 0 if src.mode == PATH_RESTRICTED else -1
    verdict = None
    child = src.path.leaf
    while (node := parent[child]) >= 0:
        f = feature_of[node]
        top[f] = node
        if core >> f & 1:
            visits += 1
        else:
            kept, above = allowed[f], above_of[node]
            pinned = narrowed & ~(1 << f)
            # a core feature's bit was set at the deeper test that found it
            narrowed |= 1 << f
            allowed[f] = full[f]  # a lookup meets it with the edge it took
            found, examined = False, 1
            other, last = node + 1, end[node]
            while other < last:
                if other != child:
                    if first[other] != target:
                        found, count = True, first_count[other]
                        tested = first_tested[other]
                    else:
                        found, count = classes[other] != alone, other_count[other]
                        tested = other_tested[other]
                    if tested & pinned:
                        found, count = _contrary_leaf(tree, other, target, allowed)
                    examined += count
                    if found:
                        break
                other = end[other]
            allowed[f] = kept
            visits += examined
            if found:
                core |= 1 << f
            elif verdict is None and not above:
                verdict = RedundancyResult(True, f, visits)
                if stop:
                    break
        child = node
    verdict = verdict or RedundancyResult(False, None, visits)
    return _Scan(core, top, allowed, verdict, visits)


def is_path_redundant(tree: DecisionTree, path: TreePath) -> RedundancyResult:
    """Decide whether a path's literal set strictly contains a
    PI-explanation, in time linear in the tree size; the witness is the
    first feature, deepest first, that it can drop alone."""
    return _scan(tree, _source(tree, path, PATH_RESTRICTED), stop=True).verdict


def _greedy(
    tree: DecisionTree, src: _Source, order: Iterable[int], scan: _Scan
) -> tuple[frozenset[Literal], int]:
    """Drop each feature of ``order`` outside the scan's core in turn from
    the source's literals when a lookup with it freed finds no contrary
    leaf; the literals that stay form a PI-explanation.  Also returns the
    number of nodes the lookups entered.

    The first drop needs no lookup: the scan found it sound.  A lookup
    starts at the shallower of the tried feature's shallowest test and the
    start of the last accepted drop (at the leaf if neither exists), so no
    freed feature is tested above it and every kept literal lies inside
    the edges taken to it.  None is made when the tried feature is not
    tested at or below the start.
    """
    core, top, leaf, target = scan.core, scan.top, src.path.leaf, src.target
    full, below = tree._full, tree._below
    allowed = scan.masks[:]
    dropped = set()
    entered = 0
    last = leaf
    for feature in order:
        if core >> feature & 1:
            continue
        start = min(top.get(feature, leaf), last)
        kept = allowed[feature]
        allowed[feature] = full[feature]
        if dropped and below[start] >> feature & 1:
            found, examined = _contrary_leaf(tree, start, target, allowed)
            entered += examined
            if found:
                allowed[feature] = kept
                continue
        dropped.add(feature)
        last = start
    kept = frozenset(lit for lit in src.literals if lit.feature not in dropped)
    return kept, entered


def _extract(tree: DecisionTree, src: _Source, scan: _Scan) -> tuple[Explanation, int]:
    """One PI-explanation drawn from the source, and the number of nodes
    its lookups entered: the core if it alone entails the target, which
    one lookup from the shallowest test outside the core decides, else
    :func:`_greedy`'s, trying a path's features deepest first (by their
    deepest test) and an instance's in descending feature index."""
    core, start = scan.core, src.path.leaf
    entered = 0
    if core:
        allowed = tree._full[:]
        for f, node in scan.top.items():
            if core >> f & 1:
                allowed[f] = scan.masks[f]
            elif node < start:
                start = node
        found, entered = _contrary_leaf(tree, start, src.target, allowed)
        if not found:
            kept = frozenset(lit for lit in src.literals if core >> lit.feature & 1)
            return Explanation(kept, src.target), entered
    if src.mode == PATH_RESTRICTED:
        order = scan.top
    else:
        order = range(len(src.literals) - 1, -1, -1)
    kept, examined = _greedy(tree, src, order, scan)
    return Explanation(kept, src.target), entered + examined


def one_pi_explanation_path(tree: DecisionTree, path: TreePath) -> Explanation:
    """Extract one PI-explanation from the path's own literals.

    Features are tried deepest-first (by their deepest test); the result is
    the path's literal set minus the dropped features, and it is
    subset-minimal.
    """
    src = _source(tree, path, PATH_RESTRICTED)
    return _extract(tree, src, _scan(tree, src))[0]


def one_pi_explanation_instance(tree: DecisionTree, instance: Instance) -> Explanation:
    """Extract one PI-explanation from the instance's equality literals.

    Elimination is greedy in descending feature index, which pins a
    deterministic representative among the (possibly several) valid
    PI-explanations.
    """
    src = _source(tree, instance, PATH_UNRESTRICTED)
    return _extract(tree, src, _scan(tree, src))[0]
