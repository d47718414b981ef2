"""PI-explanation enumeration via minimal hitting sets.

A candidate literal set R (the literals of a tree path, or the equality
literals of an instance) entails the prediction exactly when it blocks
every contrary path.  Each contrary path contributes the set of candidates
inconsistent with it; a subset of R entails iff it hits each of those
sets, and the subset-minimal hitting sets are precisely the
PI-explanations drawn from R.

Whatever hits a member hits its supersets, so only the distinct
inclusion-minimal members matter: in path-unrestricted mode, the
instance's contrastive explanations (Ignatiev et al., NeurIPS 2019).
The source's scan first finds its core, the candidates whose singletons
are members.  One search from the root over the tree's lowered form,
:func:`_contrary_family`, finds the other minimal members: it scans the
node numbers in preorder, carries the conflict set down as an int
bitmask over the candidates, takes no edge that sets a core bit, and
jumps past every subtree whose mask already contains a member it found,
or whose leaves all have the predicted class.  An edge sets a
candidate's bit when its values that reach it (``DecisionTree._edge``)
miss the candidate's literal mask, so the search writes no per-feature
state; features outside the candidates are free.  Berge's incremental loop,
:func:`_minimal_hitting_masks`, then enumerates the minimal hitting sets
of those members as they are, with no separate minimisation of the
family, and each PI-explanation is the core plus one of them.
:func:`build_hitting_sets` still lists one member per contrary path, for
inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .explain import (
    Explanation,
    HittingSetError,
    _Scan,
    _scan,
    _Source,
    _source,
)
from .model import DecisionTree, Instance, Literal, TreePath

__all__ = [
    "HittingSetError",
    "HittingSetInstance",
    "build_hitting_sets",
    "enumerate_mhs",
    "enumerate_pi_explanations",
]


@dataclass(frozen=True)
class HittingSetInstance:
    """A family of subsets of a candidate literal universe, each tagged
    with the id of the contrary path it came from."""

    universe: tuple[Literal, ...]
    sets: tuple[tuple[str, frozenset[int]], ...]  # (path id, universe indices)

    def __post_init__(self):
        for path_id, members in self.sets:
            if not members:
                raise HittingSetError(f"empty literal set for path {path_id!r}")
            if not all(0 <= i < len(self.universe) for i in members):
                raise HittingSetError(
                    f"literal set for path {path_id!r} leaves the universe"
                )

    def literal_sets(self) -> list[tuple[str, frozenset[Literal]]]:
        return [
            (path_id, frozenset(self.universe[i] for i in members))
            for path_id, members in self.sets
        ]


def _no_conflict(path_id: str) -> HittingSetError:
    return HittingSetError(
        f"tree/source inconsistency: contrary path {path_id!r} "
        "conflicts with no candidate literal"
    )


def build_hitting_sets(
    tree: DecisionTree,
    source: TreePath | Instance,
    mode: str,
) -> HittingSetInstance:
    """Build the per-contrary-path families for a path or an instance.

    ``mode=path-restricted`` takes the candidate universe from a path's
    literals; ``mode=path-unrestricted`` takes the equality literals of an
    instance.  Every contrary path must be inconsistent with at least one
    candidate; an empty family member signals a malformed tree/source pair.
    """
    src = _source(tree, source, mode)
    universe = src.literals
    position = {lit.feature: (i, lit.mask) for i, lit in enumerate(universe)}
    sets = []
    for contrary in (p for p in tree.paths if p.prediction != src.target):
        members = []
        for lit in contrary.literals:
            candidate = position.get(lit.feature)
            if candidate is not None and not candidate[1] & lit.mask:
                members.append(candidate[0])
        if not members:
            raise _no_conflict(contrary.path_id)
        sets.append((contrary.path_id, frozenset(members)))
    return HittingSetInstance(universe=universe, sets=tuple(sets))


def _contrary_family(
    tree: DecisionTree, universe: tuple[Literal, ...], target: int, core: int = 0
) -> tuple[list[int], int]:
    """The distinct inclusion-minimal conflict sets of the contrary leaves,
    as int bitmasks over ``universe``, and the number of nodes entered.

    A depth-first search from the root, edges in declaration order,
    carries the mask of candidates that the edges on the way down leave
    no value of.  It scans the tree's preorder range with no stack: a
    node's mask is its parent's, kept for each split entered, with the
    bit of the parent's feature set when that feature is a candidate
    whose literal mask ``_edge`` misses (the edge's values that reach the
    node).  From a node it does not enter it jumps to ``_end``, past the
    node's subtree.  Masks only grow downwards, so a subtree whose mask
    already contains a member is skipped, and so is one whose leaves all
    predict ``target``.  Each node is entered at most once.

    ``core`` masks candidates whose singletons are known members; they are
    left out, and so is every edge that leaves one of them no value.
    """
    bit_of = [0] * len(tree.space)
    values_of = [0] * len(tree.space)  # a candidate's literal mask
    for i, lit in enumerate(universe):
        bit_of[lit.feature] = 1 << i
        values_of[lit.feature] = lit.mask
    feature_of, leaf_class, parent = tree._feature, tree._class, tree._parent
    edge, end, classes, other = tree._edge, tree._end, tree._classes, ~(1 << target)
    if feature_of[0] < 0 and leaf_class[0] != target:
        raise _no_conflict(tree._leaf_path[0].path_id)
    family: list[int] = []
    conflict = {0: 0}  # the mask of each split entered
    entered, node, last = 1, 1, len(feature_of)
    while node < last:
        if not classes[node] & other:
            node = end[node]
            continue
        up = parent[node]
        mask, f = conflict[up], feature_of[up]
        bit = bit_of[f]
        if bit and not mask & bit and not edge[node] & values_of[f]:
            if bit & core:
                node = end[node]
                continue
            mask |= bit
        if mask:  # skip if the mask contains a member; faster than any()
            for member in family:
                if member & mask == member:
                    break
            else:
                member = 0
            if member:
                node = end[node]
                continue
        entered += 1
        if feature_of[node] >= 0:
            conflict[node] = mask
        elif leaf_class[node] != target:
            if not mask:
                raise _no_conflict(tree._leaf_path[node].path_id)
            family = [m for m in family if m & mask != mask]
            family.append(mask)
        node += 1
    return family, entered


def _minimal_hitting_masks(family: list[int]) -> list[int]:
    """All subset-minimal hitting sets of a family of int bitmasks, by
    Berge's loop (Berge, *Hypergraphs*, 1989).

    Starting from the empty set, each member in turn keeps every partial
    set that hits it and extends each one that misses it by each of its
    elements; only the inclusion-minimal sets are kept.  No extension
    lies inside a partial set that hit the member, so only the extensions
    are checked, smallest first.  Duplicate or superset members change
    nothing.
    """
    partial = [0]
    for member in family:
        kept = [t for t in partial if t & member]
        grown = set()
        for t in partial:
            if not t & member:
                rest = member
                while rest:
                    low = rest & -rest
                    grown.add(t | low)
                    rest ^= low
        for t in sorted(grown, key=lambda m: (m.bit_count(), m)):
            if not any(k & t == k for k in kept):
                kept.append(t)
        partial = kept
    return partial


def _hitting_sets(family: Iterable[int], limit: int | None) -> list[list[int]]:
    """All minimal hitting sets of a family of int bitmasks, as ascending
    index lists sorted by (cardinality, indices) and cut at ``limit``.

    Berge's loop runs on the distinct members, smallest first, so the
    partial sets stay small.  The output order needs every set, so the
    search is always complete.  A negative ``limit`` raises ValueError.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    members = sorted(set(family), key=lambda m: (m.bit_count(), m))
    found = [
        [i for i in range(mask.bit_length()) if mask >> i & 1]
        for mask in _minimal_hitting_masks(members)
    ]
    found.sort(key=lambda s: (len(s), s))
    return found[:limit]


def enumerate_mhs(
    instance: HittingSetInstance, limit: int | None = None
) -> list[frozenset[Literal]]:
    """All minimal hitting sets of the family, as literal sets, sorted by
    (cardinality, universe indices) and cut at ``limit`` if given.  An
    empty family has exactly the empty set as its sole answer.  A negative
    ``limit`` raises ValueError.
    """
    masks = (sum(1 << i for i in members) for _, members in instance.sets)
    return [
        frozenset(instance.universe[i] for i in s) for s in _hitting_sets(masks, limit)
    ]


def _enumerate(
    tree: DecisionTree, src: _Source, scan: _Scan, limit: int | None
) -> tuple[list[Explanation], int]:
    """:func:`enumerate_pi_explanations` of a resolved source whose scan is
    made, and the number of tree nodes the family search entered."""
    universe = src.literals
    core = [i for i, lit in enumerate(universe) if scan.core >> lit.feature & 1]
    family, entered = _contrary_family(
        tree, universe, src.target, sum(1 << i for i in core)
    )
    found = _hitting_sets(family, limit)
    sets = [frozenset(universe[i] for i in core + s) for s in found]
    return [Explanation(literals, src.target) for literals in sets], entered


def enumerate_pi_explanations(
    tree: DecisionTree,
    source: TreePath | Instance,
    mode: str,
    limit: int | None = None,
) -> list[Explanation]:
    """All PI-explanations drawn from a path's literals or an instance's
    equality literals, in deterministic order.

    The source is classified once; the minimal hitting sets are searched
    over the inclusion-minimal conflict sets of the contrary leaves, which
    one pruned search of the tree finds without listing every contrary
    path.
    """
    src = _source(tree, source, mode)
    return _enumerate(tree, src, _scan(tree, src), limit)[0]
