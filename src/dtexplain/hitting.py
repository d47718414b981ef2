"""PI-explanation enumeration via minimal hitting sets.

A candidate literal set R (the literals of a tree path, or the equality
literals of an instance) entails the prediction exactly when it blocks
every contrary path.  Each contrary path contributes the set of candidates
inconsistent with it; a subset of R entails iff it hits each of those
sets, and the subset-minimal hitting sets are precisely the
PI-explanations drawn from R.

Whatever hits a member hits its supersets, so the search keeps only the
distinct inclusion-minimal members, as int bitmasks: in path-unrestricted
mode, the instance's contrastive explanations (Ignatiev et al., NeurIPS 2019).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    DecisionTree,
    Instance,
    Literal,
    TreePath,
    classify,
    instance_literals,
)
from .explain import Explanation, PATH_RESTRICTED, PATH_UNRESTRICTED

__all__ = [
    "HittingSetError",
    "HittingSetInstance",
    "build_hitting_sets",
    "enumerate_mhs",
    "enumerate_pi_explanations",
]


class HittingSetError(ValueError):
    """The tree and the explanation source are inconsistent."""


@dataclass(frozen=True)
class HittingSetInstance:
    """A family of subsets of a candidate literal universe, one per
    contrary path, each tagged with the path id it came from."""

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
    if mode == PATH_RESTRICTED:
        if not isinstance(source, TreePath):
            raise HittingSetError("path-restricted mode needs a tree path source")
        tree.check_owns(source)
        target = source.prediction
        universe = source.literals
    elif mode == PATH_UNRESTRICTED:
        if isinstance(source, TreePath):
            raise HittingSetError("path-unrestricted mode needs an instance source")
        target, _ = classify(tree, source)
        universe = instance_literals(tree.space, source)
    else:
        raise HittingSetError(f"unknown mode {mode!r}")

    position = {lit.feature: (i, lit.allowed) for i, lit in enumerate(universe)}
    sets = []
    for contrary in tree.contrary_paths(target):
        members = []
        for lit in contrary.literals:
            candidate = position.get(lit.feature)
            if candidate is not None and candidate[1].isdisjoint(lit.allowed):
                members.append(candidate[0])
        if not members:
            raise HittingSetError(
                f"tree/source inconsistency: contrary path {contrary.path_id!r} "
                "conflicts with no candidate literal"
            )
        sets.append((contrary.path_id, frozenset(members)))
    return HittingSetInstance(universe=universe, sets=tuple(sets))


def _minimal_hitting_masks(family: list[int]) -> list[int]:
    """All subset-minimal hitting sets of a family of int bitmasks.

    Branches on the first unhit set, never re-adding an element a sibling
    branch already covered, prunes supersets of found answers, and keeps
    a hitting set if each element is critical (alone hits some set).  An
    explicit stack in preorder keeps set size free of recursion limits.
    """
    found: list[int] = []
    # (candidate, banned); children are pushed in reverse so they pop in
    # order, each after its earlier siblings' subtrees are done
    stack = [(0, 0)]
    while stack:
        current, banned = stack.pop()
        if any(prior & current == prior for prior in found):
            continue
        unhit = next((s for s in family if not s & current), None)
        if unhit is None:
            critical = 0
            for meet in (s & current for s in family):
                if not meet & (meet - 1):
                    critical |= meet
            if critical == current:
                found.append(current)
            continue
        children = []
        free = unhit & ~banned
        for i in range(free.bit_length()):
            if free >> i & 1:
                children.append((current | 1 << i, banned))
                banned |= 1 << i
        stack.extend(reversed(children))
    return found


def enumerate_mhs(
    instance: HittingSetInstance, limit: int | None = None
) -> list[frozenset[Literal]]:
    """All minimal hitting sets of the family, as literal sets.

    The search runs on the distinct inclusion-minimal members, smallest
    first.  The output is sorted by (cardinality, universe indices) and
    cut at ``limit`` if given; that order needs every set, so the search
    is always complete (it is cheap on the minimised family).  An empty
    family has exactly the empty set as its sole answer.
    """
    distinct = {members for _, members in instance.sets}
    masks = {sum(1 << i for i in members) for members in distinct}
    family: list[int] = []
    for mask in sorted(masks, key=lambda m: (m.bit_count(), m)):
        if not any(kept & mask == kept for kept in family):
            family.append(mask)
    found = [
        [i for i in range(len(instance.universe)) if mask >> i & 1]
        for mask in _minimal_hitting_masks(family)
    ]
    found.sort(key=lambda s: (len(s), s))
    return [frozenset(instance.universe[i] for i in s) for s in found[:limit]]


def enumerate_pi_explanations(
    tree: DecisionTree,
    source: TreePath | Instance,
    mode: str,
    limit: int | None = None,
) -> list[Explanation]:
    """All PI-explanations drawn from a path's literals or an instance's
    equality literals, in deterministic order."""
    hs = build_hitting_sets(tree, source, mode)
    if isinstance(source, TreePath):
        target = source.prediction
        tag: str | tuple = source.path_id
    else:
        target, _ = classify(tree, source)
        tag = tuple(source)
    return [
        Explanation(literals=lits, target=target, mode=mode, source=tag)
        for lits in enumerate_mhs(hs, limit)
    ]
