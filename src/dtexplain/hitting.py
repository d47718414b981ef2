"""PI-explanation enumeration via minimal hitting sets.

A candidate literal set R (the literals of a tree path, or the equality
literals of an instance) entails the prediction exactly when it blocks
every contrary path.  Each contrary path contributes the set of candidates
inconsistent with it; a subset of R entails iff it hits each of those
sets, and the subset-minimal hitting sets are precisely the
PI-explanations drawn from R.
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


def _inconsistent_candidates(
    universe: tuple[Literal, ...], contrary: TreePath
) -> frozenset[int]:
    allowed = contrary.literal_map
    return frozenset(
        i
        for i, lit in enumerate(universe)
        if lit.feature in allowed and not (lit.allowed & allowed[lit.feature])
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

    sets = []
    for contrary in tree.contrary_paths(target):
        members = _inconsistent_candidates(universe, contrary)
        if not members:
            raise HittingSetError(
                f"tree/source inconsistency: contrary path {contrary.path_id!r} "
                "conflicts with no candidate literal"
            )
        sets.append((contrary.path_id, members))
    return HittingSetInstance(universe=universe, sets=tuple(sets))


def _minimal_hitting_index_sets(
    family: list[frozenset[int]],
) -> list[frozenset[int]]:
    """All subset-minimal hitting sets of a family of index sets.

    Branches on the lowest-index unhit set, never re-adding an element a
    sibling branch already covered, prunes supersets of found answers, and
    keeps a candidate only if removing any element leaves some set unhit.
    """
    found: list[frozenset[int]] = []

    def hits_all(candidate: frozenset[int]) -> bool:
        return all(candidate & s for s in family)

    def search(current: frozenset[int], banned: frozenset[int]) -> None:
        if any(prior <= current for prior in found):
            return
        unhit = next((s for s in family if not (current & s)), None)
        if unhit is None:
            if all(not hits_all(current - {i}) for i in current):
                found.append(current)
            return
        local_ban = banned
        for i in sorted(unhit):
            if i in local_ban:
                continue
            search(current | {i}, local_ban)
            local_ban = local_ban | {i}

    search(frozenset(), frozenset())
    return found


def enumerate_mhs(
    instance: HittingSetInstance, limit: int | None = None
) -> list[frozenset[Literal]]:
    """All minimal hitting sets of the family, as literal sets.

    The output is sorted by (cardinality, universe indices) and truncated
    at ``limit`` if given; every emitted set is a genuine minimal hitting
    set even when truncated.  An empty family has exactly the empty set
    as its sole answer.
    """
    family: list[frozenset[int]] = []
    for _, members in instance.sets:
        if members not in family:
            family.append(members)
    if not family:
        hits = [frozenset()]
    else:
        hits = _minimal_hitting_index_sets(family)
    hits.sort(key=lambda s: (len(s), tuple(sorted(s))))
    if limit is not None:
        hits = hits[:limit]
    return [frozenset(instance.universe[i] for i in s) for s in hits]


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
