"""Seeded random trees for self-tests and equivalence suites.

Generated trees stay within the exhaustive-verification budget (few
features, small domains, shallow), exercise multi-value edges and
repeated tests of one feature along a path, and are guaranteed valid:
when a feature is re-tested, every new edge intersects the values still
allowed on that branch, so no leaf becomes unreachable.
"""

from __future__ import annotations

import random
from typing import Sequence

from .model import DecisionTree, Edge, FeatureSpace, Instance, Leaf, Split

__all__ = ["random_tree", "random_instance"]

_VALUE_NAMES = ("a", "b", "c", "d", "e", "f")
_MULTICLASS_RATE = 0.15  # share of trees with three classes instead of two


def random_tree(
    seed: int | random.Random,
    *,
    max_features: int = 6,
    max_domain: int = 4,
    max_depth: int = 6,
) -> DecisionTree:
    """Build a random valid tree; identical seeds give identical trees."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n_features = rng.randint(2, max_features)
    space = FeatureSpace.from_pairs(
        (f"x{i + 1}", _VALUE_NAMES[: rng.randint(2, max_domain)])
        for i in range(n_features)
    )
    n_classes = 3 if rng.random() < _MULTICLASS_RATE else 2
    classes = [str(c) for c in range(n_classes)]
    depth_limit = rng.randint(2, max_depth) if max_depth >= 2 else max_depth

    nodes: dict[str, Leaf | Split] = {}
    leaves = [Leaf(c) for c in range(n_classes)]
    counter = [0]

    def fresh_id() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    def partition(feature: int, allowed: int) -> list[int]:
        """Split the feature's domain into value masks that each meet ``allowed``."""
        domain = range(len(space.feature(feature).domain))
        anchors = [v for v in domain if allowed >> v & 1]
        rng.shuffle(anchors)
        n_cells = rng.randint(2, len(anchors))  # a candidate allows 2 or more
        cells = [1 << a for a in anchors[:n_cells]]
        for value in domain:
            if value not in anchors[:n_cells]:
                cells[rng.randrange(n_cells)] |= 1 << value
        return cells

    def build(depth: int, allowed: list[int]) -> str:
        node_id = fresh_id()
        leaf_chance = 0.06 + 0.16 * depth
        candidates = [f for f, mask in enumerate(allowed) if mask.bit_count() >= 2]
        if depth >= depth_limit or not candidates or rng.random() < leaf_chance:
            nodes[node_id] = leaves[rng.randrange(n_classes)]
            return node_id
        feature = rng.choice(candidates)
        edges = []
        for cell in partition(feature, allowed[feature]):
            narrowed = allowed[:]
            narrowed[feature] &= cell
            edges.append(Edge(cell, build(depth + 1, narrowed)))
        nodes[node_id] = Split(feature, tuple(edges))
        return node_id

    root = build(0, space._full)
    return DecisionTree(space, classes, root, nodes)


def random_instance(space: FeatureSpace, rng: random.Random) -> Instance:
    return tuple(rng.randrange(len(f.domain)) for f in space.features)
