"""One SHA-256 over the trees that ``random_tree`` builds, pinned so that a
change to the generator that alters any tree of any seed shows at once.
The self-test battery, the digest of every answer and the benchmark's
verify workload all read these trees, so they must not drift.

The hash runs over ``serialize_tree`` of ``random_tree(s)`` for seeds
0..399 at the default settings, then for seeds 0..199 with up to 10
features, domains of up to 5 values and depth up to 8."""

import hashlib

from dtexplain import random_tree, serialize_tree

RANDOM_TREE_DIGEST = "cb7c14e7032cd37e845c02e6e43e1526d2a91503a661634ac6488c3906a1373b"


def test_random_trees_match_the_pinned_digest():
    trees = [random_tree(seed) for seed in range(400)]
    trees += [
        random_tree(seed, max_features=10, max_domain=5, max_depth=8)
        for seed in range(200)
    ]
    digest = hashlib.sha256()
    for tree in trees:
        digest.update(serialize_tree(tree).encode())
    assert digest.hexdigest() == RANDOM_TREE_DIGEST
