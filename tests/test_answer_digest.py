"""One SHA-256 over every answer the explanation layers give on a fixed
input set, pinned so that a change to the lookup kernels, the scan or the
tree's lowered form that alters any answer or node count shows at once.

For every path: the redundancy verdict with its witness and node visits,
the path's extraction, its path-restricted enumeration, the unrestricted
enumeration of the path's lowest point, and its point count.  For five
seeded instances per tree: the instance's extraction and unrestricted
enumeration.  Each answer is one line in a canonical form, and the lines
are hashed sorted."""

import hashlib
import random

from conftest import FIXTURE_NAMES, comb_tree, load_tree, lowest_point, or_chain_tree

from dtexplain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    enumerate_pi_explanations,
    is_path_redundant,
    one_pi_explanation_instance,
    one_pi_explanation_path,
    path_point_count,
    random_instance,
    random_tree,
)

ANSWER_DIGEST = "faa60045d73c824ffc5e58492d0518dd52f5b6d745cfa34ef1e4336a0e0476cb"


def digest_trees():
    for name in FIXTURE_NAMES:
        yield name, load_tree(name)
    for seed in range(200):
        yield f"random_tree({seed})", random_tree(seed)
    yield "or_chain_tree(40)", or_chain_tree(40)
    yield "comb_tree(30)", comb_tree(30)


def canonical(explanation) -> str:
    return repr(sorted((lit.feature, lit.mask) for lit in explanation.literals))


def enumeration(tree, source, mode) -> str:
    return repr([canonical(e) for e in enumerate_pi_explanations(tree, source, mode)])


def answer_lines(name, tree):
    for path in tree.paths:
        verdict = is_path_redundant(tree, path)
        yield " ".join(
            (
                name,
                path.path_id,
                repr((verdict.redundant, verdict.witness, verdict.node_visits)),
                canonical(one_pi_explanation_path(tree, path)),
                enumeration(tree, path, PATH_RESTRICTED),
                enumeration(tree, lowest_point(tree, path), PATH_UNRESTRICTED),
                str(path_point_count(tree.space, path.literals)),
            )
        )
    rng = random.Random(name)
    for _ in range(5):
        point = random_instance(tree.space, rng)
        yield " ".join(
            (
                name,
                repr(point),
                canonical(one_pi_explanation_instance(tree, point)),
                enumeration(tree, point, PATH_UNRESTRICTED),
            )
        )


def test_every_answer_matches_the_pinned_digest():
    lines = sorted(
        line for name, tree in digest_trees() for line in answer_lines(name, tree)
    )
    assert len(lines) > 3000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ANSWER_DIGEST
