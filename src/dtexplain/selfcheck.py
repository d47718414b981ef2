"""Cross-checking of the fast operations against the brute-force oracle.

One call audits a whole tree: every path's redundancy verdict, extraction
and enumeration are compared with exhaustive ground truth, and a batch of
random instances does the same for instance-level queries.  Any
discrepancy raises :class:`OracleMismatch`; the checks also enforce the
node-visit bound of the redundancy decision and the minimality and
containment guarantees of every explanation seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .explain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    entails,
    is_path_redundant,
    one_pi_explanation_instance,
    one_pi_explanation_path,
)
from .hitting import enumerate_pi_explanations
from .model import DecisionTree, Literal, classify, instance_literals
from .oracle import BruteForceOracle, OracleBudget
from .randtree import random_instance

__all__ = ["OracleMismatch", "CheckStats", "check_tree"]


class OracleMismatch(AssertionError):
    """A fast operation disagreed with the brute-force oracle."""


@dataclass
class CheckStats:
    trees: int = 0
    paths: int = 0
    instances: int = 0
    max_visit_slack: int = field(default=-(10**9))

    def merge(self, other: "CheckStats") -> None:
        self.trees += other.trees
        self.paths += other.paths
        self.instances += other.instances
        self.max_visit_slack = max(self.max_visit_slack, other.max_visit_slack)


def _require(condition: bool, label: str, detail: str) -> None:
    if not condition:
        raise OracleMismatch(f"{label}: {detail}")


def _explanation_sets(explanations) -> set[frozenset[Literal]]:
    return {e.literals for e in explanations}


def _check_minimal(tree, literals, target, label: str) -> None:
    _require(
        entails(tree, literals, target),
        label,
        "claimed explanation does not entail the prediction",
    )
    for lit in literals:
        _require(
            not entails(tree, literals - {lit}, target),
            label,
            f"explanation stays entailing without {lit.render(tree.space)}",
        )


def check_tree(
    tree: DecisionTree,
    rng: random.Random,
    n_instances: int = 50,
    budget: OracleBudget | None = None,
    label: str = "tree",
) -> CheckStats:
    """Compare every fast operation on ``tree`` with the oracle."""
    oracle = BruteForceOracle(tree, budget or OracleBudget())
    stats = CheckStats(trees=1)

    restricted_by_leaf: dict[str, set[frozenset[Literal]]] = {}
    for path in tree.paths:
        where = f"{label}/{path.path_id}"
        verdict = is_path_redundant(tree, path)
        _require(
            verdict.redundant == oracle.is_redundant(path),
            where,
            f"redundancy verdict {verdict.redundant} disagrees with the oracle",
        )
        bound = tree.node_count + path.depth
        slack = verdict.node_visits - bound
        stats.max_visit_slack = max(stats.max_visit_slack, slack)
        _require(
            verdict.node_visits <= bound,
            where,
            f"redundancy decision examined {verdict.node_visits} nodes, "
            f"bound is {bound}",
        )
        extracted = one_pi_explanation_path(tree, path)
        _require(
            extracted.literals <= path.literal_set(),
            where,
            "path-restricted explanation leaves the path literals",
        )
        _require(
            verdict.redundant == (len(extracted.literals) < len(path.literals)),
            where,
            "redundancy verdict does not match extraction shrinkage",
        )
        truth = _explanation_sets(
            oracle.enumerate_pi(path.literals, path.prediction)
        )
        _require(
            extracted.literals in truth,
            where,
            "extracted path explanation is not a PI-explanation",
        )
        fast = _explanation_sets(
            enumerate_pi_explanations(tree, path, PATH_RESTRICTED)
        )
        _require(
            fast == truth,
            where,
            f"restricted enumeration found {len(fast)} sets, oracle {len(truth)}",
        )
        _check_minimal(tree, extracted.literals, path.prediction, where)
        restricted_by_leaf[path.leaf_id] = fast
        stats.paths += 1

    for k in range(n_instances):
        point = random_instance(tree.space, rng)
        where = f"{label}/instance#{k}:{point}"
        target, path = classify(tree, point)
        equality = instance_literals(tree.space, point)
        for skip in range(-1, len(equality)):  # -1 keeps the full set
            subset = [lit for i, lit in enumerate(equality) if i != skip]
            _require(
                entails(tree, subset, target) == oracle.entails(subset, target),
                where,
                f"entailment of {len(subset)} literals disagrees with the oracle",
            )
        extracted = one_pi_explanation_instance(tree, point)
        _require(
            extracted.literals <= frozenset(equality),
            where,
            "instance explanation leaves the instance literals",
        )
        truth = _explanation_sets(oracle.enumerate_pi(equality, target))
        _require(
            extracted.literals in truth,
            where,
            "extracted instance explanation is not a PI-explanation",
        )
        fast = _explanation_sets(
            enumerate_pi_explanations(tree, point, PATH_UNRESTRICTED)
        )
        _require(
            fast == truth,
            where,
            f"unrestricted enumeration found {len(fast)} sets, oracle {len(truth)}",
        )
        if all(len(lit.allowed) == 1 for lit in path.literals):
            # containment of restricted in unrestricted explanations is a
            # literal-level statement, so it applies only when the path's
            # literals are equality literals
            _require(
                restricted_by_leaf[path.leaf_id] <= fast,
                where,
                "a path-restricted explanation is missing from the "
                "unrestricted ones",
            )
        _check_minimal(tree, extracted.literals, target, where)
        stats.instances += 1
    return stats
