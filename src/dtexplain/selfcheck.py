"""Cross-checking of the fast operations against the brute-force oracle.

One call audits a whole tree: every path's redundancy verdict, extraction
and enumeration are compared with exhaustive ground truth, and a batch of
random instances does the same for instance-level queries.  Any
discrepancy raises :class:`OracleMismatch`; the checks also enforce the
node-visit bounds of the redundancy decision, of path extraction and of
the enumeration's family search, and the minimality and containment
guarantees of every explanation seen.  The CLI's ``--verify`` runs the same per-answer checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .explain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    Explanation,
    _extract_path,
    entails,
    is_path_redundant,
    one_pi_explanation_instance,
)
from .hitting import _candidates, _enumerate
from .model import DecisionTree, Literal, classify, instance_literals
from .oracle import BruteForceOracle
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


def _require(condition: bool, label: str | None, detail: str) -> None:
    if not condition:
        raise OracleMismatch(f"{label}: {detail}" if label else detail)


def _enumerated(tree, source, mode: str, label: str) -> list[Explanation]:
    """The PI-explanations of a source, after checking that the family
    search entered each tree node at most once."""
    explanations, entered = _enumerate(tree, source, mode, None)
    _require(
        entered <= tree.node_count,
        label,
        f"family search entered {entered} nodes, bound is {tree.node_count}",
    )
    return explanations


def _check_minimal(entails_fn, literals, target, label: str | None = None) -> None:
    """Raise :class:`OracleMismatch` unless ``literals`` entail ``target``
    under ``entails_fn(literals, target)`` and no literal can be dropped;
    ``label``, if given, prefixes the message."""
    where = f"{label}: " if label else ""
    if not entails_fn(literals, target):
        raise OracleMismatch(f"{where}explanation does not entail the prediction")
    for lit in literals:
        if entails_fn(literals - {lit}, target):
            raise OracleMismatch(
                f"{where}explanation is not subset-minimal "
                f"(droppable literal on feature index {lit.feature})"
            )


def _check_redundancy(oracle, path, redundant: bool, label: str | None = None) -> None:
    """Raise :class:`OracleMismatch` unless the oracle's verdict on ``path``
    is ``redundant``."""
    _require(
        redundant == oracle.is_redundant(path),
        label,
        f"redundancy verdict {redundant} disagrees with the oracle",
    )


def _check_enumeration(
    oracle, source, mode: str, explanations, limit=None, label: str | None = None
) -> set[frozenset[Literal]]:
    """The oracle's PI-explanation sets for a path or an instance in
    ``mode``, after checking that ``explanations`` are all of them, or
    ``limit`` of them (all, if there are fewer)."""
    universe, target, _ = _candidates(oracle.tree, source, mode)
    truth = {e.literals for e in oracle.enumerate_pi(universe, target)}
    found = {e.literals for e in explanations}
    want = len(truth) if limit is None else min(limit, len(truth))
    _require(found <= truth, label, "enumeration emitted a non-PI set")
    _require(
        len(found) == want, label, f"enumeration found {len(found)} sets, oracle {want}"
    )
    return truth


def check_tree(
    tree: DecisionTree,
    rng: random.Random,
    n_instances: int = 50,
    label: str = "tree",
) -> CheckStats:
    """Compare every fast operation on ``tree`` with the oracle."""
    oracle = BruteForceOracle(tree)
    fast_entails = partial(entails, tree)
    stats = CheckStats(trees=1)

    restricted_by_leaf: dict[int, set[frozenset[Literal]]] = {}
    for path in tree.paths:
        where = f"{label}/{path.path_id}"
        verdict = is_path_redundant(tree, path)
        _check_redundancy(oracle, path, verdict.redundant, where)
        bound = tree.node_count + path.depth
        slack = verdict.node_visits - bound
        stats.max_visit_slack = max(stats.max_visit_slack, slack)
        _require(
            verdict.node_visits <= bound,
            where,
            f"redundancy decision examined {verdict.node_visits} nodes, "
            f"bound is {bound}",
        )
        extracted, entered = _extract_path(tree, path)
        bound = len(path.literals) * tree.node_count
        _require(
            entered <= bound,
            where,
            f"path extraction entered {entered} nodes, bound is {bound}",
        )
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
        fast = _enumerated(tree, path, PATH_RESTRICTED, where)
        truth = _check_enumeration(oracle, path, PATH_RESTRICTED, fast, None, where)
        _require(
            extracted.literals in truth,
            where,
            "extracted path explanation is not a PI-explanation",
        )
        _check_minimal(fast_entails, extracted.literals, path.prediction, where)
        restricted_by_leaf[path.leaf] = truth
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
        fast = _enumerated(tree, point, PATH_UNRESTRICTED, where)
        truth = _check_enumeration(oracle, point, PATH_UNRESTRICTED, fast, None, where)
        _require(
            extracted.literals in truth,
            where,
            "extracted instance explanation is not a PI-explanation",
        )
        if all(lit.mask.bit_count() == 1 for lit in path.literals):
            # containment of restricted in unrestricted explanations is a
            # literal-level statement, so it applies only when the path's
            # literals are equality literals
            _require(
                restricted_by_leaf[path.leaf] <= truth,
                where,
                "a path-restricted explanation is missing from the "
                "unrestricted ones",
            )
        _check_minimal(fast_entails, extracted.literals, target, where)
        stats.instances += 1
    return stats
