"""Cross-checking of the fast operations against the brute-force oracle.

One checker per answer kind (classification, redundancy verdict,
extraction, enumeration) compares an answer with exhaustive ground truth
and raises :class:`OracleMismatch` on any discrepancy.  :func:`check_tree`
runs them on every path of a tree and on random instances, adding work
bounds and checks across answers; the CLI's ``--verify`` runs the same
checkers and no check of its own, so every answer is verified one way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .explain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    Explanation,
    RedundancyResult,
    _extract,
    _scan,
    _source,
    entails,
)
from .hitting import _enumerate
from .model import DecisionTree, Instance, TreePath
from .oracle import BruteForceOracle
from .randtree import random_instance

__all__ = [
    "OracleMismatch", "CheckStats", "check_classification", "check_redundancy",
    "check_extraction", "check_enumeration", "check_tree",
]


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


def _bounded(count: int, bound: int, what: str, label: str | None) -> int:
    """``count - bound``, after checking that it is not positive."""
    _require(count <= bound, label, f"{what} {count} nodes, bound is {bound}")
    return count - bound


def _check_minimal(entails_fn, literals, target, label: str | None = None) -> None:
    """Raise :class:`OracleMismatch` unless ``literals`` entail ``target``
    under ``entails_fn(literals, target)`` and no literal can be dropped;
    ``label``, if given, prefixes the message."""
    detail = "explanation does not entail the prediction"
    _require(entails_fn(literals, target), label, detail)
    for lit in literals:
        _require(
            not entails_fn(literals - {lit}, target),
            label,
            "explanation is not subset-minimal "
            f"(droppable literal on feature index {lit.feature})",
        )


def check_classification(
    oracle, point: Instance, class_id: int, path: TreePath, label: str | None = None
) -> None:
    """The oracle's own walker takes ``point`` to ``path``'s leaf, and
    that leaf predicts ``class_id``."""
    leaf = oracle._walk(point)
    reached = (leaf, oracle.tree.nodes[leaf].class_id)
    _require(
        reached == (path.leaf_id, class_id),
        label,
        f"instance reaches leaf {leaf!r} (class index {reached[1]}), "
        f"not path {path.path_id} (class index {class_id})",
    )


def check_redundancy(
    oracle, path: TreePath, verdict: RedundancyResult, label: str | None = None
) -> int:
    """The oracle agrees with ``verdict`` on ``path``, and the decision
    examined at most (tree nodes + path depth) nodes; returns the visits
    minus that bound."""
    _require(
        verdict.redundant == oracle.is_redundant(path),
        label,
        f"redundancy verdict {verdict.redundant} disagrees with the oracle",
    )
    bound = oracle.tree.node_count + path.depth
    return _bounded(verdict.node_visits, bound, "redundancy decision examined", label)


def check_extraction(
    oracle, universe, target: int, explanation: Explanation, label: str | None = None
) -> None:
    """``explanation`` targets ``target``, the source's class, lies inside
    its candidate literals ``universe``, and is a subset-minimal entailing
    set under the oracle."""
    _require(
        explanation.target == target,
        label,
        f"explanation targets class index {explanation.target}, not {target}",
    )
    _require(
        explanation.literals.issubset(universe),
        label,
        "explanation leaves the candidate literals",
    )
    _check_minimal(oracle.entails, explanation.literals, target, label)


def check_enumeration(
    oracle, universe, target: int, explanations, limit=None, label: str | None = None
) -> set[Explanation]:
    """The oracle's PI-explanations of class ``target`` drawn from
    ``universe``, after checking that ``explanations`` are all of them, or
    ``limit`` of them (all, if there are fewer), each listed once."""
    truth = set(oracle.enumerate_pi(universe, target))
    _compare_enumeration(truth, target, explanations, limit, label)
    return truth


def _compare_enumeration(truth, target: int, explanations, limit, label) -> None:
    """The checks of :func:`check_enumeration`, against the oracle's
    PI-explanations ``truth``; an answer of another class is named so."""
    other = next((e.target for e in explanations if e.target != target), target)
    detail = f"enumeration answered class index {other}, not {target}"
    _require(other == target, label, detail)
    found = set(explanations)
    want = len(truth) if limit is None else min(limit, len(truth))
    _require(found <= truth, label, "enumeration emitted a non-PI set")
    _require(len(found) == len(explanations), label, "enumeration repeated a set")
    _require(
        len(found) == want, label, f"enumeration found {len(found)} sets, oracle {want}"
    )


def check_tree(
    tree: DecisionTree, rng: random.Random, n_instances: int = 50, label: str = "tree"
) -> CheckStats:
    """Run the four checkers over every path of ``tree`` and over
    ``n_instances`` random instances, with the work bounds and the checks
    across answers.  Each source asks the oracle for its PI-explanations
    once: an extraction among them passes the extraction checker's every
    test, so that checker runs only on a miss, to name the fault."""
    oracle = BruteForceOracle(tree)
    fast_entails = partial(entails, tree)
    stats = CheckStats(trees=1)

    def check_source(src, where):
        """Check a source's scan, extraction and enumeration against each
        other and the oracle, with their work bounds, and that every
        PI-explanation holds the scan's core; returns the scan's verdict,
        the extracted explanation and the oracle's PI-explanations."""
        universe, target = src.literals, src.target
        scan = _scan(tree, src)
        _bounded(scan.visits, tree.node_count + src.path.depth, "scan examined", where)
        extracted, entered = _extract(tree, src, scan)
        bound = len(universe) * tree.node_count
        _bounded(entered, bound, "extraction entered", where)
        truth = set(oracle.enumerate_pi(universe, target))
        if extracted not in truth:  # let the extraction checker name the fault
            check_extraction(oracle, universe, target, extracted, where)
        fast, entered = _enumerate(tree, src, scan, None)
        _bounded(entered, tree.node_count, "family search entered", where)
        _compare_enumeration(truth, target, fast, None, where)
        necessary = {lit for lit in universe if scan.core >> lit.feature & 1}
        missing = [t for t in truth if not necessary <= t.literals]
        _require(not missing, where, "a PI-explanation lacks a necessary literal")
        _require(
            extracted in truth, where, "extracted explanation is not a PI-explanation"
        )
        _check_minimal(fast_entails, extracted.literals, target, where)
        return scan.verdict, extracted, truth

    restricted_by_leaf: dict[int, set[Explanation]] = {}
    for path in tree.paths:
        where = f"{label}/{path.path_id}"
        src = _source(tree, path, PATH_RESTRICTED)
        verdict, extracted, restricted_by_leaf[path.leaf] = check_source(src, where)
        slack = check_redundancy(oracle, path, verdict, where)
        stats.max_visit_slack = max(stats.max_visit_slack, slack)
        _require(
            verdict.redundant == (len(extracted.literals) < len(path.literals)),
            where,
            "redundancy verdict does not match extraction shrinkage",
        )
        stats.paths += 1

    for k in range(n_instances):
        point = random_instance(tree.space, rng)
        where = f"{label}/instance#{k}:{point}"
        src = _source(tree, point, PATH_UNRESTRICTED)
        target, path = src.target, src.path
        check_classification(oracle, point, target, path, where)
        for skip in range(-1, len(src.literals)):  # -1 keeps the full set
            subset = [lit for i, lit in enumerate(src.literals) if i != skip]
            _require(
                entails(tree, subset, target) == oracle.entails(subset, target),
                where,
                f"entailment of {len(subset)} literals disagrees with the oracle",
            )
        truth = check_source(src, where)[2]
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
        stats.instances += 1
    return stats
