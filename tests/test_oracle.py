"""Brute-force oracle: exhaustive entailment, enumeration, redundancy,
and the selfcheck checkers built on it."""

import random

import pytest

from conftest import literal_names, load_tree

import dtexplain
from dtexplain import (
    BruteForceOracle,
    BudgetExceededError,
    Literal,
    OracleBudget,
    OracleMismatch,
    check_tree,
    random_tree,
)


def lits(tree, *pairs):
    return [
        Literal(tree.space.feature_by_name(name).index, 1 << value)
        for name, value in pairs
    ]


def test_bf_entails_pair():
    tree = load_tree("or_of_ands")
    assert BruteForceOracle(tree).entails(lits(tree, ("x3", 1), ("x4", 1)), 1)


def test_bf_entails_x1_alone_fails():
    tree = load_tree("or_of_ands")
    assert not BruteForceOracle(tree).entails(lits(tree, ("x1", 1)), 1)


def test_bf_entails_full_paths():
    tree = load_tree("restaurant")
    for path in tree.paths:
        assert BruteForceOracle(tree).entails(path.literals, path.prediction)


def test_bf_enumerate_pi_p2_universe():
    tree = load_tree("or_of_ands")
    got = BruteForceOracle(tree).enumerate_pi(tree.path("P2").literals, 1)
    assert [literal_names(tree, e.literals) for e in got] == [
        frozenset({"x3=1", "x4=1"})
    ]


def test_bf_enumerate_pi_selector_instance_universe():
    tree = load_tree("selector")
    universe = [Literal(i, 0b10) for i in range(4)]
    got = BruteForceOracle(tree).enumerate_pi(universe, 1)
    got = {literal_names(tree, e.literals) for e in got}
    assert got == {
        frozenset({"x1=1", "x3=1"}),
        frozenset({"x2=1", "x3=1", "x4=1"}),
    }


def test_bf_enumerate_pi_unreachable_class():
    tree = load_tree("or_tree")
    universe = lits(tree, ("x1", 0), ("x2", 0))
    assert BruteForceOracle(tree).enumerate_pi(universe, 1) == []


def test_bf_is_redundant_examples():
    or_tree = load_tree("or_tree")
    assert BruteForceOracle(or_tree).is_redundant(or_tree.path("P1"))
    assert not BruteForceOracle(or_tree).is_redundant(or_tree.path("P2"))
    pairs = load_tree("or_of_ands")
    assert not BruteForceOracle(pairs).is_redundant(pairs.path("P3"))
    assert BruteForceOracle(pairs).is_redundant(pairs.path("P2"))


def test_budget_points_enforced():
    tree = load_tree("or_tree")  # 4 points
    with pytest.raises(BudgetExceededError):
        BruteForceOracle(tree, OracleBudget(max_points=3)).entails([], 1)
    oracle = BruteForceOracle(tree, OracleBudget(max_points=4))
    assert oracle.entails(lits(tree, ("x1", 1)), 1)


def test_budget_universe_enforced():
    tree = load_tree("or_of_ands")
    universe = tree.path("P2").literals
    with pytest.raises(BudgetExceededError):
        BruteForceOracle(tree, OracleBudget(max_universe=3)).enumerate_pi(universe, 1)


def test_budget_caps_positive():
    with pytest.raises(ValueError):
        OracleBudget(max_points=0)


def test_duplicate_feature_universe_rejected():
    tree = load_tree("or_tree")
    universe = lits(tree, ("x1", 0), ("x1", 1))
    with pytest.raises(ValueError):
        BruteForceOracle(tree).enumerate_pi(universe, 1)


@pytest.mark.parametrize(
    "name", ["or_tree", "or_of_ands", "selector", "cross_circle", "articles"]
)
def test_redundancy_consistent_with_enumeration(name):
    """A path is redundant exactly when its universe holds a strictly
    smaller entailing subset."""
    tree = load_tree(name)
    for path in tree.paths:
        smaller = any(
            e.literals < path.literal_set()
            for e in BruteForceOracle(tree).enumerate_pi(path.literals, path.prediction)
        )
        assert BruteForceOracle(tree).is_redundant(path) == smaller


def test_memo_is_keyed_on_the_literal_set():
    tree = load_tree("or_of_ands")
    oracle = BruteForceOracle(tree)
    literals = lits(tree, ("x3", 1), ("x4", 1))
    assert oracle.entails(literals, 1)
    assert list(oracle._memo) == [frozenset(literals)]
    assert oracle.entails(literals[::-1], 1)  # a hit on the same key
    assert len(oracle._memo) == 1


# -- check_tree -----------------------------------------------------------------


def test_check_tree_checks_each_classification(monkeypatch):
    """A classify that reports another leaf of the same class is caught by
    the classification checker, which walks the point with the oracle."""
    real = dtexplain.selfcheck.classify

    def other_leaf(tree, point):
        _, path = real(tree, point)
        other = next(p for p in tree.paths if p is not path)
        return other.prediction, other

    monkeypatch.setattr(dtexplain.selfcheck, "classify", other_leaf)
    with pytest.raises(OracleMismatch, match="reaches leaf"):
        check_tree(load_tree("or_tree"), random.Random(0), n_instances=5)


def test_check_tree_checks_each_instance_at_most_three_times(monkeypatch):
    """Its own classify, the extraction's and the enumeration's: the
    checkers take the universe and class already resolved."""
    checks = []
    check = dtexplain.model._check_point

    def counted(space, point):
        checks.append(point)
        check(space, point)

    monkeypatch.setattr(dtexplain.model, "_check_point", counted)
    stats = check_tree(random_tree(3), random.Random(0), n_instances=10)
    assert stats.instances == 10
    assert len(checks) <= 3 * 10
