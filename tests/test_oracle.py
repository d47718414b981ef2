"""Brute-force oracle: exhaustive entailment, enumeration, redundancy."""

import pytest

from conftest import literal_names, load_tree

from dtexplain import (
    BruteForceOracle,
    BudgetExceededError,
    Literal,
    OracleBudget,
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
