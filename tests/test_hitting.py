"""Hitting-set construction and minimal-hitting-set enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import literal_names, load_tree

from dtexplain import (
    HittingSetError,
    HittingSetInstance,
    Literal,
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    build_hitting_sets,
    classify,
    enumerate_mhs,
    enumerate_pi_explanations,
    entails,
    one_pi_explanation_path,
    parse_tree,
)


# -- construction -------------------------------------------------------------


def test_p2_restricted_families():
    tree = load_tree("or_of_ands")
    hs = build_hitting_sets(tree, tree.path("P2"), PATH_RESTRICTED)
    assert [lit.render(tree.space) for lit in hs.universe] == [
        "x1=1",
        "x2=0",
        "x3=1",
        "x4=1",
    ]
    got = [(pid, literal_names(tree, ls)) for pid, ls in hs.literal_sets()]
    assert got == [
        ("Q1", frozenset({"x1=1", "x3=1"})),
        ("Q2", frozenset({"x1=1", "x4=1"})),
        ("Q3", frozenset({"x3=1"})),
        ("Q4", frozenset({"x4=1"})),
    ]


def test_selector_unrestricted_families():
    tree = load_tree("selector")
    hs = build_hitting_sets(tree, (1, 1, 1, 1), PATH_UNRESTRICTED)
    got = [(pid, literal_names(tree, ls)) for pid, ls in hs.literal_sets()]
    assert got == [
        ("Q1", frozenset({"x1=1", "x2=1"})),
        ("Q2", frozenset({"x1=1", "x4=1"})),
        ("Q3", frozenset({"x3=1"})),
    ]


def test_single_class_tree_gives_empty_family():
    tree = parse_tree(
        """
        {"features": [{"name": "x1", "domain": ["0", "1"]}],
         "classes": ["0", "1"],
         "root": "n0",
         "nodes": {"n0": {"feature": "x1",
                          "edges": [{"values": ["0"], "child": "a"},
                                    {"values": ["1"], "child": "b"}]},
                   "a": {"leaf": "1"}, "b": {"leaf": "1"}}}
        """
    )
    hs = build_hitting_sets(tree, (0,), PATH_UNRESTRICTED)
    assert hs.sets == ()
    assert enumerate_mhs(hs) == [frozenset()]
    explanations = enumerate_pi_explanations(tree, (0,), PATH_UNRESTRICTED)
    assert len(explanations) == 1 and explanations[0].literals == frozenset()
    assert entails(tree, explanations[0].literals, 1)


def test_mode_source_mismatch_rejected():
    tree = load_tree("or_of_ands")
    with pytest.raises(HittingSetError):
        build_hitting_sets(tree, (1, 0, 1, 1), PATH_RESTRICTED)
    with pytest.raises(HittingSetError):
        build_hitting_sets(tree, tree.path("P2"), PATH_UNRESTRICTED)
    with pytest.raises(HittingSetError):
        build_hitting_sets(tree, tree.path("P2"), "all-of-them")


def test_empty_member_set_rejected():
    lit = Literal(0, frozenset({0}))
    with pytest.raises(HittingSetError):
        HittingSetInstance(universe=(lit,), sets=(("Q1", frozenset()),))


# -- enumeration --------------------------------------------------------------


def family(universe, *index_sets):
    return HittingSetInstance(
        universe=universe,
        sets=tuple((f"Q{i + 1}", frozenset(s)) for i, s in enumerate(index_sets)),
    )


def abstract_universe(n):
    return tuple(Literal(i, frozenset({1})) for i in range(n))


def test_mhs_single_answer():
    u = abstract_universe(4)  # x1, x2, x3, x4 at indices 0..3
    hs = family(u, {0, 2}, {0, 3}, {2}, {3})
    assert enumerate_mhs(hs) == [frozenset({u[2], u[3]})]


def test_mhs_two_answers():
    u = abstract_universe(4)
    hs = family(u, {0, 1}, {0, 3}, {2})
    assert enumerate_mhs(hs) == [
        frozenset({u[0], u[2]}),
        frozenset({u[1], u[3], u[2]}),
    ]


def test_mhs_empty_family():
    hs = HittingSetInstance(universe=abstract_universe(3), sets=())
    assert enumerate_mhs(hs) == [frozenset()]


def test_mhs_limit_truncates_in_emission_order():
    u = abstract_universe(4)
    hs = family(u, {0, 1}, {0, 3}, {2})
    full = enumerate_mhs(hs)
    assert enumerate_mhs(hs, limit=1) == full[:1]
    assert enumerate_mhs(hs, limit=0) == []
    assert enumerate_mhs(hs, limit=99) == full


def test_mhs_deterministic():
    u = abstract_universe(5)
    hs = family(u, {0, 1, 2}, {1, 3}, {2, 4}, {0, 4})
    assert enumerate_mhs(hs) == enumerate_mhs(hs)


def brute_force_mhs(n, index_sets):
    hits = [
        frozenset(combo)
        for size in range(n + 1)
        for combo in itertools.combinations(range(n), size)
        if all(frozenset(combo) & s for s in index_sets)
    ]
    return {h for h in hits if not any(o < h for o in hits)}


@given(
    n=st.integers(1, 7),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_mhs_matches_brute_force(n, data):
    sets = data.draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1).map(frozenset),
            max_size=6,
        )
    )
    u = abstract_universe(n)
    hs = HittingSetInstance(
        universe=u,
        sets=tuple((f"Q{i + 1}", s) for i, s in enumerate(sets)),
    )
    got = {frozenset(lit.feature for lit in s) for s in enumerate_mhs(hs)}
    assert got == brute_force_mhs(n, sets)
    # emitted order is by (cardinality, universe indices)
    ordered = [
        tuple(sorted(lit.feature for lit in s)) for s in enumerate_mhs(hs)
    ]
    assert ordered == sorted(ordered, key=lambda t: (len(t), t))


# -- composed enumeration -------------------------------------------------------


def test_enumerate_restricted_p2():
    tree = load_tree("or_of_ands")
    explanations = enumerate_pi_explanations(tree, tree.path("P2"), PATH_RESTRICTED)
    assert [literal_names(tree, e.literals) for e in explanations] == [
        frozenset({"x3=1", "x4=1"})
    ]
    assert explanations[0].mode == PATH_RESTRICTED
    assert all(entails(tree, e.literals, e.target) for e in explanations)


def test_enumerate_unrestricted_selector():
    tree = load_tree("selector")
    explanations = enumerate_pi_explanations(tree, (1, 1, 1, 1), PATH_UNRESTRICTED)
    assert [literal_names(tree, e.literals) for e in explanations] == [
        frozenset({"x1=1", "x3=1"}),
        frozenset({"x2=1", "x3=1", "x4=1"}),
    ]
    # the second explanation uses a literal of a path the instance never takes
    _, path = classify(tree, (1, 1, 1, 1))
    restricted = enumerate_pi_explanations(tree, path, PATH_RESTRICTED)
    assert [literal_names(tree, e.literals) for e in restricted] == [
        frozenset({"x1=1", "x3=1"})
    ]


def test_enumerate_unrestricted_or_tree_instance():
    tree = load_tree("or_tree")
    explanations = enumerate_pi_explanations(tree, (0, 1), PATH_UNRESTRICTED)
    assert [literal_names(tree, e.literals) for e in explanations] == [
        frozenset({"x2=1"})
    ]


@pytest.mark.parametrize("name", ["or_tree", "or_of_ands", "selector"])
def test_restricted_subset_of_unrestricted(name):
    tree = load_tree(name)
    for point in tree.space.points():
        _, path = classify(tree, point)
        restricted = {
            e.literals
            for e in enumerate_pi_explanations(tree, path, PATH_RESTRICTED)
        }
        unrestricted = {
            e.literals
            for e in enumerate_pi_explanations(tree, point, PATH_UNRESTRICTED)
        }
        assert restricted <= unrestricted


@pytest.mark.parametrize(
    "name", ["or_tree", "or_of_ands", "selector", "restaurant", "articles"]
)
def test_one_explanation_is_member_of_enumeration(name):
    tree = load_tree(name)
    for path in tree.paths:
        one = one_pi_explanation_path(tree, path)
        everything = {
            e.literals for e in enumerate_pi_explanations(tree, path, PATH_RESTRICTED)
        }
        assert one.literals in everything
