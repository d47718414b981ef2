"""Hitting-set construction and minimal-hitting-set enumeration."""

import ast
import dataclasses
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_NAMES,
    comb_tree,
    literal_names,
    load_tree,
    or_chain_tree,
    oversized_trees,
)

import dtexplain
from dtexplain import (
    BruteForceOracle,
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
    instance_literals,
    is_path_redundant,
    one_pi_explanation_path,
    parse_tree,
    random_tree,
)
from dtexplain.explain import _scan, _source
from dtexplain.hitting import _contrary_family


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


def test_source_conflicting_with_no_contrary_leaf_rejected():
    # P2 relabelled to class 0: its own leaf becomes a contrary leaf that
    # every candidate literal is consistent with
    tree = load_tree("or_of_ands")
    path = tree.path("P2")
    relabelled = dataclasses.replace(path, prediction=0)
    with pytest.raises(HittingSetError) as built:
        build_hitting_sets(tree, relabelled, PATH_RESTRICTED)
    with pytest.raises(HittingSetError) as enumerated:
        enumerate_pi_explanations(tree, relabelled, PATH_RESTRICTED)
    assert str(enumerated.value) == str(built.value)
    assert "'P2' conflicts with no candidate literal" in str(built.value)
    with pytest.raises(HittingSetError):
        _contrary_family(tree, path.literals, 0)


def test_empty_member_set_rejected():
    lit = Literal(0, 0b1)
    with pytest.raises(HittingSetError):
        HittingSetInstance(universe=(lit,), sets=(("Q1", frozenset()),))


# -- enumeration --------------------------------------------------------------


def family(universe, *index_sets):
    return HittingSetInstance(
        universe=universe,
        sets=tuple((f"Q{i + 1}", frozenset(s)) for i, s in enumerate(index_sets)),
    )


def abstract_universe(n):
    return tuple(Literal(i, 0b10) for i in range(n))


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


def test_negative_limit_is_rejected():
    """A negative limit used to slice sets off the end: P2 of or_of_ands
    has one PI-explanation, and ``limit=-1`` returned none."""
    tree = load_tree("or_of_ands")
    path = tree.path("P2")
    hs = build_hitting_sets(tree, path, PATH_RESTRICTED)
    assert len(enumerate_mhs(hs)) == 1
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_mhs(hs, limit=-1)
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_pi_explanations(tree, path, PATH_RESTRICTED, -1)


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
    n=st.integers(1, 8),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_mhs_matches_brute_force(n, data):
    # a dozen sets over at most eight elements: duplicates and strict
    # supersets are common, which Berge's loop must absorb unminimised
    sets = data.draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1).map(frozenset),
            max_size=12,
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


BENCH_MODULES = {"bench", "refcheck", "gen", "tracing", "workloads"}


def test_package_imports_nothing_from_bench():
    """bench/refcheck.py checks enumeration with its own Berge transversals;
    the package must not borrow them (or any other bench module)."""
    package = pathlib.Path(dtexplain.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in BENCH_MODULES, (
                    f"{module.name} imports {name}"
                )


def contrastive_index_sets(oracle, universe, target):
    """Subset-minimal C for which the universe without C does not entail
    the target, by brute force over subsets of universe indices."""
    n = len(universe)
    found = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            c = frozenset(combo)
            if any(prior <= c for prior in found):
                continue
            rest = [universe[i] for i in range(n) if i not in c]
            if not oracle.entails(rest, target):
                found.append(c)
    return set(found)


def minimal_members(hs):
    members = {m for _, m in hs.sets}
    return {m for m in members if not any(other < m for other in members)}


@pytest.mark.parametrize(
    "tree",
    [pytest.param(load_tree(name), id=name) for name in FIXTURE_NAMES]
    + [pytest.param(random_tree(seed), id=f"random_tree-{seed}") for seed in range(6)],
)
def test_minimal_family_members_are_the_contrastive_explanations(tree):
    """The distinct inclusion-minimal family members are exactly the
    contrastive explanations drawn from the universe, in both modes."""
    oracle = BruteForceOracle(tree)
    for path in tree.paths:
        hs = build_hitting_sets(tree, path, PATH_RESTRICTED)
        truth = contrastive_index_sets(oracle, hs.universe, path.prediction)
        assert minimal_members(hs) == truth, path.path_id
    points = list(tree.space.points())
    if len(points) > 48:
        points = random.Random(5).sample(points, 48)
    for point in points:
        hs = build_hitting_sets(tree, point, PATH_UNRESTRICTED)
        target, _ = classify(tree, point)
        truth = contrastive_index_sets(oracle, hs.universe, target)
        assert minimal_members(hs) == truth, point


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


def test_layers_agree_beyond_the_oracle_budget():
    """Metamorphic checks on trees whose feature space the brute-force
    oracle refuses: the layers must agree with one another."""
    for tree in oversized_trees():
        for path in tree.paths:
            assert entails(tree, path.literals, path.prediction)
            verdict = is_path_redundant(tree, path)
            one = one_pi_explanation_path(tree, path)
            assert verdict.redundant == (len(one.literals) < len(path.literals))
            everything = [
                e.literals
                for e in enumerate_pi_explanations(tree, path, PATH_RESTRICTED)
            ]
            assert one.literals in everything
            for found in everything:
                assert entails(tree, found, path.prediction)
                for lit in found:
                    assert not entails(tree, found - {lit}, path.prediction)


# -- the pruned family search ---------------------------------------------------


def index_mask(members):
    return sum(1 << i for i in members)


def assert_family_matches_build(tree, source, mode):
    """The search's family is the distinct inclusion-minimal members of
    the per-contrary-path build, and it enters each node at most once."""
    src = _source(tree, source, mode)
    family, entered = _contrary_family(tree, src.literals, src.target)
    built = build_hitting_sets(tree, source, mode)
    assert built.universe == src.literals
    assert set(family) == {index_mask(m) for m in minimal_members(built)}
    assert entered <= tree.node_count


@pytest.mark.parametrize(
    "tree",
    [pytest.param(load_tree(name), id=name) for name in FIXTURE_NAMES]
    + [pytest.param(random_tree(seed), id=f"random_tree-{seed}") for seed in range(6)]
    + [
        pytest.param(tree, id=f"oversized-{i}")
        for i, tree in enumerate(oversized_trees())
    ],
)
def test_family_search_matches_the_per_path_build(tree):
    for path in tree.paths:
        assert_family_matches_build(tree, path, PATH_RESTRICTED)
    rng = random.Random(7)
    points = list(itertools.islice(tree.space.points(), 64))
    points += [tuple(rng.randrange(len(f.domain)) for f in tree.space) for _ in range(64)]
    for point in points:
        assert_family_matches_build(tree, point, PATH_UNRESTRICTED)


def test_deep_chain_core_leaves_the_family_search_no_member():
    """On the class-0 path of x1 or ... or x2000 every literal is necessary:
    freeing any x_k=0 opens the class-1 leaf below its test.  Both
    enumerations return that one set, and the family search, told the
    core, keeps none of the 2000 singleton members it would list
    without it."""
    depth = 2000
    tree = or_chain_tree(depth)
    q1 = tree.path("Q1")
    assert q1.depth == depth
    everything = frozenset(q1.literals)
    restricted = enumerate_pi_explanations(tree, q1, PATH_RESTRICTED)
    assert [e.literals for e in restricted] == [everything]
    point = (0,) * depth
    unrestricted = enumerate_pi_explanations(tree, point, PATH_UNRESTRICTED)
    assert [e.literals for e in unrestricted] == [
        frozenset(instance_literals(tree.space, point))
    ]
    scan = _scan(tree, _source(tree, q1, PATH_RESTRICTED))
    core = sum(1 << i for i, lit in enumerate(q1.literals) if scan.core >> lit.feature & 1)
    assert core == (1 << depth) - 1
    family, _ = _contrary_family(tree, q1.literals, q1.prediction, core)
    assert family == []


def comb_explanations(n):
    """The all-zero instance of ``comb_tree(n)``: its literals, its scan's
    core, its family and its unrestricted enumeration."""
    tree = comb_tree(n)
    zero = (0,) * (n + 1)
    src = _source(tree, zero, PATH_UNRESTRICTED)
    family, entered = _contrary_family(tree, src.literals, src.target)
    found = enumerate_pi_explanations(tree, zero, PATH_UNRESTRICTED)
    return tree, src.literals, _scan(tree, src).core, family, entered, found


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_comb_family_without_a_core_matches_the_oracle(n):
    tree, literals, core, family, _, found = comb_explanations(n)
    assert core == 0
    assert len(family) == n
    truth = BruteForceOracle(tree).enumerate_pi(literals, 0)
    assert {e.literals for e in found} == {e.literals for e in truth}
    assert {e.literals for e in found} == {
        frozenset({literals[n]}),
        frozenset(literals[:n]),
    }


def test_comb_family_shape_at_500():
    """The n members {x<k>, y}, found by a search that enters each test
    and each class-1 leaf once and no class-0 leaf."""
    n = 500
    tree, literals, core, family, entered, found = comb_explanations(n)
    assert core == 0
    assert sorted(family) == sorted(1 << k | 1 << n for k in range(n))
    assert entered == 3 * n
    assert [e.literals for e in found] == [
        frozenset({literals[n]}),
        frozenset(literals[:n]),
    ]
