"""Brute-force oracle: exhaustive entailment, enumeration, redundancy,
and the selfcheck checkers built on it."""

import itertools
import random

import pytest

from conftest import FIXTURE_NAMES, literal_names, load_tree

import dtexplain
from dtexplain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    BruteForceOracle,
    BudgetExceededError,
    DecisionTree,
    Edge,
    FeatureSpace,
    Leaf,
    Literal,
    OracleBudget,
    OracleMismatch,
    Split,
    check_tree,
    classify,
    enumerate_pi_explanations,
    instance_literals,
    one_pi_explanation_instance,
    one_pi_explanation_path,
    random_instance,
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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fast_answers_equal_the_oracles(name):
    """An answer is its literals and its class: each path's and instance's
    extraction is one of the oracle's PI-explanations, and its enumeration
    is the oracle's, whatever source they were drawn from."""
    tree = load_tree(name)
    oracle = BruteForceOracle(tree)
    sources = [
        (path, PATH_RESTRICTED, path.literals, path.prediction) for path in tree.paths
    ]
    rng = random.Random(5)
    for _ in range(5):
        point = random_instance(tree.space, rng)
        universe = instance_literals(tree.space, point)
        sources.append((point, PATH_UNRESTRICTED, universe, classify(tree, point)[0]))
    for source, mode, universe, target in sources:
        truth = oracle.enumerate_pi(universe, target)
        if mode == PATH_RESTRICTED:
            assert one_pi_explanation_path(tree, source) in truth
        else:
            assert one_pi_explanation_instance(tree, source) in truth
        assert set(enumerate_pi_explanations(tree, source, mode)) == set(truth)


def test_queries_are_order_free_repeatable_and_checked():
    """Reordered and repeated queries give the same answers, and a query
    with two literals on one feature or a literal outside the space is
    refused."""
    tree = load_tree("or_of_ands")
    oracle = BruteForceOracle(tree)
    literals = lits(tree, ("x3", 1), ("x4", 1))
    for query in (literals, literals[::-1], iter(literals), literals):
        assert oracle.entails(query, 1)
        assert not oracle.entails(query, 0)
    for _ in range(2):
        assert not oracle.entails(literals[:1], 1)
    with pytest.raises(ValueError, match="more than one literal for feature"):
        oracle.entails(lits(tree, ("x3", 1), ("x3", 0)), 1)
    with pytest.raises(ValueError, match="outside the feature space"):
        oracle.entails([Literal(0, 0b100)], 1)  # value 2 of a binary feature
    with pytest.raises(ValueError, match="outside the feature space"):
        oracle.entails([Literal(len(tree.space), 1)], 1)


# -- the bitset oracle against its definition ------------------------------------


def mixed_domain_tree(sizes, seed):
    """A random three-class tree over features with the given domain
    sizes; each split partitions the whole domain of a feature not yet
    tested on its branch."""
    rng = random.Random(seed)
    space = FeatureSpace.from_pairs(
        (f"f{i}", tuple(f"v{v}" for v in range(size))) for i, size in enumerate(sizes)
    )
    nodes = {}

    def grow(node_id, untested):
        if not untested or rng.random() < 0.2:
            nodes[node_id] = Leaf(rng.randrange(3))
            return
        feature = rng.choice(sorted(untested))
        values = list(range(sizes[feature]))
        rng.shuffle(values)
        cuts = sorted(rng.sample(range(1, len(values)), rng.randint(1, len(values) - 1)))
        groups = [values[a:b] for a, b in zip([0] + cuts, cuts + [len(values)])]
        edges = tuple(
            Edge(frozenset(group), f"{node_id}.{k}") for k, group in enumerate(groups)
        )
        nodes[node_id] = Split(feature, edges)
        for edge in edges:
            grow(edge.child, untested - {feature})

    grow("n", set(range(len(sizes))))
    return DecisionTree(space, ("a", "b", "c"), "n", nodes)


def random_literals(space, rng):
    """Literals on a random subset of the features (possibly none), each
    with a random non-empty value mask, often of several values."""
    features = [f for f in space.features if rng.random() < 0.5]
    return [
        Literal(f.index, rng.randrange(1, 1 << len(f.domain))) for f in features
    ]


def check_against_definition(tree, rng, queries):
    """``entails`` and ``enumerate_pi`` agree with a per-point loop over
    the space's points, walked by the oracle's own walker."""
    oracle = BruteForceOracle(tree)
    reached = [
        (point, tree.nodes[oracle._walk(point)].class_id)
        for point in tree.space.points()
    ]

    def by_definition(literals, class_id):
        return all(
            reached_class == class_id
            for point, reached_class in reached
            if all(lit.mask >> point[lit.feature] & 1 for lit in literals)
        )

    for k in range(queries):
        literals = [] if k == 0 else random_literals(tree.space, rng)
        for class_id in range(len(tree.classes)):
            assert oracle.entails(literals, class_id) == by_definition(
                literals, class_id
            ), (literals, class_id)
    universe = random_literals(tree.space, rng)
    for class_id in range(len(tree.classes)):
        got = {e.literals for e in oracle.enumerate_pi(universe, class_id)}
        entailing = [
            frozenset(subset)
            for size in range(len(universe) + 1)
            for subset in itertools.combinations(universe, size)
            if by_definition(subset, class_id)
        ]
        assert got == {s for s in entailing if not any(t < s for t in entailing)}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_entails_matches_definition_on_fixtures(name):
    check_against_definition(load_tree(name), random.Random(name), queries=40)


def test_entails_matches_definition_on_random_trees():
    rng = random.Random(15)
    for seed in range(100):
        check_against_definition(random_tree(seed), rng, queries=8)


@pytest.mark.parametrize(
    "sizes", [(2, 3, 4, 6), (6, 4, 3, 2), (3, 6, 2, 4), (4, 2, 6, 3, 2), (6,), (3,)]
)
def test_entails_matches_definition_on_mixed_domains(sizes):
    """Runs and periods of every length the stride arithmetic produces."""
    for seed in range(5):
        check_against_definition(
            mixed_domain_tree(sizes, seed), random.Random(seed), queries=30
        )


def test_entails_on_one_and_zero_feature_spaces():
    """The one-feature ``constant`` fixture is a lone leaf; a space with
    no features has one point, the empty one."""
    constant = load_tree("constant")
    assert len(constant.space) == 1 and constant.node_count == 1
    empty = DecisionTree(FeatureSpace([]), ("0", "1"), "r", {"r": Leaf(0)})
    assert empty.space.point_count() == 1
    for tree in (constant, empty):
        oracle = BruteForceOracle(tree)
        assert oracle.entails([], 0) and not oracle.entails([], 1)
        assert [e.literals for e in oracle.enumerate_pi([], 0)] == [frozenset()]
        assert oracle.enumerate_pi([], 1) == []
    oracle = BruteForceOracle(constant)
    for mask in (0b01, 0b10, 0b11):
        assert oracle.entails([Literal(0, mask)], 0)
        assert not oracle.entails([Literal(0, mask)], 1)


# -- check_tree -----------------------------------------------------------------


def test_check_tree_checks_each_classification(monkeypatch):
    """A classify that reports another leaf of the same class is caught by
    the classification checker, which walks the point with the oracle."""
    real = dtexplain.explain.classify

    def other_leaf(tree, point):
        _, path = real(tree, point)
        other = next(p for p in tree.paths if p is not path)
        return other.prediction, other

    monkeypatch.setattr(dtexplain.explain, "classify", other_leaf)
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


def test_check_tree_classifies_each_instance_once(monkeypatch):
    """One source per instance: the extraction, the enumeration and the
    checkers read the class and path it resolved."""
    checks = []
    check = dtexplain.model._check_point

    def counted(space, point):
        checks.append(point)
        check(space, point)

    monkeypatch.setattr(dtexplain.model, "_check_point", counted)
    for seed in range(21):
        del checks[:]
        stats = check_tree(random_tree(seed), random.Random(seed), n_instances=4)
        assert stats.instances == 4
        assert len(checks) == 4


def test_check_tree_walks_each_point_at_most_once(monkeypatch):
    """Complexity witness: the oracle's tables cost one walk per point of
    the space, and the classification checker one walk per instance."""
    walked = []
    walk = BruteForceOracle._walk

    def counted(self, point):
        walked.append(point)
        return walk(self, point)

    monkeypatch.setattr(BruteForceOracle, "_walk", counted)
    for seed in range(6):
        tree = random_tree(seed)
        walked.clear()
        check_tree(tree, random.Random(seed), n_instances=10)
        assert 0 < len(walked) <= tree.space.point_count() + 10
