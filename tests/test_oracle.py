"""Brute-force oracle: exhaustive entailment, enumeration, redundancy,
and the selfcheck checkers built on it."""

import ast
import itertools
import pathlib
import random
from functools import partial

import pytest

from conftest import FIXTURE_NAMES, literal_names, load_tree, one_edge_split_tree

import dtexplain
from dtexplain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    BruteForceOracle,
    BudgetExceededError,
    DecisionTree,
    Edge,
    Explanation,
    FeatureSpace,
    InstanceError,
    Leaf,
    Literal,
    OracleMismatch,
    Split,
    check_tree,
    classify,
    entails,
    enumerate_pi_explanations,
    instance_literals,
    one_pi_explanation_instance,
    one_pi_explanation_path,
    random_instance,
    random_tree,
)
from dtexplain.selfcheck import check_classification


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


def one_split_tree(n: int) -> DecisionTree:
    """x1 decides the class; x2 ... x<n> are never tested."""
    space = FeatureSpace.from_pairs((f"x{k + 1}", ("0", "1")) for k in range(n))
    edges = (Edge(0b1, "a"), Edge(0b10, "b"))
    nodes = {"root": Split(0, edges), "a": Leaf(0), "b": Leaf(1)}
    return DecisionTree(space, ("0", "1"), "root", nodes)


def test_budget_points_enforced():
    """2**20 binary points exceed the one limit, MAX_POINTS."""
    assert 2**19 <= dtexplain.oracle.MAX_POINTS < 2**20
    with pytest.raises(BudgetExceededError) as info:
        BruteForceOracle(one_split_tree(20))
    assert str(info.value) == "feature space has 1048576 points, budget allows 1000000"


def test_oracle_answers_the_largest_universe_it_accepts():
    """19 binary features fit the budget, so a query holding one literal
    per feature, the largest that a universe can be, is answered."""
    tree = one_split_tree(19)
    assert tree.space.point_count() == 524288
    point = (1,) + (0,) * 18
    assert BruteForceOracle(tree).entails(instance_literals(tree.space, point), 1)


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


def test_a_repeated_feature_gets_one_message_from_every_checker():
    """Fast entailment, oracle entailment and oracle enumeration refuse a
    literal set with two literals on one feature alike, and check the
    space first."""
    tree = load_tree("or_of_ands")
    oracle = BruteForceOracle(tree)
    repeated = lits(tree, ("x1", 1), ("x3", 1), ("x3", 0))
    checkers = (partial(entails, tree), oracle.entails, oracle.enumerate_pi)
    for check in checkers:
        with pytest.raises(ValueError) as raised:
            check(repeated, 1)
        assert str(raised.value) == "more than one literal for feature index 2"
        with pytest.raises(ValueError, match="outside the feature space"):
            check([*repeated, Literal(len(tree.space), 1)], 1)


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
            Edge(sum(1 << v for v in group), f"{node_id}.{k}")
            for k, group in enumerate(groups)
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


MIXED_SIZES = [(2, 3, 4, 6), (6, 4, 3, 2), (3, 6, 2, 4), (4, 2, 6, 3, 2), (6,), (3,)]


@pytest.mark.parametrize("sizes", MIXED_SIZES)
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


def test_check_tree_passes_below_a_one_edge_split():
    """A split whose one edge covers the whole domain gives its paths a
    whole-domain literal, and a re-test below it is entered with the
    whole domain allowed."""
    tree = one_edge_split_tree()
    literals = tree.path("P2").literals
    assert [(lit.feature, lit.mask) for lit in literals] == [(0, 0b111), (1, 0b10)]
    assert tree._above[tree._ids.index("again")] == 0b111
    stats = check_tree(tree, random.Random(0), n_instances=6)
    assert (stats.paths, stats.instances) == (3, 6)


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


@pytest.mark.parametrize("point", [(9, 0, 0), (0, -1, 0), (0, 0)])
def test_the_oracle_walk_rejects_a_point_outside_the_space(point):
    """A value past a domain, a negative value and a short point raise
    InstanceError, as ``classify`` does, instead of finding no edge."""
    tree = load_tree("play_tennis")
    oracle = BruteForceOracle(tree)
    with pytest.raises(InstanceError):
        classify(tree, point)
    with pytest.raises(InstanceError):
        check_classification(oracle, point, 0, tree.paths[0])


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


def test_check_tree_walks_only_its_instances(monkeypatch):
    """Complexity witness: the oracle's class tables walk no point, so the
    classification checker's one walk per instance is all the walking."""
    walked = []
    walk = BruteForceOracle._walk

    def counted(self, point):
        walked.append(point)
        return walk(self, point)

    monkeypatch.setattr(BruteForceOracle, "_walk", counted)
    for seed in range(6):
        walked.clear()
        check_tree(random_tree(seed), random.Random(seed), n_instances=10)
        assert len(walked) == 10


@pytest.mark.parametrize("keep", ["all", "none"])
def test_check_tree_names_an_extraction_fault(monkeypatch, keep):
    """An extraction missing from the oracle's PI-explanations goes to the
    extraction checker, which names the fault as ``--verify`` does."""

    def lie(tree, src, scan):
        literals = src.path.literal_set() if keep == "all" else frozenset()
        return Explanation(literals, src.target), 0

    monkeypatch.setattr(dtexplain.selfcheck, "_extract", lie)
    tree = load_tree("play_tennis")
    assert tree.paths[0].path_id == "P1"
    if keep == "all":  # {Humidity=high, Outlook=overcast}: Humidity is droppable
        index = tree.space.feature_by_name("Humidity").index
        message = (
            "tree/P1: explanation is not subset-minimal "
            f"(droppable literal on feature index {index})"
        )
    else:
        message = "tree/P1: explanation does not entail the prediction"
    with pytest.raises(OracleMismatch) as raised:
        check_tree(tree, random.Random(0), n_instances=5)
    assert str(raised.value) == message


def test_check_tree_asks_entailment_only_to_compare_answers(monkeypatch):
    """Work witness: the oracle decides entailment for the redundancy
    verdicts (at most a path's depth each) and for the per-instance
    comparison (features + 1 each); an extraction found among the
    oracle's PI-explanations costs no entailment query."""
    calls = []
    real = BruteForceOracle.entails

    def counted(self, literals, class_id):
        calls.append(class_id)
        return real(self, literals, class_id)

    monkeypatch.setattr(BruteForceOracle, "entails", counted)
    for seed in range(21):
        tree = random_tree(seed)
        calls.clear()
        check_tree(tree, random.Random(seed), n_instances=4)
        bound = sum(p.depth for p in tree.paths) + 4 * (len(tree.space) + 1)
        assert 0 < len(calls) <= bound, seed


def _tables_by_walking(oracle):
    """Per class, the points that the oracle's walker takes to it, as a
    bitset with bit ``i`` for the i-th point of the space."""
    tree = oracle.tree
    tables = [0] * len(tree.classes)
    for i, point in enumerate(tree.space.points()):
        tables[tree.nodes[oracle._walk(point)].class_id] |= 1 << i
    return tables


@pytest.mark.parametrize(
    "source", ["fixtures", "random_tree(0..99)", "mixed domains", "tiny spaces"]
)
def test_class_tables_match_the_walker(source):
    """The tables built from the tree's regions hold, for every class, the
    complement of the points that the walker takes to that class."""
    if source == "fixtures":
        trees = [load_tree(name) for name in FIXTURE_NAMES]
    elif source == "random_tree(0..99)":
        trees = [random_tree(seed) for seed in range(100)]
    elif source == "mixed domains":
        trees = [
            mixed_domain_tree(sizes, seed) for sizes in MIXED_SIZES for seed in range(5)
        ]
    else:  # a lone leaf over one feature and over none, and a one-feature split
        trees = [
            load_tree("constant"),
            DecisionTree(FeatureSpace([]), ("0", "1"), "r", {"r": Leaf(1)}),
            mixed_domain_tree((3,), 0),
        ]
    for tree in trees:
        oracle = BruteForceOracle(tree)
        everything = (1 << tree.space.point_count()) - 1
        for c, reached in enumerate(_tables_by_walking(oracle)):
            assert oracle._contrary(c) == everything & ~reached, (tree, c)


def test_the_oracle_reads_no_lowered_tree_list():
    """The oracle's answers come from ``tree.nodes`` and its own walker,
    never from the lowered lists that the fast paths search; of the
    tree's private attributes it reads only ``_full``, each feature's
    domain mask, to check literals."""
    module = pathlib.Path(dtexplain.oracle.__file__)
    read = {
        node.attr
        for node in ast.walk(ast.parse(module.read_text(), str(module)))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and ast.unparse(node.value).split(".")[-1] == "tree"
    }
    assert read == {"_full"}
