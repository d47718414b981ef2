"""Tree model: parsing, validation, classification, paths, counting."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_NAMES, literal_names, load_tree

from dtexplain import (
    CycleError,
    DanglingChildError,
    EdgeCoverageError,
    EdgeOverlapError,
    FeatureSpace,
    InconsistentLiteralsError,
    InstanceError,
    Literal,
    NotATreeError,
    TreeSchemaError,
    TreeSyntaxError,
    UnknownClassError,
    UnknownFeatureError,
    UnknownValueError,
    UnreachableLeafError,
    UnsupportedLiteralError,
    classify,
    literals_consistent,
    make_instance,
    parse_instance_json,
    parse_tree,
    path_point_count,
    read_instances_csv,
    serialize_tree,
)


def doc(**overrides):
    """A small valid document to mutate in error tests."""
    base = {
        "features": [
            {"name": "x1", "domain": ["0", "1"]},
            {"name": "x2", "domain": ["0", "1"]},
        ],
        "classes": ["0", "1"],
        "root": "n0",
        "nodes": {
            "n0": {
                "feature": "x1",
                "edges": [
                    {"values": ["0"], "child": "t0"},
                    {"values": ["1"], "child": "t1"},
                ],
            },
            "t0": {"leaf": "0"},
            "t1": {"leaf": "1"},
        },
    }
    base.update(overrides)
    return base


def parse(obj):
    return parse_tree(json.dumps(obj))


# -- parsing and validation --------------------------------------------------


def test_or_tree_has_three_paths():
    tree = load_tree("or_tree")
    assert len(tree.paths) == 3
    assert [p.path_id for p in tree.paths] == ["Q1", "P1", "P2"]


def test_degenerate_constant_tree_with_no_features():
    tree = parse(
        {
            "features": [],
            "classes": ["0"],
            "root": "t",
            "nodes": {"t": {"leaf": "0"}},
        }
    )
    assert len(tree.paths) == 1
    assert tree.paths[0].literals == ()
    assert tree.space.point_count() == 1


def test_syntax_error_reports_position():
    with pytest.raises(TreeSyntaxError, match=r"line 1"):
        parse_tree("{not json")


def test_non_covering_edges_rejected():
    bad = doc()
    bad["nodes"]["n0"]["edges"][1]["values"] = []  # schema: empty edge
    with pytest.raises(TreeSchemaError):
        parse(bad)
    bad = doc()
    del bad["nodes"]["n0"]["edges"][1]
    with pytest.raises(EdgeCoverageError, match="non-covering"):
        parse(bad)


def test_overlapping_edges_rejected():
    bad = doc()
    bad["nodes"]["n0"]["edges"][1]["values"] = ["0", "1"]
    with pytest.raises(EdgeOverlapError, match="non-disjoint"):
        parse(bad)


def test_unknown_names_rejected():
    bad = doc()
    bad["nodes"]["n0"]["feature"] = "x9"
    with pytest.raises(UnknownFeatureError):
        parse(bad)
    bad = doc()
    bad["nodes"]["n0"]["edges"][0]["values"] = ["2"]
    with pytest.raises(UnknownValueError):
        parse(bad)
    bad = doc()
    bad["nodes"]["t0"]["leaf"] = "maybe"
    with pytest.raises(UnknownClassError):
        parse(bad)
    for name in (["x1"], {"name": "x1"}):  # not a name at all
        bad = doc()
        bad["nodes"]["n0"]["feature"] = name
        with pytest.raises(TreeSchemaError, match="feature must be a name string"):
            parse(bad)


def test_dangling_child_rejected():
    bad = doc()
    bad["nodes"]["n0"]["edges"][0]["child"] = "ghost"
    with pytest.raises(DanglingChildError):
        parse(bad)


def test_cycle_rejected():
    bad = doc()
    bad["nodes"]["c1"] = {
        "feature": "x2",
        "edges": [
            {"values": ["0"], "child": "c2"},
            {"values": ["1"], "child": "c3"},
        ],
    }
    bad["nodes"]["c2"] = {
        "feature": "x2",
        "edges": [
            {"values": ["0"], "child": "c1"},
            {"values": ["1"], "child": "c4"},
        ],
    }
    bad["nodes"]["c3"] = {"leaf": "0"}
    bad["nodes"]["c4"] = {"leaf": "0"}
    with pytest.raises(CycleError):
        parse(bad)


def test_shared_child_and_unreachable_rejected():
    bad = doc()
    bad["nodes"]["n0"]["edges"][1]["child"] = "t0"
    with pytest.raises(NotATreeError, match="more than one parent"):
        parse(bad)
    bad = doc()
    bad["nodes"]["orphan"] = {"leaf": "0"}
    with pytest.raises(NotATreeError, match="unreachable"):
        parse(bad)
    bad = doc()
    bad["nodes"]["n1"] = {
        "feature": "x2",
        "edges": [
            {"values": ["0"], "child": "n0"},
            {"values": ["1"], "child": "t2"},
        ],
    }
    bad["nodes"]["t2"] = {"leaf": "0"}
    with pytest.raises(NotATreeError, match="root"):
        parse(bad)


def test_ordinal_split_rejected():
    bad = doc()
    bad["nodes"]["n0"] = {"feature": "x1", "op": "<=", "threshold": 0.5}
    with pytest.raises(UnsupportedLiteralError, match="unsupported literal kind"):
        parse(bad)


def test_empty_aggregate_rejected():
    bad = {
        "features": [{"name": "x1", "domain": ["a", "b", "c"]}],
        "classes": ["0", "1"],
        "root": "n0",
        "nodes": {
            "n0": {
                "feature": "x1",
                "edges": [
                    {"values": ["a", "b"], "child": "n1"},
                    {"values": ["c"], "child": "t1"},
                ],
            },
            "n1": {
                "feature": "x1",
                "edges": [
                    {"values": ["c"], "child": "t2"},
                    {"values": ["a", "b"], "child": "t3"},
                ],
            },
            "t1": {"leaf": "0"},
            "t2": {"leaf": "1"},
            "t3": {"leaf": "0"},
        },
    }
    with pytest.raises(UnreachableLeafError):
        parse(bad)


# -- classification -----------------------------------------------------------


def test_classify_or_tree():
    tree = load_tree("or_tree")
    class_id, path = classify(tree, make_instance(tree.space, ["0", "1"]))
    assert tree.classes[class_id] == "1"
    assert literal_names(tree, path.literals) == {"x1=0", "x2=1"}
    class_id, _ = classify(tree, make_instance(tree.space, ["0", "0"]))
    assert tree.classes[class_id] == "0"


def test_classify_or_of_ands_hits_p2():
    tree = load_tree("or_of_ands")
    class_id, path = classify(tree, make_instance(tree.space, "1011"))
    assert tree.classes[class_id] == "1"
    assert path.path_id == "P2"


def test_classify_bad_instance():
    tree = load_tree("or_tree")
    with pytest.raises(InstanceError):
        classify(tree, (0,))
    with pytest.raises(InstanceError):
        classify(tree, (0, 7))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_classify_determinism(name):
    """Every point of the space is consistent with exactly one path, and
    classify returns that path."""
    tree = load_tree(name)
    for point in tree.space.points():
        consistent = [
            p
            for p in tree.paths
            if all(point[lit.feature] in lit.allowed for lit in p.literals)
        ]
        assert len(consistent) == 1
        _, path = classify(tree, point)
        assert path is consistent[0]


# -- path enumeration ---------------------------------------------------------


def test_or_of_ands_path_listing():
    tree = load_tree("or_of_ands")
    listing = {p.path_id: literal_names(tree, p.literals) for p in tree.paths}
    assert listing == {
        "P1": {"x1=0", "x3=1", "x4=1"},
        "P2": {"x1=1", "x2=0", "x3=1", "x4=1"},
        "P3": {"x1=1", "x2=1"},
        "Q1": {"x1=0", "x3=0"},
        "Q2": {"x1=0", "x3=1", "x4=0"},
        "Q3": {"x1=1", "x2=0", "x3=0"},
        "Q4": {"x1=1", "x2=0", "x3=1", "x4=0"},
    }
    assert [p.path_id for p in tree.paths_for_class(1)] == ["P1", "P2", "P3"]
    assert [p.path_id for p in tree.paths_for_class(0)] == ["Q1", "Q2", "Q3", "Q4"]
    assert [p.path_id for p in tree.contrary_paths(1)] == ["Q1", "Q2", "Q3", "Q4"]


def test_repeated_feature_aggregates_by_intersection():
    tree = load_tree("repeat_feature")
    p1 = tree.path("P1")
    assert literal_names(tree, p1.literals) == {"x1=a"}
    assert p1.node_features == (0, 0)  # two records kept for the one feature
    q1 = tree.path("Q1")
    assert literal_names(tree, q1.literals) == {"x1=b"}


def test_constant_tree_single_empty_path():
    tree = load_tree("constant")
    assert len(tree.paths) == 1
    assert tree.paths[0].literals == ()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pairwise_path_inconsistency(name):
    """Any two distinct paths disagree on some shared feature."""
    tree = load_tree(name)
    for i, a in enumerate(tree.paths):
        for b in tree.paths[i + 1 :]:
            amap = a.literal_map
            bmap = b.literal_map
            assert any(
                not (amap[f] & bmap[f]) for f in set(amap) & set(bmap)
            ), f"{a.path_id} and {b.path_id} are consistent"


# -- literals -----------------------------------------------------------------


def test_literals_consistent_examples():
    eq = lambda f, v: Literal(f, frozenset({v}))
    assert not literals_consistent(eq(0, 0), eq(0, 1))
    assert literals_consistent(eq(0, 0), eq(1, 0))
    assert literals_consistent(Literal(0, frozenset({1, 2})), eq(0, 2))


@given(
    f1=st.integers(0, 3),
    f2=st.integers(0, 3),
    a1=st.sets(st.integers(0, 3), min_size=1).map(frozenset),
    a2=st.sets(st.integers(0, 3), min_size=1).map(frozenset),
)
def test_literal_consistency_is_symmetric(f1, f2, a1, a2):
    x, y = Literal(f1, a1), Literal(f2, a2)
    assert literals_consistent(x, y) == literals_consistent(y, x)
    if f1 == f2:
        assert literals_consistent(x, y) == bool(a1 & a2)
    else:
        assert literals_consistent(x, y)


def test_literal_needs_values():
    with pytest.raises(InconsistentLiteralsError):
        Literal(0, frozenset())


# -- exact counting -----------------------------------------------------------


def count_by_enumeration(space, literals):
    allowed = {}
    for lit in literals:
        allowed[lit.feature] = allowed.get(lit.feature, lit.allowed) & lit.allowed
    return sum(
        1
        for point in space.points()
        if all(point[f] in vals for f, vals in allowed.items())
    )


def test_point_count_cross_circle_path():
    tree = load_tree("cross_circle")
    path = tree.path("P2")  # y>0.73=N, x>0.64=Y
    expected = count_by_enumeration(tree.space, path.literals)
    assert expected == 1
    assert path_point_count(tree.space, path.literals) == 1
    assert tree.space.point_count() == 4


def test_point_count_empty_literal_set():
    tree = load_tree("or_tree")
    assert path_point_count(tree.space, []) == 4


def test_point_count_generalized_literal_play_tennis():
    tree = load_tree("play_tennis")
    lit = Literal(1, frozenset({1, 2}))  # Outlook in {rain, sunny}
    expected = count_by_enumeration(tree.space, [lit])
    assert expected == 8
    assert path_point_count(tree.space, [lit]) == 8
    assert tree.space.point_count() == 12


def test_point_count_inconsistent_literals():
    tree = load_tree("or_tree")
    pair = [Literal(0, frozenset({0})), Literal(0, frozenset({1}))]
    with pytest.raises(InconsistentLiteralsError):
        path_point_count(tree.space, pair)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_paths_partition_feature_space(name):
    tree = load_tree(name)
    total = sum(path_point_count(tree.space, p.literals) for p in tree.paths)
    assert total == tree.space.point_count()


@given(
    domains=st.lists(st.integers(2, 4), min_size=1, max_size=4),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60)
def test_point_count_matches_enumeration(domains, seed):
    import random

    space = FeatureSpace.from_pairs(
        (f"x{i}", [str(v) for v in range(size)]) for i, size in enumerate(domains)
    )
    rng = random.Random(seed)
    literals = [
        Literal(
            f.index,
            frozenset(rng.sample(range(len(f.domain)), rng.randint(1, len(f.domain)))),
        )
        for f in space.features
        if rng.random() < 0.6
    ]
    assert path_point_count(space, literals) == count_by_enumeration(space, literals)


# -- instances and round trips -------------------------------------------------


def test_parse_instance_json():
    tree = load_tree("or_tree")
    assert parse_instance_json(tree.space, '["0", "1"]') == (0, 1)
    with pytest.raises(InstanceError):
        parse_instance_json(tree.space, '["0"]')
    with pytest.raises(InstanceError):
        parse_instance_json(tree.space, '[0, 1]')
    with pytest.raises(InstanceError):
        parse_instance_json(tree.space, "not json")


def test_read_instances_csv(tmp_path):
    tree = load_tree("or_tree")
    csv_file = tmp_path / "rows.csv"
    csv_file.write_text("x2,x1\n1,0\n0,1\n", encoding="utf-8")
    rows = read_instances_csv(tree.space, str(csv_file))
    assert rows == [(0, 1), (1, 0)]
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,w\n0,1\n", encoding="utf-8")
    with pytest.raises(InstanceError):
        read_instances_csv(tree.space, str(bad))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_serialize_round_trip(name):
    tree = load_tree(name)
    text = serialize_tree(tree)
    again = parse_tree(text)
    assert again.classes == tree.classes
    assert [p.render() for p in again.paths] == [p.render() for p in tree.paths]
    assert serialize_tree(again) == text


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_tree_invariants(seed):
    from dtexplain import random_tree

    tree = random_tree(seed, max_features=4, max_domain=3, max_depth=4)
    total = sum(path_point_count(tree.space, p.literals) for p in tree.paths)
    assert total == tree.space.point_count()
    assert parse_tree(serialize_tree(tree)).node_count == tree.node_count
