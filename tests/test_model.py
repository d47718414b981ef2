"""Tree model: parsing, validation, classification, paths, counting."""

import ast
import copy
import io
import json
import os
import pathlib
import random
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_NAMES,
    comb_tree,
    fixture_path,
    literal_names,
    load_tree,
    or_chain_tree,
    path_steps,
)

import dtexplain
from dtexplain import (
    PATH_UNRESTRICTED,
    CycleError,
    DanglingChildError,
    EdgeCoverageError,
    EdgeOverlapError,
    FeatureSpace,
    InconsistentLiteralsError,
    InstanceError,
    Literal,
    NotATreeError,
    TreeFormatError,
    TreeSchemaError,
    TreeSyntaxError,
    UnknownClassError,
    UnknownFeatureError,
    UnknownValueError,
    UnreachableLeafError,
    UnsupportedLiteralError,
    classify,
    enumerate_pi_explanations,
    instance_literals,
    make_instance,
    one_pi_explanation_instance,
    parse_instance_json,
    parse_tree,
    path_point_count,
    read_instances_csv,
    serialize_tree,
)
from dtexplain.cli import run


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


def test_a_number_too_long_for_int_is_a_format_error():
    """CPython's decoder raises a plain ValueError for an integer over
    ``sys.get_int_max_str_digits()`` digits; a Python without that limit
    decodes it, and the schema rejects the document instead."""
    text = json.dumps(doc())
    with pytest.raises(TreeFormatError):
        parse_tree(text[:-1] + ', "x": ' + "9" * 5000 + "}")
    tree = parse(doc())
    with pytest.raises(InstanceError):
        parse_instance_json(tree.space, "[" + "1" * 5000 + "]")


def _rename_feature(obj, new):
    obj["features"][0]["name"] = new
    obj["nodes"]["n0"]["feature"] = new


def _rename_value(obj, new):
    obj["features"][1]["domain"][0] = new


def _rename_class(obj, new):
    obj["classes"][0] = new
    obj["nodes"]["t0"]["leaf"] = new


@pytest.mark.parametrize(
    "rename, what",
    [
        (_rename_feature, "feature #0: name"),
        (_rename_value, "feature #1: domain value"),
        (_rename_class, "class name"),
    ],
    ids=["feature", "value", "class"],
)
def test_a_name_that_does_not_encode_as_utf8_is_rejected(rename, what):
    """JSON can spell a lone surrogate, which no UTF-8 output can write."""
    bad = doc()
    rename(bad, "x\ud800")
    with pytest.raises(TreeSchemaError, match=f"^{what} .* does not encode as UTF-8"):
        parse(bad)
    fine = doc()
    rename(fine, "x\ud83d\ude00")  # a surrogate pair decodes to one character
    parse(fine)


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


# -- schema fuzzing -------------------------------------------------------------

_JUNK = (None, 7, 1.5, True, "0", "x1", [], {}, ["0"], {"leaf": "0"})
_KEYS = ("op", "threshold", "leaf", "feature", "edges", "values", "child", "extra")


def _slots(obj, out):
    """Every (container, key) slot below ``obj``, in document order."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        items = []
    for key, value in items:
        out.append((obj, key))
        _slots(value, out)
    return out


def _edit_structure(doc, choose):
    """One structural fault on a valid document, or none."""
    nodes, root = doc["nodes"], doc["root"]
    edges = [(nid, e) for nid, node in nodes.items() for e in node.get("edges", ())]
    parent = {e["child"]: nid for nid, e in edges}
    kind = choose(8)
    if kind in (1, 2, 3, 7) and not edges:
        return
    if kind in (1, 2, 3, 7):
        owner, edge = edges[choose(len(edges))]
    if kind == 1:  # an edge into the root
        edge["child"] = root
    elif kind == 2:  # an edge to an ancestor, or to its own node
        ancestors = [owner]
        while ancestors[-1] in parent:
            ancestors.append(parent[ancestors[-1]])
        edge["child"] = ancestors[choose(len(ancestors))]
    elif kind == 3:  # an edge to a node of another subtree
        others = sorted(set(nodes) - {edge["child"]})
        edge["child"] = others[choose(len(others))]
    elif kind == 4:  # a deleted node
        ids = sorted(nodes)
        del nodes[ids[choose(len(ids))]]
    elif kind == 5:  # an orphan
        nodes["orphan"] = {"leaf": doc["classes"][0]}
    elif kind == 6 and doc["features"]:  # a disconnected 2-cycle
        feat = doc["features"][0]
        for here, there in (("cyc1", "cyc2"), ("cyc2", "cyc1")):
            nodes[here] = {
                "feature": feat["name"],
                "edges": [{"values": list(feat["domain"]), "child": there}],
            }
    elif kind == 7:  # re-test the feature below the edge with no value left
        name = nodes[owner]["feature"]
        domain = next(f["domain"] for f in doc["features"] if f["name"] == name)
        rest = [v for v in domain if v not in edge["values"]]
        if rest:
            nodes["narrow"] = {
                "feature": name,
                "edges": [
                    {"values": rest, "child": edge["child"]},
                    {"values": list(edge["values"]), "child": "narrow_leaf"},
                ],
            }
            nodes["narrow_leaf"] = {"leaf": doc["classes"][0]}
            edge["child"] = "narrow"


def mutate(doc, choose):
    """Apply a structural fault and up to two schema edits to a fixture
    document; ``choose(n)`` picks an integer in ``range(n)``."""
    _edit_structure(doc, choose)
    for _ in range(choose(3)):
        slots = _slots(doc, [])
        kind = choose(3)
        if kind == 2 or not slots:  # add a key, ordinal ones included
            objects = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            target = objects[choose(len(objects))]
            target[_KEYS[choose(len(_KEYS))]] = copy.deepcopy(_JUNK[choose(len(_JUNK))])
            continue
        container, key = slots[choose(len(slots))]
        if kind == 0:  # swap a value's type
            container[key] = copy.deepcopy(_JUNK[choose(len(_JUNK))])
        else:  # drop a key or a list item
            del container[key]
    return doc


@given(name=st.sampled_from(FIXTURE_NAMES), data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_documents_fail_only_as_tree_format_errors(name, data):
    with open(fixture_path(name), encoding="utf-8") as handle:
        doc = json.load(handle)
    text = json.dumps(mutate(doc, lambda n: data.draw(st.integers(0, n - 1))))
    try:
        parse_tree(text)
    except TreeFormatError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run(["stats", "-t", path])
    assert code in (0, 2)


def _random_doc(rng, domains, n_classes, max_depth):
    """A valid document over features ``x0, x1, ...`` with the given domain
    sizes: multi-value edges, re-tested features, random leaf classes."""
    features = [
        {"name": f"x{f}", "domain": [f"v{v}" for v in range(size)]}
        for f, size in enumerate(domains)
    ]
    classes = [f"c{k}" for k in range(n_classes)]
    nodes = {}

    def build(depth, allowed):  # allowed: value indices left per feature
        node_id = f"n{len(nodes)}"
        nodes[node_id] = None  # reserves the id
        splittable = [f for f, values in enumerate(allowed) if len(values) > 1]
        if depth == max_depth or not splittable or rng.random() < 0.2:
            nodes[node_id] = {"leaf": rng.choice(classes)}
            return node_id
        f = rng.choice(splittable)
        # every cell keeps one value still allowed, so no leaf is unreachable
        anchors = rng.sample(allowed[f], rng.randint(2, min(5, len(allowed[f]))))
        cells = [[a] for a in anchors]
        for v in range(domains[f]):
            if v not in anchors:
                cells[rng.randrange(len(cells))].append(v)
        edges = []
        for cell in cells:
            narrowed = [v for v in allowed[f] if v in cell]
            child = build(depth + 1, allowed[:f] + [narrowed] + allowed[f + 1 :])
            edges.append({"values": [f"v{v}" for v in sorted(cell)], "child": child})
        nodes[node_id] = {"feature": f"x{f}", "edges": edges}
        return node_id

    build(0, [list(range(size)) for size in domains])
    return {"features": features, "classes": classes, "root": "n0", "nodes": nodes}


def _chain_doc(rng, depth):
    """A caterpillar over binary features: node ``k`` tests ``x<k>`` and
    leaves by one value, the last node by both."""
    nodes = {}
    for k in range(depth):
        stop, go = rng.sample(["0", "1"], 2)
        nxt = f"n{k + 1}" if k + 1 < depth else f"l{k + 1}"
        nodes[f"n{k}"] = {
            "feature": f"x{k}",
            "edges": [{"values": [stop], "child": f"l{k}"}, {"values": [go], "child": nxt}],
        }
        nodes[f"l{k}"] = {"leaf": rng.choice(["0", "1"])}
    nodes[f"l{depth}"] = {"leaf": rng.choice(["0", "1"])}
    return {
        "features": [{"name": f"x{k}", "domain": ["0", "1"]} for k in range(depth)],
        "classes": ["0", "1"],
        "root": "n0",
        "nodes": nodes,
    }


def _grown_doc(rng, n_features, n_nodes):
    """A document grown like a fitted tree: random frontier leaves split on
    a binary feature their branch has not tested, up to ``n_nodes`` nodes."""
    nodes, frontier, count = {}, [("n0", ())], 1
    while count < n_nodes:
        node_id, tested = frontier.pop(rng.randrange(len(frontier)))
        f = rng.choice([f for f in range(n_features) if f not in tested])
        edges = []
        for value in ("0", "1"):
            frontier.append((f"n{count}", tested + (f,)))
            edges.append({"values": [value], "child": f"n{count}"})
            count += 1
        nodes[node_id] = {"feature": f"x{f}", "edges": edges}
    for node_id, _ in frontier:
        nodes[node_id] = {"leaf": rng.choice(["0", "1"])}
    return {
        "features": [{"name": f"x{f}", "domain": ["0", "1"]} for f in range(n_features)],
        "classes": ["0", "1"],
        "root": "n0",
        "nodes": nodes,
    }


def test_parse_peak_stays_near_what_the_tree_retains():
    """``parse_tree`` frees each node's decoded JSON once it has read it,
    so the document is gone before the tree is lowered: parsing peaks at
    the decoded document's own size plus at most a fifth of what the tree
    retains (plus about all of it with the whole document held)."""
    text = json.dumps(_grown_doc(random.Random(7), 40, 3000))
    tracemalloc.start()
    try:
        doc = json.loads(text)
        document = tracemalloc.get_traced_memory()[0]
        del doc
        tracemalloc.reset_peak()
        tree = parse_tree(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.node_count == 3001
    assert peak <= document + retained / 5


_SHAPES = {
    # masks wider than 64 bits
    "huge_domain": lambda rng: _random_doc(rng, [240, 3, 2], 2, 4),
    "many_classes": lambda rng: _random_doc(rng, [4, 3, 3, 2], 12, 5),
    "deep_chain": lambda rng: _chain_doc(rng, 1600),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@given(seed=st.integers(0, 2**32), data=st.data())
@settings(max_examples=25, deadline=None)
def test_mutated_large_documents_fail_only_as_tree_format_errors(shape, seed, data):
    """The schema fuzzer on generated documents with huge domains, many
    classes or deep chains; a tree that parses and fits the oracle's
    budget answers entailment and instance extraction as the oracle does."""
    from dtexplain import (
        BruteForceOracle,
        OracleBudget,
        entails,
        instance_literals,
        one_pi_explanation_instance,
    )

    rng = random.Random(seed)
    doc = _SHAPES[shape](rng)
    point = json.dumps([rng.choice(f["domain"]) for f in doc["features"]])
    text = json.dumps(mutate(doc, lambda n: data.draw(st.integers(0, n - 1))))
    try:
        tree = parse_tree(text)
    except TreeFormatError:
        tree = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run(["explain", "-t", path, "-i", point])
    assert 0 <= code <= 4
    if tree is None or tree.space.point_count() > OracleBudget().max_points:
        return
    oracle = BruteForceOracle(tree)
    instance = tuple(rng.randrange(len(f.domain)) for f in tree.space.features)
    target, _ = classify(tree, instance)
    equality = instance_literals(tree.space, instance)
    for skip in range(-1, len(equality)):  # -1 keeps the full set
        subset = [lit for i, lit in enumerate(equality) if i != skip]
        assert entails(tree, subset, target) == oracle.entails(subset, target)
    found = one_pi_explanation_instance(tree, instance).literals
    assert oracle.entails(found, target)
    assert not any(oracle.entails(found - {lit}, target) for lit in found)


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


@pytest.mark.parametrize(
    "point, message",
    [
        ((0,), "expected 3 values, got 1"),
        ((0, 0, 7), "value index 7 out of range for feature 'Wind'"),
        ((0, -1, 0), "value index -1 out of range for feature 'Outlook'"),
        ((0, "sunny", 0), "value index 'sunny' out of range for feature 'Outlook'"),
    ],
    ids=["one-value", "past-the-domain", "negative", "not-an-index"],
)
def test_instance_literals_rejects_bad_points(point, message):
    """A point of the wrong length or with a value index outside its
    feature's domain gets no literals, as classify gets no leaf."""
    tree = load_tree("play_tennis")
    with pytest.raises(InstanceError, match=message):
        instance_literals(tree.space, point)
    with pytest.raises(InstanceError, match=message):
        classify(tree, point)


def test_an_instance_query_checks_the_point_once(monkeypatch):
    """Extraction and unrestricted enumeration check an instance in
    ``classify`` and build its literals unchecked, yet still refuse bad
    points."""
    tree = load_tree("play_tennis")
    checks = []
    check = dtexplain.model._check_point

    def counted(space, point):
        checks.append(point)
        check(space, point)

    monkeypatch.setattr(dtexplain.model, "_check_point", counted)
    queries = (
        lambda point: one_pi_explanation_instance(tree, point),
        lambda point: enumerate_pi_explanations(tree, point, PATH_UNRESTRICTED),
    )
    for query in queries:
        checks.clear()
        query((1, 2, 0))
        assert checks == [(1, 2, 0)]
        for point in [(0,), (0, 0, 7), (0, -1, 0)]:
            with pytest.raises(InstanceError):
                query(point)


def test_make_instance_rejects_a_fractional_index():
    tree = load_tree("play_tennis")
    assert make_instance(tree.space, [1, "sunny", 0]) == (1, 2, 0)
    with pytest.raises(InstanceError, match="value index 1.5 out of range"):
        make_instance(tree.space, [0, 1.5, 0])


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


@pytest.mark.parametrize("source", ["fixtures", "random_tree(0..49)"])
def test_classify_matches_the_oracle_walker(source):
    """The lowered classify and the oracle's walk over ``tree.nodes`` send
    every point of the space to the same leaf."""
    from dtexplain import BruteForceOracle, random_tree

    if source == "fixtures":
        trees = [load_tree(name) for name in FIXTURE_NAMES]
    else:
        trees = [random_tree(seed) for seed in range(50)]
    for tree in trees:
        oracle = BruteForceOracle(tree)
        for point in tree.space.points():
            class_id, path = classify(tree, point)
            leaf_id = oracle._walk(point)
            assert path.leaf_id == leaf_id
            assert class_id == tree.nodes[leaf_id].class_id


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
    assert [p.path_id for p in tree.paths if p.prediction == 1] == ["P1", "P2", "P3"]
    assert [p.path_id for p in tree.paths if p.prediction == 0] == [
        "Q1", "Q2", "Q3", "Q4"
    ]
    assert [p.path_id for p in tree.paths if p.prediction != 1] == [
        "Q1", "Q2", "Q3", "Q4"
    ]


def test_repeated_feature_aggregates_by_intersection():
    tree = load_tree("repeat_feature")
    p1 = tree.path("P1")
    assert literal_names(tree, p1.literals) == {"x1=a"}
    # both tests of x1, deepest first; the deeper one is entered with x1
    # already narrowed to {a, b} (mask 0b11), the shallower with no mask
    ids, above = tree._ids, tree._above
    steps = [(ids[n], ids[c], above[n]) for n, c in path_steps(tree, p1.leaf)]
    assert steps == [("n1", "t2", 0b11), ("n0", "n1", 0)]
    assert [tree.nodes[n].feature for n, _, _ in steps] == [0, 0]
    q1 = tree.path("Q1")
    assert literal_names(tree, q1.literals) == {"x1=b"}


@pytest.mark.parametrize("source", ["fixtures", "random_tree(0..199)"])
def test_subtree_summaries_match_a_walk_of_the_node_dict(source):
    """``_below`` and ``_classes`` hold, per node number, the features
    tested and the leaf classes found by walking ``tree.nodes`` from it."""
    from dtexplain import Leaf, random_tree

    if source == "fixtures":
        trees = [load_tree(name) for name in FIXTURE_NAMES]
    else:
        trees = [random_tree(seed) for seed in range(200)]
    for tree in trees:
        assert len(tree._below) == len(tree._classes) == tree.node_count
        for i, node_id in enumerate(tree._ids):
            features, classes, todo = set(), set(), [node_id]
            while todo:
                node = tree.nodes[todo.pop()]
                if isinstance(node, Leaf):
                    classes.add(node.class_id)
                else:
                    features.add(node.feature)
                    todo.extend(edge.child for edge in node.edges)
            assert tree._below[i] == sum(1 << f for f in features)
            assert tree._classes[i] == sum(1 << c for c in classes)


@pytest.mark.parametrize("source", ["fixtures", "random_tree(0..199)", "chains"])
def test_node_layout_matches_a_preorder_walk_of_the_node_dict(source):
    """Node numbers follow the preorder walk of ``tree.nodes`` from the
    root, edges in declaration order; ``_end[i] - i`` is the size of node
    ``i``'s subtree, ``_parent`` its parent, and ``_edge[i]`` the mask of
    the edge into ``i`` met with the values that reach the parent on the
    parent's feature (-1 at the root)."""
    from dtexplain import Leaf, random_tree

    if source == "fixtures":
        trees = [load_tree(name) for name in FIXTURE_NAMES]
    elif source == "chains":
        trees = [or_chain_tree(d) for d in (1, 2, 40)] + [comb_tree(n) for n in (1, 30)]
    else:
        trees = [random_tree(seed) for seed in range(200)]
    for tree in trees:
        ids, parents, edges, sizes = [], [], [], {}
        # (node id, parent number, edge mask met with the parent's reach,
        # each feature's values on the edges from the root)
        todo = [(tree.root, -1, -1, tree._full)]
        while todo:
            node_id, parent, edge, reach = todo.pop()
            i = len(ids)
            ids.append(node_id)
            parents.append(parent)
            edges.append(edge)
            node = tree.nodes[node_id]
            sizes[node_id] = 1
            if isinstance(node, Leaf):
                continue
            f = node.feature
            for e in reversed(node.edges):
                mask = sum(1 << v for v in e.values) & reach[f]
                below = reach[:f] + [mask] + reach[f + 1 :]
                todo.append((e.child, i, mask, below))
        for node_id in reversed(ids):
            node = tree.nodes[node_id]
            if not isinstance(node, Leaf):
                sizes[node_id] += sum(sizes[e.child] for e in node.edges)
        assert tree._ids == ids
        assert tree._parent == parents
        assert tree._edge == edges
        assert [end - i for i, end in enumerate(tree._end)] == [
            sizes[node_id] for node_id in ids
        ]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_operation_reads_a_finished_tree(name):
    """Every per-node list exists once the tree is built: classifying,
    reporting, extracting, enumerating and checking add no attribute to
    the tree, replace none and change no list's contents."""
    from dtexplain import (
        PATH_RESTRICTED,
        check_tree,
        entails,
        one_pi_explanation_path,
        tree_report,
    )

    def contents(attrs):
        """Copies of the list attributes and of the lists in ``_preorder``."""
        lists = [value for value in attrs.values() if isinstance(value, list)]
        return [value[:] for value in lists + list(attrs.get("_preorder", ()))]

    tree = load_tree(name)
    before = dict(vars(tree))
    copies = contents(before)
    point = next(tree.space.points())
    path = classify(tree, point)[1]
    tree_report(tree)
    one_pi_explanation_path(tree, path)
    one_pi_explanation_instance(tree, point)
    enumerate_pi_explanations(tree, path, PATH_RESTRICTED)
    enumerate_pi_explanations(tree, point, PATH_UNRESTRICTED)
    entails(tree, path.literals, path.prediction)
    check_tree(tree, random.Random(0), n_instances=5)
    after = vars(tree)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert contents(after) == copies


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
            amap = {lit.feature: lit.allowed for lit in a.literals}
            bmap = {lit.feature: lit.allowed for lit in b.literals}
            assert any(
                not (amap[f] & bmap[f]) for f in set(amap) & set(bmap)
            ), f"{a.path_id} and {b.path_id} are consistent"


# -- literals -----------------------------------------------------------------


def test_literal_needs_values():
    for mask in (0, -1):
        with pytest.raises(InconsistentLiteralsError):
            Literal(0, mask)


def test_literal_takes_an_int_mask_not_a_value_set():
    with pytest.raises(TypeError, match="int value mask"):
        Literal(0, frozenset({1}))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_literal_mask_is_its_allowed_set(name):
    """Each path literal allows exactly the values common to the edges the
    path takes on its feature, read off ``tree.nodes``."""
    tree = load_tree(name)
    for path in tree.paths:
        expected = {}
        for node, child in path_steps(tree, path.leaf):
            split = tree.nodes[tree._ids[node]]
            (values,) = [
                e.values for e in split.edges if e.child == tree._ids[child]
            ]
            expected[split.feature] = expected.get(split.feature, values) & values
        assert {lit.feature: lit.allowed for lit in path.literals} == expected


def test_literal_is_its_feature_and_mask():
    a, b = Literal(1, 0b101), Literal(1, 0b101)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Literal(1, 0b1) and a != Literal(0, 0b101)
    assert a.allowed == frozenset({0, 2})
    assert repr(a) == "Literal(feature=1, mask=5)"


def test_equal_points_share_their_literals():
    tree = load_tree("play_tennis")
    first = instance_literals(tree.space, (1, 2, 0))
    again = instance_literals(tree.space, tuple([1, 2, 0]))
    assert all(a is b for a, b in zip(first, again))
    assert [lit.mask for lit in first] == [0b10, 0b100, 0b1]


def test_masks_are_built_only_in_the_model():
    """A literal carries its value mask, so ``_mask`` is called in model.py
    alone and no other module imports it."""
    package = pathlib.Path(dtexplain.__file__).parent
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                assert "_mask" not in names, f"{module.name} imports _mask"
            elif isinstance(node, ast.Call) and module.name != "model.py":
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                assert name != "_mask", f"{module.name} calls _mask"


def test_points_become_literals_only_in_the_model_and_the_source():
    """Outside model.py, ``_point_literals`` is called once, in
    ``explain._source``, which resolves every explanation's source."""
    package = pathlib.Path(dtexplain.__file__).parent

    def calls(node):
        return sum(
            isinstance(n, ast.Call) and ast.unparse(n.func).endswith("_point_literals")
            for n in ast.walk(node)
        )

    for module in sorted(package.glob("*.py")):
        if module.name == "model.py":
            continue
        tree = ast.parse(module.read_text(), str(module))
        source = [
            f for f in tree.body
            if isinstance(f, ast.FunctionDef) and f.name == "_source"
        ]
        want = 1 if module.name == "explain.py" else 0
        assert calls(tree) == want == sum(map(calls, source)), module.name


def test_literals_store_only_their_mask():
    """A literal stores ``(feature, mask)``; only model.py reads the
    derived value set, and model.py sets no attribute behind a frozen
    dataclass's back."""
    assert Literal.__slots__ == ("feature", "mask")
    package = pathlib.Path(dtexplain.__file__).parent
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Attribute) and node.attr == "allowed":
                assert module.name == "model.py", (
                    f"{module.name} reads .allowed"
                )
            if module.name == "model.py" and isinstance(node, ast.Call):
                assert ast.unparse(node.func) != "object.__setattr__"


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
    lit = Literal(1, 0b110)  # Outlook in {rain, sunny}
    expected = count_by_enumeration(tree.space, [lit])
    assert expected == 8
    assert path_point_count(tree.space, [lit]) == 8
    assert tree.space.point_count() == 12


def test_point_count_inconsistent_literals():
    tree = load_tree("or_tree")
    pair = [Literal(0, 0b1), Literal(0, 0b10)]
    with pytest.raises(InconsistentLiteralsError):
        path_point_count(tree.space, pair)


def test_point_count_names_the_lowest_inconsistent_feature():
    """With two features left with no value, the error names the one of
    lower index, whatever the literals' order."""
    tree = load_tree("or_tree")
    clash = [Literal(1, 0b1), Literal(1, 0b10), Literal(0, 0b10), Literal(0, 0b1)]
    for literals in (clash, clash[::-1]):
        with pytest.raises(InconsistentLiteralsError, match="'x1'"):
            path_point_count(tree.space, literals)


def test_point_count_repeated_features_match_enumeration():
    tree = load_tree("play_tennis")
    literals = [Literal(1, 0b110), Literal(1, 0b011), Literal(0, 0b11)]
    expected = count_by_enumeration(tree.space, literals)
    assert path_point_count(tree.space, literals) == expected == 4


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
            sum(1 << v for v in rng.sample(range(size), rng.randint(1, size))),
        )
        for f, size in zip(space.features, domains)
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


def test_read_instances_csv_skips_blank_lines_and_a_byte_order_mark(tmp_path):
    tree = load_tree("or_tree")
    csv_file = tmp_path / "rows.csv"
    csv_file.write_text("\ufeffx2,x1\n\n1,0\r\n\n0,1\n\n", encoding="utf-8")
    assert read_instances_csv(tree.space, str(csv_file)) == [(0, 1), (1, 0)]
    csv_file.write_bytes(b"\xef\xbb\xbf\nx1,x2\n\n0,1\n")
    assert read_instances_csv(tree.space, str(csv_file)) == [(0, 1)]


def test_read_instances_csv_counts_blank_lines_in_error_lines(tmp_path):
    tree = load_tree("or_tree")
    csv_file = tmp_path / "rows.csv"
    csv_file.write_text("x1,x2\n\n0,1\n\n\n1\n", encoding="utf-8")
    with pytest.raises(InstanceError, match=r"rows\.csv:6: wrong number of columns"):
        read_instances_csv(tree.space, str(csv_file))
    csv_file.write_text("x2,x1\n\n1,0\n\nzz,0\n", encoding="utf-8")
    with pytest.raises(UnknownValueError, match=r"rows\.csv:5: feature 'x2' has no"):
        read_instances_csv(tree.space, str(csv_file))
    csv_file.write_bytes(b"\xef\xbb\xbfx1,x2\n\n0,1\n\xff\n")
    with pytest.raises(InstanceError, match=r"rows\.csv:4: not UTF-8"):
        read_instances_csv(tree.space, str(csv_file))
    csv_file.write_text("\n\n", encoding="utf-8")
    with pytest.raises(InstanceError, match="empty CSV file"):
        read_instances_csv(tree.space, str(csv_file))


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
