"""Redundancy decision, extraction, entailment."""

import json

import pytest

from conftest import FIXTURE_NAMES, literal_names, load_tree

from dtexplain import (
    Literal,
    PathMismatchError,
    RedundancyResult,
    bf_entails,
    bf_is_redundant,
    classify,
    entails,
    is_path_redundant,
    one_pi_explanation_instance,
    one_pi_explanation_path,
    parse_tree_file,
)
from dtexplain.cli import run
from dtexplain.explain import _contrary_leaf


def lits(tree, *pairs):
    return [
        Literal(tree.space.feature_by_name(name).index, frozenset({value}))
        for name, value in pairs
    ]


def allowed_map(literals):
    return {lit.feature: lit.allowed for lit in literals}


# -- contrary-leaf lookup -------------------------------------------------------


def test_chk_down_finds_contrary_leaf_when_x4_free():
    tree = load_tree("or_of_ands")
    kept = lits(tree, ("x1", 1), ("x2", 0), ("x3", 1))
    # entry at the sibling edge of P2's x4 test: the x4=0 leaf
    assert _contrary_leaf(tree, "l5", 1, allowed_map(kept)) == (True, 1)
    # from the root, P2 with x4 free reaches that leaf too
    assert not entails(tree, kept, 1)


def test_chk_down_blocked_when_x2_free():
    tree = load_tree("or_of_ands")
    kept = lits(tree, ("x1", 1), ("x3", 1), ("x4", 1))
    # entry at the sibling edge of P2's x2 test: the x2=1 leaf (same class)
    assert _contrary_leaf(tree, "l7", 1, allowed_map(kept)) == (False, 1)
    # from the root, P2 with x2 free still forces class 1
    assert entails(tree, kept, 1)


# -- redundancy decision --------------------------------------------------------


def test_p2_redundant_with_witness_x2():
    tree = load_tree("or_of_ands")
    verdict = is_path_redundant(tree, tree.path("P2"))
    assert verdict.redundant
    assert tree.space.feature(verdict.witness).name == "x2"


def test_p3_irredundant():
    tree = load_tree("or_of_ands")
    verdict = is_path_redundant(tree, tree.path("P3"))
    assert not verdict.redundant
    assert verdict.witness is None


def test_restaurant_named_paths():
    tree = load_tree("restaurant")
    by_lits = {literal_names(tree, p.literals): p for p in tree.paths}
    redundant = by_lits[
        frozenset({"Patrons=Full", "Hungry=Yes", "Type=Italian"})
    ]
    assert is_path_redundant(tree, redundant).redundant
    irredundant = by_lits[frozenset({"Patrons=None"})]
    assert not is_path_redundant(tree, irredundant).redundant


def test_single_literal_paths_irredundant():
    tree = load_tree("or_tree")
    assert not is_path_redundant(tree, tree.path("P2")).redundant


def test_repeated_feature_paths_match_oracle():
    tree = load_tree("repeat_feature")
    for path in tree.paths:
        verdict = is_path_redundant(tree, path)
        assert verdict.redundant == bf_is_redundant(tree, path)


def test_path_from_other_tree_rejected():
    a = load_tree("or_tree")
    b = load_tree("cross_circle")
    with pytest.raises(PathMismatchError):
        is_path_redundant(a, b.path("P1"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_visit_bound(name):
    tree = load_tree(name)
    for path in tree.paths:
        verdict = is_path_redundant(tree, path)
        assert verdict.node_visits <= tree.node_count + path.depth


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_redundancy_equals_strict_shrinkage(name):
    tree = load_tree(name)
    for path in tree.paths:
        verdict = is_path_redundant(tree, path)
        explanation = one_pi_explanation_path(tree, path)
        assert verdict.redundant == (
            len(explanation.literals) < len(path.literals)
        )


# -- extraction, path-restricted -------------------------------------------------


def test_extract_p2():
    tree = load_tree("or_of_ands")
    explanation = one_pi_explanation_path(tree, tree.path("P2"))
    assert literal_names(tree, explanation.literals) == {"x3=1", "x4=1"}
    assert explanation.mode == "path-restricted"
    assert explanation.source == "P2"


def test_extract_cross_circle():
    tree = load_tree("cross_circle")
    explanation = one_pi_explanation_path(tree, tree.path("P2"))
    assert literal_names(tree, explanation.literals) == {"x>0.64=Y"}


def test_extract_play_tennis():
    tree = load_tree("play_tennis")
    explanation = one_pi_explanation_path(tree, tree.path("P1"))
    assert literal_names(tree, explanation.literals) == {"Outlook=overcast"}


def test_extract_irredundant_path_returns_itself():
    tree = load_tree("or_of_ands")
    p3 = tree.path("P3")
    explanation = one_pi_explanation_path(tree, p3)
    assert explanation.literals == p3.literal_set()


# -- extraction, instance-level ---------------------------------------------------


def test_extract_instance_selector():
    tree = load_tree("selector")
    explanation = one_pi_explanation_instance(tree, (1, 1, 1, 1))
    assert literal_names(tree, explanation.literals) == {"x1=1", "x3=1"}
    assert explanation.mode == "path-unrestricted"
    assert explanation.source == (1, 1, 1, 1)


def test_extract_instance_or_tree():
    tree = load_tree("or_tree")
    explanation = one_pi_explanation_instance(tree, (0, 1))
    assert literal_names(tree, explanation.literals) == {"x2=1"}


def test_extract_instance_constant_tree():
    tree = load_tree("constant")
    explanation = one_pi_explanation_instance(tree, (0,))
    assert explanation.literals == frozenset()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_extractions_minimal_and_contained(name):
    tree = load_tree(name)
    for path in tree.paths:
        explanation = one_pi_explanation_path(tree, path)
        assert explanation.literals <= path.literal_set()
        assert entails(tree, explanation.literals, path.prediction)
        assert bf_entails(tree, explanation.literals, path.prediction)
        for lit in explanation.literals:
            rest = explanation.literals - {lit}
            assert not entails(tree, rest, path.prediction)
            assert not bf_entails(tree, rest, path.prediction)


# -- entailment -------------------------------------------------------------------


def test_entails_pair_forces_class_one():
    tree = load_tree("or_of_ands")
    assert entails(tree, lits(tree, ("x3", 1), ("x4", 1)), 1)


def test_entails_x3_alone_fails():
    tree = load_tree("or_of_ands")
    class_id, _ = classify(tree, (0, 0, 1, 0))  # completion breaking {x3=1}
    assert tree.classes[class_id] == "0"
    assert not entails(tree, lits(tree, ("x3", 1)), 1)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_full_path_literals_entail(name):
    tree = load_tree(name)
    for path in tree.paths:
        assert entails(tree, path.literals, path.prediction)


def test_empty_literal_set_entails_only_constant():
    assert not entails(load_tree("or_tree"), [], 1)
    assert entails(load_tree("constant"), [], 0)


def test_entails_rejects_duplicate_feature():
    tree = load_tree("or_tree")
    with pytest.raises(ValueError):
        entails(tree, lits(tree, ("x1", 0), ("x1", 1)), 1)


# -- deep trees ---------------------------------------------------------------------

CHAIN_DEPTH = 1100  # deeper than CPython's default recursion limit of 1000


@pytest.fixture(scope="module")
def or_chain(tmp_path_factory):
    """The OR-chain x1 or ... or x1100 over binary features, as a file and
    parsed: node k tests x_k; value 1 leads to a class-1 leaf and value 0
    to the next test, the last of which leads to the only class-0 leaf."""
    nodes = {}
    for k in range(1, CHAIN_DEPTH + 1):
        nodes[f"c{k}"] = {
            "feature": f"x{k}",
            "edges": [
                {"values": ["0"], "child": f"c{k + 1}" if k < CHAIN_DEPTH else "none"},
                {"values": ["1"], "child": f"hit{k}"},
            ],
        }
        nodes[f"hit{k}"] = {"leaf": "1"}
    nodes["none"] = {"leaf": "0"}
    doc = {
        "features": [
            {"name": f"x{k}", "domain": ["0", "1"]} for k in range(1, CHAIN_DEPTH + 1)
        ],
        "classes": ["0", "1"],
        "root": "c1",
        "nodes": nodes,
    }
    path = tmp_path_factory.mktemp("deep") / "or_chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), parse_tree_file(str(path))


def test_deep_chain_explain_instance_through_cli(or_chain, capsys):
    path, _ = or_chain
    code = run(["explain", "-t", path, "-i", json.dumps(["0"] * CHAIN_DEPTH)])
    out = capsys.readouterr().out
    assert code == 0
    # every x_k=0 is needed: freeing x_k opens the class-1 leaf below it
    assert out == "{" + ", ".join(f"x{k}=0" for k in range(1, CHAIN_DEPTH + 1)) + "}\n"


def test_deep_chain_redundancy_searches_the_whole_chain(or_chain):
    _, tree = or_chain
    shallowest = min(tree.paths_for_class(1), key=lambda p: p.depth)
    assert literal_names(tree, shallowest.literals) == {"x1=1"}
    verdict = is_path_redundant(tree, shallowest)
    # with x1 free, the search descends all 1099 tests below to the class-0 leaf
    assert verdict == RedundancyResult(False, None, 1 + (CHAIN_DEPTH - 1) + 1)
