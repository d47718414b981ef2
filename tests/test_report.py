"""Tree-level redundancy statistics."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    fixture_path,
    literal_names,
    load_tree,
    or_chain_tree,
    or_of_ands_tree,
)

from dtexplain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    DecisionTree,
    Edge,
    FeatureSpace,
    Leaf,
    Split,
    batch_report,
    enumerate_pi_explanations,
    instance_literals,
    one_pi_explanation_instance,
    render_table,
    tree_report,
)
from dtexplain.report import TABLE_COLUMNS, aggregate_means, display_pct


def test_cross_circle_report():
    tree = load_tree("cross_circle")
    report = tree_report(tree, "cross_circle")
    assert report.path_count == 3
    assert report.redundant_count == 1
    assert report.pct_redundant == Fraction(100, 3)
    assert display_pct(report.pct_redundant) == 33
    redundant = [d for d in report.details if d.verdict.redundant]
    assert len(redundant) == 1 and redundant[0].path.path_id == "P2"
    path = tree.path("P2")
    assert literal_names(tree, path.literals) == {"y>0.73=N", "x>0.64=Y"}
    assert report.pct_coverage == Fraction(25)
    assert report.literal_pct_min == report.literal_pct_max == Fraction(50)
    assert report.literal_pct_mean == Fraction(50)


@pytest.mark.parametrize("d", [10, 50, 100])
def test_or_chain_report_closed_forms(d):
    """On x1 or ... or x<d>, the class-1 path ending at x<k> holds k
    literals and x<k>=1 alone explains it, so k - 1 of them are redundant;
    the class-0 path needs all d of its literals."""
    report = tree_report(or_chain_tree(d), f"or_chain-{d}")
    harmonic = sum(Fraction(1, k) for k in range(1, d + 1))
    assert report.path_count == d + 1
    assert report.pct_redundant == Fraction(100 * (d - 1), d + 1)
    assert report.literal_pct_min == 50
    assert report.literal_pct_max == Fraction(100 * (d - 1), d)
    assert report.literal_pct_mean == 100 * (1 - (harmonic - 1) / (d - 1))
    for detail in report.details:
        size = len(detail.explanation.literals)
        if detail.path.class_name() == "1":
            assert size == 1
        else:
            assert not detail.verdict.redundant
            assert size == len(detail.path.literals) == d


def parity_tree(k: int) -> DecisionTree:
    """The complete tree over binary x1..x<k> whose leaves predict the
    parity of their ones; node n<bits> has taken the edges ``bits``."""
    space = FeatureSpace.from_pairs((f"x{i + 1}", ("0", "1")) for i in range(k))
    nodes = {}
    for depth in range(k + 1):
        for ones in range(1 << depth):
            bits = format(ones, f"0{depth}b") if depth else ""
            if depth == k:
                nodes[f"n{bits}"] = Leaf(bits.count("1") % 2)
            else:
                edges = [Edge(frozenset({v}), f"n{bits}{v}") for v in (0, 1)]
                nodes[f"n{bits}"] = Split(depth, tuple(edges))
    return DecisionTree(space, ("0", "1"), "n", nodes)


@pytest.mark.parametrize("k", [4, 9, 12])
def test_parity_report_closed_forms(k):
    """On k-parity every literal of every path is needed: flipping any one
    feature flips the class.  So no path is redundant, each path's one
    PI-explanation and its only one is the path itself, and an instance
    keeps all k of its equality literals."""
    tree = parity_tree(k)
    assert tree.node_count == 2 ** (k + 1) - 1
    report = tree_report(tree, f"parity-{k}")
    assert report.path_count == 2**k
    assert report.redundant_count == 0
    assert report.pct_redundant == report.pct_coverage == 0
    assert report.literal_pct_min is None
    assert report.literal_pct_max is None
    assert report.literal_pct_mean is None
    for detail in report.details:
        assert len(detail.explanation.literals) == len(detail.path.literals) == k
        assert detail.point_count == 1
    rng = random.Random(k)
    paths = tree.paths if k < 12 else rng.sample(tree.paths, 64)
    for path in paths:
        found = enumerate_pi_explanations(tree, path, PATH_RESTRICTED)
        assert [e.literals for e in found] == [path.literal_set()]
    for _ in range(64):
        point = tuple(rng.randrange(2) for _ in range(k))
        explanation = one_pi_explanation_instance(tree, point)
        assert explanation.literals == frozenset(instance_literals(tree.space, point))
        assert explanation.target == sum(point) % 2


@pytest.mark.parametrize("k, m", [(3, 2), (4, 3), (6, 2), (5, 3), (9, 2), (11, 2)])
def test_or_of_ands_report_closed_forms(k, m):
    """On k terms of m binary features, each made again below every 0 of
    the terms before it: a class-1 path needs only the m ones of the term
    it ends in, and a class-0 path only its first 0 in each term.  So only
    the path through the first term's ones and the path through each
    term's first 0 are irredundant.  An instance's PI-explanations are its
    all-ones terms, or one 0 from every term."""
    tree = or_of_ands_tree(k, m)
    nodes = 1
    for _ in range(k):
        nodes = m + m * nodes + 1
    assert tree.node_count == nodes
    report = tree_report(tree, f"or_of_ands-{k}x{m}")
    classes = Counter(detail.path.class_name() for detail in report.details)
    assert classes == {"1": sum(m**j for j in range(k)), "0": m**k}
    for detail in report.details:
        size = len(detail.explanation.literals)
        assert size == (m if detail.path.class_name() == "1" else k)
    assert report.redundant_count == report.path_count - 2
    rng = random.Random(k * m)
    seen = set()
    for n in range(8):
        point = [rng.randrange(2) for _ in range(k * m)]
        if n % 2:  # a 0 in every term: class 0
            for i in range(k):
                point[i * m + rng.randrange(m)] = 0
        terms = [
            [f"a{i + 1}_{j + 1}={point[i * m + j]}" for j in range(m)] for i in range(k)
        ]
        zeros = [[name for name in term if name.endswith("=0")] for term in terms]
        ones = [frozenset(term) for term, zero in zip(terms, zeros) if not zero]
        seen.add(bool(ones))
        found = enumerate_pi_explanations(tree, tuple(point), PATH_UNRESTRICTED)
        assert {e.target for e in found} == {int(bool(ones))}
        names = {literal_names(tree, e.literals) for e in found}
        assert len(found) == (len(ones) or math.prod(map(len, zeros)))
        assert names == (set(ones) or set(map(frozenset, itertools.product(*zeros))))
    assert seen == {True, False}


def test_restaurant_report():
    report = tree_report(load_tree("restaurant"), "restaurant")
    assert report.path_count == 8
    assert report.redundant_count == 2
    assert display_pct(report.pct_redundant) == 25


def test_articles_report():
    report = tree_report(load_tree("articles"), "articles")
    assert report.path_count == 4
    assert report.redundant_count == 2
    assert display_pct(report.pct_redundant) == 50


def test_display_truncates_toward_zero():
    assert display_pct(Fraction(100, 3)) == 33
    assert display_pct(Fraction(200, 3)) == 66
    assert display_pct(Fraction(50, 3)) == 16


def test_report_is_recomputable_and_exact():
    tree = load_tree("or_of_ands")
    report = tree_report(tree, "t")
    redundant = [d for d in report.details if d.verdict.redundant]
    assert report.pct_redundant == Fraction(
        100 * len(redundant), report.path_count
    )
    assert sum(d.point_count for d in report.details) == report.point_total
    covered = sum(d.point_count for d in redundant)
    assert report.pct_coverage == Fraction(100 * covered, report.point_total)
    for d in redundant:
        assert d.redundant_literal_pct > 0
        assert len(d.explanation.literals) < len(d.path.literals)
    for d in report.details:
        if not d.verdict.redundant:
            assert d.redundant_literal_pct is None
            assert d.explanation.literals == d.path.literal_set()


def test_no_redundant_paths_reports_absent_stats():
    report = tree_report(load_tree("repeat_feature"), "repeat_feature")
    assert report.redundant_count == 0
    assert report.literal_pct_min is None
    assert report.literal_pct_max is None
    assert report.literal_pct_mean is None
    table = render_table([report])
    assert "—" in table


def test_batch_report_rows_in_input_order():
    files = [
        fixture_path("cross_circle"),
        fixture_path("articles"),
        fixture_path("restaurant"),
    ]
    reports, errors = batch_report(files)
    assert errors == []
    assert [display_pct(r.pct_redundant) for r in reports] == [33, 50, 25]


def test_batch_report_empty():
    assert batch_report([]) == ([], [])


def test_batch_report_survives_a_bad_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{", encoding="utf-8")
    files = [fixture_path("cross_circle"), str(bad), fixture_path("articles")]
    reports, errors = batch_report(files)
    assert [display_pct(r.pct_redundant) for r in reports] == [33, 50]
    assert len(errors) == 1 and errors[0][0] == str(bad)


def test_table_mirrors_expected_columns():
    reports, _ = batch_report([fixture_path("cross_circle")])
    table = render_table(reports)
    header = table.splitlines()[0].split()
    assert header == list(TABLE_COLUMNS)
    assert TABLE_COLUMNS == ("Tree", "D", "#N", "#P", "%R", "%C", "%m", "%M", "%avg")


def test_json_payload_keeps_exact_rationals():
    report = tree_report(load_tree("cross_circle"), "cross_circle")
    obj = report.to_obj()
    assert obj["pct_redundant"] == {"display": 33, "exact": "100/3"}
    assert obj["pct_coverage"] == {"display": 25, "exact": "25"}
    json.dumps(obj)  # payload is JSON-serializable


def test_aggregate_means():
    reports, _ = batch_report(
        [fixture_path("cross_circle"), fixture_path("articles")]
    )
    agg = aggregate_means(reports)
    # mean of 100/3 and 50
    assert agg["pct_redundant"]["exact"] == str(Fraction(Fraction(100, 3) + 50, 2))
    assert aggregate_means([]) is None


def test_depth_and_node_count_conventions():
    tree = load_tree("restaurant")
    report = tree_report(tree, "restaurant")
    assert report.depth == 4  # internal nodes on the longest path
    assert report.node_count == 12  # leaves included
    constant = tree_report(load_tree("constant"), "constant")
    assert constant.depth == 0 and constant.node_count == 1
