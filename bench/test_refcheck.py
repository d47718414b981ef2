"""The reference checker must reject wrong answers, not only accept right ones.

    python3 -m pytest bench/test_refcheck.py
"""

import itertools
import random

from refcheck import RefTree, bits, minimal_transversals

# x1=1 -> class 1; otherwise class 1 iff x2=1 and x3=1
DOC = {
    "features": [{"name": f"x{i}", "domain": ["0", "1"]} for i in (1, 2, 3)],
    "classes": ["0", "1"],
    "root": "a",
    "nodes": {
        "a": {"feature": "x1", "edges": [{"values": ["1"], "child": "p1"},
                                          {"values": ["0"], "child": "b"}]},
        "b": {"feature": "x2", "edges": [{"values": ["1"], "child": "c"},
                                          {"values": ["0"], "child": "q1"}]},
        "c": {"feature": "x3", "edges": [{"values": ["1"], "child": "p2"},
                                          {"values": ["0"], "child": "q2"}]},
        "p1": {"leaf": "1"},
        "p2": {"leaf": "1"},
        "q1": {"leaf": "0"},
        "q2": {"leaf": "0"},
    },
}
REF = RefTree(DOC)
ONE = 1  # class index of "1"


def lits(**values):
    return REF.literals({name: value for name, value in values.items()})


def instance_universe(*values):
    return [(f, 1 << v) for f, v in enumerate(REF.point(list(values)))]


def test_paths_and_classification():
    assert [p.leaf for p in REF.paths] == ["p1", "p2", "q2", "q1"]
    assert REF.classify(REF.point(["0", "1", "1"])) == "p2"
    assert sum(REF.point_count(p.literals) for p in REF.paths) == REF.total_points() == 8


def test_accepts_a_pi_explanation():
    assert REF.check_explanation(lits(x2="1", x3="1"), ONE) == []
    path = REF.paths[REF.leaf_path["p2"]].literals
    assert REF.check_explanation(lits(x2="1", x3="1"), ONE, within=path) == []


def test_rejects_a_planted_non_entailing_set():
    problems = REF.check_explanation(lits(x2="1"), ONE)
    assert problems and "does not entail" in problems[0]


def test_rejects_a_non_minimal_set():
    problems = REF.check_explanation(lits(x1="0", x2="1", x3="1"), ONE)
    assert problems and "not minimal" in problems[0]


def test_rejects_a_set_outside_the_path():
    path = REF.paths[REF.leaf_path["p2"]].literals
    problems = REF.check_explanation(lits(x1="1"), ONE, within=path)
    assert problems and "not a subset" in problems[0]


def test_rejects_a_missing_pi_explanation():
    universe = instance_universe("1", "1", "1")
    complete = [lits(x1="1"), lits(x2="1", x3="1")]
    assert REF.check_enumeration(complete, universe, ONE) == []
    problems = REF.check_enumeration(complete[:1], universe, ONE)
    assert problems == ["missing PI-explanation {x2=1, x3=1}"]


def test_rejects_extra_and_non_hitting_sets():
    universe = instance_universe("1", "1", "1")
    problems = REF.check_enumeration(
        [lits(x1="1"), lits(x2="1", x3="1"), lits(x2="1")], universe, ONE)
    assert "{x2=1} misses a contrary path" in problems
    assert "{x2=1} is not a minimal transversal" in problems


def test_rejects_a_wrong_report():
    rows = []
    for i, path in enumerate(REF.paths):
        rows.append({"path": f"#{i}", "point_count": REF.point_count(path.literals),
                     "redundant": bool(REF.droppable(path.literals, path.cls))})
    redundant = sum(r["redundant"] for r in rows)
    covered = sum(r["point_count"] for r in rows if r["redundant"])
    report = {
        "paths": rows,
        "point_total": 8,
        "pct_redundant": {"exact": f"{100 * redundant}/{len(rows)}"},
        "pct_coverage": {"exact": f"{100 * covered}/8"},
    }
    assert REF.check_report(report) == []
    report["pct_redundant"] = {"exact": "75"}
    assert REF.check_report(report) == ["%R is not 100 * redundant / paths"]


def test_transversals_match_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        family = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 6))]
        hitting = [
            t for t in range(1 << n) if all(t & s for s in family)
        ]
        minimal = {t for t in hitting if not any(u != t and u & t == u for u in hitting)}
        assert set(minimal_transversals(family)) == minimal


def test_bits():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(itertools.islice(bits(1 << 70), 1)) == [70]
