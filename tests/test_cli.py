"""Command-line interface: subcommands, exit codes, output formats."""

import ast
import importlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import fixture_path, load_tree, one_edge_split_tree

import dtexplain
from dtexplain import BruteForceOracle, Literal, random_instance, serialize_tree
from dtexplain.cli import run
from dtexplain.explain import Explanation, RedundancyResult


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify -------------------------------------------------------------------


def test_classify_json(capsys):
    code, out, _ = invoke(
        capsys,
        "classify", "-t", fixture_path("or_tree"), "-i", '["0", "1"]',
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "class": "1",
        "path": "P1",
        "literals": {"x1": "0", "x2": "1"},
    }


def test_classify_text(capsys):
    code, out, _ = invoke(
        capsys, "classify", "-t", fixture_path("or_of_ands"),
        "-i", '["1", "0", "1", "1"]',
    )
    assert code == 0
    assert out == "class: 1  (path P2)\n"


def test_classify_csv_batch(capsys, tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("x1,x2\n0,1\n1,0\n", encoding="utf-8")
    code, out, _ = invoke(
        capsys, "classify", "-t", fixture_path("or_tree"),
        "--instances", str(rows), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["class"] for r in payload] == ["1", "1"]


def test_explain_instances_skips_blank_lines_and_a_byte_order_mark(capsys, tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_bytes(b"\xef\xbb\xbfx1,x2\r\n\r\n0,1\r\n\r\n1,0\r\n\r\n")
    code, out, err = invoke(
        capsys, "explain", "-t", fixture_path("or_tree"),
        "--instances", str(rows), "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == [{"x2": "1"}, {"x1": "1"}]


# -- redundancy -------------------------------------------------------------------


def test_redundancy_all_text(capsys):
    code, out, _ = invoke(
        capsys, "redundancy", "-t", fixture_path("cross_circle"), "--all"
    )
    assert code == 0
    assert out.splitlines() == [
        "P1: irredundant",
        "P2: redundant (witness: y>0.73)",
        "Q1: irredundant",
    ]


def test_redundancy_single_path_json(capsys):
    code, out, _ = invoke(
        capsys, "redundancy", "-t", fixture_path("or_of_ands"),
        "--path", "P2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["redundant"] is True
    assert payload["witness"] == "x2"


# -- explain ----------------------------------------------------------------------


def test_explain_path_json_exact(capsys):
    code, out, _ = invoke(
        capsys, "explain", "-t", fixture_path("or_of_ands"),
        "--path", "P2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"x3": "1", "x4": "1"}


def test_explain_instance_defaults_to_unrestricted(capsys):
    code, out, _ = invoke(
        capsys, "explain", "-t", fixture_path("selector"),
        "-i", '["1", "1", "1", "1"]', "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"x1": "1", "x3": "1"}


def test_explain_instance_restricted_resolves_path(capsys):
    code, out, _ = invoke(
        capsys, "explain", "-t", fixture_path("cross_circle"),
        "-i", '["N", "Y"]', "--mode", "restricted", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"x>0.64": "Y"}


def test_explain_path_unrestricted_is_usage_error(capsys):
    code, _, err = invoke(
        capsys, "explain", "-t", fixture_path("or_of_ands"),
        "--path", "P2", "--mode", "unrestricted",
    )
    assert code == 1
    assert "usage" in err


def test_explain_output_feeds_back_through_the_oracle(capsys):
    """The printed JSON explanation can be reconstructed and verified."""
    tree = load_tree("or_of_ands")
    code, out, _ = invoke(
        capsys, "explain", "-t", fixture_path("or_of_ands"),
        "--path", "P2", "--format", "json",
    )
    assert code == 0
    mapping = json.loads(out)
    literals = frozenset(
        Literal(
            tree.space.feature_by_name(name).index,
            1 << tree.space.feature_by_name(name).value_index(value),
        )
        for name, value in mapping.items()
    )
    target = tree.class_id("1")
    oracle = BruteForceOracle(tree)
    assert oracle.entails(literals, target)
    for lit in literals:
        assert not oracle.entails(literals - {lit}, target)


# -- enumerate ---------------------------------------------------------------------


def test_enumerate_unrestricted(capsys):
    code, out, _ = invoke(
        capsys, "enumerate", "-t", fixture_path("selector"),
        "-i", '["1", "1", "1", "1"]', "--mode", "unrestricted",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"x1": "1", "x3": "1"},
        {"x2": "1", "x3": "1", "x4": "1"},
    ]


def test_enumerate_restricted_single(capsys):
    code, out, _ = invoke(
        capsys, "enumerate", "-t", fixture_path("or_of_ands"),
        "--path", "P2", "--mode", "restricted", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [{"x3": "1", "x4": "1"}]


def test_enumerate_limit(capsys):
    code, out, _ = invoke(
        capsys, "enumerate", "-t", fixture_path("selector"),
        "-i", '["1", "1", "1", "1"]', "--limit", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [{"x1": "1", "x3": "1"}]


def test_enumerate_text(capsys):
    code, out, _ = invoke(
        capsys, "enumerate", "-t", fixture_path("selector"),
        "-i", '["1", "1", "1", "1"]',
    )
    assert code == 0
    assert out.splitlines() == ["{x1=1, x3=1}", "{x2=1, x3=1, x4=1}"]


# -- stats -------------------------------------------------------------------------


def test_stats_table(capsys):
    code, out, _ = invoke(
        capsys, "stats", "-t",
        fixture_path("cross_circle"), fixture_path("articles"),
        fixture_path("restaurant"),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["Tree", "D", "#N", "#P", "%R", "%C", "%m", "%M", "%avg"]
    cells = [line.split() for line in lines[1:4]]
    assert [c[4] for c in cells] == ["33", "50", "25"]  # %R column


def test_stats_json(capsys):
    code, out, _ = invoke(
        capsys, "stats", "-t", fixture_path("cross_circle"), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["pct_redundant"] == {"display": 33, "exact": "100/3"}


def test_stats_partial_failure(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{", encoding="utf-8")
    code, out, err = invoke(
        capsys, "stats", "-t",
        fixture_path("cross_circle"), str(bad), fixture_path("articles"),
        "--format", "json",
    )
    assert code == 2
    payload = json.loads(out)
    # two report rows and one error entry, in input order, plus the means
    assert [("tree" in e, "error" in e) for e in payload] == [
        (True, False), (False, True), (True, False), (False, False),
    ]
    assert "aggregate" in payload[-1]
    assert "broken.json" in err


@pytest.mark.parametrize(
    "raw, reason", [(b"\xff\xfe{}", "not UTF-8"), (b"{", "invalid JSON at line")]
)
def test_stats_names_a_bad_file_once(capsys, tmp_path, raw, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    code, out, err = invoke(capsys, "stats", "-t", str(bad), fixture_path("or_tree"))
    assert code == 2
    row = next(line for line in out.splitlines() if line.startswith("error: "))
    assert row.startswith(f"error: {bad}: {reason}") and row.count(str(bad)) == 1
    assert err.startswith(f"dtexplain: error: {bad}: {reason}")
    assert err.count(str(bad)) == 1
    code, out, _ = invoke(capsys, "stats", "-t", str(bad), "--format", "json")
    assert code == 2
    (entry,) = json.loads(out)
    assert entry["file"] == str(bad) and entry["error"].count(str(bad)) == 1


def test_a_repeated_object_key_is_a_data_error(capsys, tmp_path):
    """Leaf b written as class 1, then as class 0: read with the last value
    winning, both paths would be redundant."""
    bad = tmp_path / "twice.json"
    bad.write_text(
        '{"features": [{"name": "x", "domain": ["0", "1"]}], "classes": ["0", "1"],'
        ' "root": "r", "nodes": {"r": {"feature": "x", "edges": ['
        '{"values": ["0"], "child": "a"}, {"values": ["1"], "child": "b"}]},'
        ' "a": {"leaf": "0"}, "b": {"leaf": "1"}, "b": {"leaf": "0"}}}',
        encoding="utf-8",
    )
    code, out, err = invoke(capsys, "stats", "-t", str(bad))
    assert code == 2
    row = f"error: {bad}: invalid JSON: duplicate key 'b'\n"
    assert out.endswith("\n" + row) and err == "dtexplain: " + row


def test_a_tree_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    text = pathlib.Path(fixture_path("or_tree")).read_text(encoding="utf-8")
    marked = tmp_path / "marked.json"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    plain = invoke(capsys, "stats", "-t", fixture_path("or_tree"), "--format", "json")
    code, out, err = invoke(capsys, "stats", "-t", str(marked), "--format", "json")
    assert (code, err) == (0, "")
    assert out == plain[1].replace(fixture_path("or_tree"), str(marked))


@pytest.mark.parametrize(
    "command, single, listed",
    [
        ("classify", ["-i", '["1", "1", "1", "1"]'], ["--instances", "ONE_ROW"]),
        ("explain", ["-i", '["1", "1", "1", "1"]'], ["--instances", "ONE_ROW"]),
        ("enumerate", ["-i", '["1", "1", "1", "1"]'], ["--instances", "ONE_ROW"]),
        ("explain", ["--path", "P2"], ["--instances", "ONE_ROW", "--mode", "restricted"]),
        ("redundancy", ["--path", "Q1"], ["--all"]),
    ],
)
def test_json_shape_follows_the_source_flag(capsys, tmp_path, command, single, listed):
    """-i and --path print one entry; --instances and --all print a list,
    even of one row."""
    rows = tmp_path / "one.csv"
    rows.write_text("x1,x2,x3,x4\n1,1,1,1\n", encoding="utf-8")
    argv = (command, "-t", fixture_path("selector"), "--format", "json")
    code, one, _ = invoke(capsys, *argv, *single)
    assert code == 0
    listed = [str(rows) if flag == "ONE_ROW" else flag for flag in listed]
    code, many, _ = invoke(capsys, *argv, *listed)
    assert code == 0
    assert json.loads(many)[0] == json.loads(one)
    if command != "redundancy":
        assert len(json.loads(many)) == 1


# -- errors and exit codes ------------------------------------------------------------


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = invoke(capsys, "classify", "--bogus")
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("classify", "--instance or --instances"),
        ("explain", "--path, --instance or --instances"),
        ("enumerate", "--path, --instance or --instances"),
    ],
)
def test_missing_source_message_names_the_command_flags(capsys, command, flags):
    code, out, err = invoke(capsys, command, "-t", fixture_path("or_tree"))
    assert (code, out) == (1, "")
    assert err.startswith("dtexplain: usage error: ")
    assert err.splitlines()[0].endswith(f"source is required ({flags})")


def test_missing_subcommand(capsys):
    code, _, err = invoke(capsys)
    assert code == 1
    assert "usage" in err


def test_bad_tree_file_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"features": []}', encoding="utf-8")
    code, _, err = invoke(capsys, "classify", "-t", str(bad), "-i", "[]")
    assert code == 2
    assert "error" in err
    text = pathlib.Path(fixture_path("play_tennis")).read_text(encoding="utf-8")
    for feature in ('["Humidity"]', '{"name": "Humidity"}'):  # not a name string
        bad.write_text(
            text.replace('"feature": "Humidity"', f'"feature": {feature}'),
            encoding="utf-8",
        )
        code, _, err = invoke(capsys, "stats", "-t", str(bad))
        assert code == 2
        assert "feature must be a name string" in err
    deep = ("[" * 50_000 + "]" * 50_000).encode()
    for raw, reason in ((b"\xff\xfe{}", "not UTF-8"), (deep, "nested too deeply")):
        bad.write_bytes(raw)
        code, _, err = invoke(capsys, "redundancy", "-t", str(bad))
        assert code == 2
        assert err.startswith(f"dtexplain: error: {bad}: ") and reason in err
        code, out, err = invoke(capsys, "stats", "-t", str(bad), fixture_path("or_tree"))
        assert code == 2
        assert f"error: {bad}: " in out and reason in out  # the error row
        assert fixture_path("or_tree") in out  # the other file still reports


def test_bad_instance_input_is_data_error(capsys, tmp_path):
    tree = fixture_path("or_tree")
    deep = "[" * 50_000 + "]" * 50_000
    code, _, err = invoke(capsys, "explain", "-t", tree, "-i", deep)
    assert code == 2
    assert err == "dtexplain: error: invalid instance JSON: nested too deeply\n"
    rows = tmp_path / "rows.csv"
    for raw, reason in (
        (b"x1,x2\n0,1\n\xff,0\n", "not UTF-8"),
        (b"x1,x2\n0,1\n1," + b"0" * 200_000 + b"\n", "field larger than field limit"),
        (b"x1,x2\n0,1\n0,zz\n", "feature 'x2' has no value 'zz'"),
    ):
        rows.write_bytes(raw)
        code, _, err = invoke(capsys, "classify", "-t", tree, "--instances", str(rows))
        assert code == 2
        assert err.startswith(f"dtexplain: error: {rows}:3: ") and reason in err


def test_a_number_too_long_for_int_is_a_data_error(capsys, tmp_path):
    """CPython rejects an integer literal over its digit limit; a Python
    without the limit decodes it and the schema rejects the document, so
    only the exit code and the error row are asserted."""
    text = pathlib.Path(fixture_path("or_tree")).read_text(encoding="utf-8").rstrip()
    big = tmp_path / "big.json"
    big.write_text(text[:-1] + ', "x": ' + "9" * 5000 + "}\n", encoding="utf-8")
    code, out, err = invoke(capsys, "stats", "-t", str(big), fixture_path("or_tree"))
    assert code == 2
    assert f"error: {big}: " in out  # the error row
    assert fixture_path("or_tree") in out  # the other file still reports
    assert err.startswith(f"dtexplain: error: {big}: ")
    code, out, err = invoke(
        capsys, "classify", "-t", fixture_path("or_tree"), "-i", "[" + "1" * 5000 + "]"
    )
    assert (code, out) == (2, "")
    assert err.startswith("dtexplain: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("explain", "--path", "P2"),
        ("redundancy",),
        ("enumerate", "-i", '["1", "0"]'),
    ],
    ids=["explain", "redundancy", "enumerate"],
)
def test_a_name_that_does_not_encode_is_a_data_error(capsys, tmp_path, argv):
    """A feature name spelled with a lone surrogate could not be written to
    the output; the tree is rejected instead."""
    text = pathlib.Path(fixture_path("or_tree")).read_text(encoding="utf-8")
    bad = tmp_path / "surrogate.json"
    bad.write_text(text.replace('"x1"', '"x1\\ud800"'), encoding="utf-8")
    code, out, err = invoke(capsys, argv[0], "-t", str(bad), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"dtexplain: error: {bad}: feature #0: name ")


def test_unknown_path_id_is_data_error(capsys):
    code, _, _ = invoke(
        capsys, "explain", "-t", fixture_path("or_tree"), "--path", "P9"
    )
    assert code == 2


@pytest.mark.parametrize("count", [("--trees", "0"), ("--instances", "-1")])
def test_selftest_rejects_bad_counts(capsys, count):
    code, out, err = invoke(capsys, "selftest", *count)
    assert code == 1 and out == ""
    assert err.startswith(f"dtexplain: usage error: {count[0]} must be")


def test_conflicting_instance_sources(capsys, tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("x1,x2\n0,0\n", encoding="utf-8")
    code, _, err = invoke(
        capsys, "classify", "-t", fixture_path("or_tree"),
        "-i", '["0", "0"]', "--instances", str(rows),
    )
    assert code == 1
    assert "argument --instances: not allowed with argument -i/--instance" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("explain", "--path", "P1", "-i", ""),
        ("explain", "--path", "P1", "--instances", ""),
        ("enumerate", "--path", "P1", "--instances", ""),
        ("redundancy", "--path", "P1", "--all"),
    ],
)
def test_source_flags_exclude_each_other_even_when_empty(capsys, argv):
    """The parser refuses a second source flag, set to '' or not, before
    any file is read."""
    code, out, err = invoke(capsys, argv[0], "-t", fixture_path("or_tree"), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("dtexplain: usage error: argument ")
    assert "not allowed with argument" in err.splitlines()[0]


def test_an_empty_path_id_is_looked_up(capsys):
    code, out, err = invoke(capsys, "explain", "-t", fixture_path("or_tree"), "--path", "")
    assert (code, out) == (2, "")
    assert err == "dtexplain: error: no path named ''\n"


# -- verification ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "-i", '["0", "1"]'),
        ("redundancy", "--all"),
        ("explain", "--path", "P1"),
        ("enumerate", "--path", "P1"),
    ],
)
def test_verify_passes_on_fixture(capsys, argv):
    code, _, _ = invoke(
        capsys, argv[0], "-t", fixture_path("or_tree"), *argv[1:], "--verify"
    )
    assert code == 0


def test_verify_passes_below_a_one_edge_split(capsys, tmp_path):
    """Every command verifies on a tree whose root has one edge, covering
    the whole domain of x, and re-tests x below it."""
    tree = one_edge_split_tree()
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(serialize_tree(tree), encoding="utf-8")
    rows = tmp_path / "rows.csv"
    points = "".join(f"{x},{y}\n" for x in "abc" for y in "01")
    rows.write_text("x,y\n" + points, encoding="utf-8")
    argvs = [("stats",), ("redundancy",), ("classify", "--instances", str(rows))]
    for command in ("explain", "enumerate"):
        argvs += [(command, "--path", path.path_id) for path in tree.paths]
        for mode in ("restricted", "unrestricted"):
            argvs.append((command, "--instances", str(rows), "--mode", mode))
    for argv in argvs:
        code, out, err = invoke(
            capsys, argv[0], "-t", str(tree_file), *argv[1:], "--verify"
        )
        assert (code, err) == (0, ""), argv
        assert out


def test_verify_stats(capsys):
    code, _, _ = invoke(
        capsys, "stats", "-t", fixture_path("articles"), "--verify"
    )
    assert code == 0


def test_verify_stats_parses_each_file_once(capsys, monkeypatch):
    real_parse = dtexplain.model.parse_tree
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(dtexplain.model, "parse_tree", counting_parse)
    files = [fixture_path("articles"), fixture_path("or_tree")]
    code, _, _ = invoke(capsys, "stats", "-t", *files, "--verify")
    assert code == 0
    assert len(parsed) == len(files)


def _drop_last(real):
    def lie(tree, src, scan, limit):
        found, entered = real(tree, src, scan, limit)
        return found[:-1], entered
    return lie


def _twice(real):
    def lie(tree, src, scan, limit):
        found, entered = real(tree, src, scan, limit)
        return found * 2, entered  # every set repeated
    return lie


def _merge_first_two(real):
    def lie(tree, src, scan, limit):
        found, entered = real(tree, src, scan, None)
        first, second = found[:2]  # entails, not minimal
        return [Explanation(first.literals | second.literals, first.target)], entered
    return lie


def _other_target(real):
    def lie(tree, src, scan, limit):
        found, entered = real(tree, src, scan, limit)  # the right literal sets
        other = (src.target + 1) % len(tree.classes)
        return [Explanation(e.literals, other) for e in found], entered
    return lie


def _flip_scanned_verdict(real):
    def lie(*args, **kwargs):
        scan = real(*args, **kwargs)
        honest = scan.verdict
        flipped = RedundancyResult(
            not honest.redundant, honest.witness, honest.node_visits
        )
        return scan._replace(verdict=flipped)
    return lie


def _other_class(real):
    def lie(tree, point):
        class_id, path = real(tree, point)
        return (class_id + 1) % len(tree.classes), path
    return lie


def test_verify_detects_a_lying_fast_path(capsys, monkeypatch):
    from dtexplain.explain import _scan

    monkeypatch.setattr("dtexplain.cli._scan", _flip_scanned_verdict(_scan))
    code, _, err = invoke(
        capsys, "redundancy", "-t", fixture_path("or_tree"), "--verify"
    )
    assert code == 3
    assert "mismatch" in err


@pytest.mark.parametrize(
    "target, liar, argv",
    [
        (
            "dtexplain.cli._enumerate", _drop_last,
            ("enumerate", "-t", fixture_path("selector"), "-i", '["1", "1", "1", "1"]'),
        ),
        (
            "dtexplain.cli._enumerate", _twice,
            ("enumerate", "-t", fixture_path("selector"), "-i", '["1", "1", "1", "1"]'),
        ),
        (
            "dtexplain.cli._enumerate", _merge_first_two,
            ("enumerate", "-t", fixture_path("selector"), "-i", '["1", "1", "1", "1"]',
             "--limit", "1"),
        ),
        (
            "dtexplain.cli._enumerate", _other_target,
            ("enumerate", "-t", fixture_path("selector"), "-i", '["1", "1", "1", "1"]'),
        ),
        (
            "dtexplain.report._scan", _flip_scanned_verdict,
            ("stats", "-t", fixture_path("or_tree")),
        ),
        (
            "dtexplain.explain.classify", _other_class,
            ("classify", "-t", fixture_path("or_tree"), "-i", '["0", "1"]'),
        ),
    ],
    ids=[
        "enumerate", "enumerate-twice", "enumerate-limit", "enumerate-class", "stats",
        "classify",
    ],
)
def test_verify_detects_every_lying_command(capsys, monkeypatch, target, liar, argv):
    module, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    code, out, _ = invoke(capsys, *argv, "--verify")
    assert code == 0 and out  # honest answers pass
    monkeypatch.setattr(target, liar(real))
    code, out, err = invoke(capsys, *argv, "--verify")
    assert code == 3 and out == ""
    assert "oracle mismatch" in err
    if liar is _other_target:  # every literal set is right, the class is not
        assert err == (
            "dtexplain: oracle mismatch: enumeration answered class index 0, not 1\n"
        )


def _another_path_of_its_class(real):
    def lie(tree, point):
        _, path = real(tree, point)
        other = next(
            p for p in tree.paths if p is not path and p.prediction == path.prediction
        )
        return other.prediction, other
    return lie


def _x1_is_1(real):
    def lie(tree, src, scan):  # entails class 1 and is minimal, but not the source's
        return Explanation(frozenset({Literal(0, 0b10)}), 1), 0
    return lie


def _drop_one_more(real):
    def lie(tree, src, scan):
        honest, entered = real(tree, src, scan)
        if len(honest.literals) == len(src.literals):
            return honest, entered
        rest = frozenset(honest.sorted_literals()[1:])  # no longer entails
        return Explanation(rest, honest.target), entered
    return lie


@pytest.mark.parametrize(
    "target, liar, argv",
    [
        (
            "dtexplain.explain.classify", _another_path_of_its_class,
            ("classify", "-t", fixture_path("or_tree"), "-i", '["0", "1"]'),
        ),
        (
            "dtexplain.cli._extract", _x1_is_1,
            ("explain", "-t", fixture_path("or_tree"), "--path", "P1"),
        ),
        (
            "dtexplain.cli._extract", _x1_is_1,
            ("explain", "-t", fixture_path("or_tree"), "-i", '["0", "1"]'),
        ),
        (
            "dtexplain.report._extract", _drop_one_more,
            ("stats", "-t", fixture_path("articles")),
        ),
        (  # the instance resolves to P2, whose explanation is {x1=1}
            "dtexplain.cli.classify", _another_path_of_its_class,
            ("explain", "-t", fixture_path("or_tree"), "-i", '["0", "1"]',
             "--mode", "restricted"),
        ),
        (
            "dtexplain.cli.classify", _another_path_of_its_class,
            ("enumerate", "-t", fixture_path("or_tree"), "-i", '["0", "1"]',
             "--mode", "restricted"),
        ),
    ],
    ids=[
        "classify-path", "explain-path", "explain-instance", "stats-extraction",
        "explain-restricted-instance", "enumerate-restricted-instance",
    ],
)
def test_verify_runs_the_checker_of_each_answer_kind(
    capsys, monkeypatch, target, liar, argv
):
    """Each liar gives an answer that a check of its own kind catches:
    the leaf reached, containment in the source's literals, entailment.
    Without --verify its wrong answer is printed."""
    module, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    code, honest, _ = invoke(capsys, *argv, "--verify")
    assert code == 0 and honest
    monkeypatch.setattr(target, liar(real))
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and out != honest
    code, out, err = invoke(capsys, *argv, "--verify")
    assert code == 3 and out == ""
    assert err.startswith("dtexplain: oracle mismatch: ")


def test_cli_verifies_only_through_the_selfcheck_checkers():
    """--verify has one path: cli.py takes from selfcheck only check_tree,
    its result types and the per-answer checkers, imports no other check,
    and calls no oracle method itself."""
    checkers = {n for n in dtexplain.selfcheck.__all__ if n.startswith("check_")}
    allowed = {
        "selfcheck": checkers | {"CheckStats", "OracleMismatch"},
        "oracle": {"BruteForceOracle", "BudgetExceededError"},
    }
    methods = {n for n, v in vars(BruteForceOracle).items() if callable(v)}
    source = pathlib.Path(dtexplain.cli.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            imported |= names
            if node.module in allowed:
                assert names <= allowed[node.module], names - allowed[node.module]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert node.func.attr not in methods, ast.unparse(node)
    assert checkers <= imported
    assert not {"entails", "_check_minimal", "is_redundant"} & imported


def test_verify_detects_a_short_truncated_enumeration(capsys, monkeypatch):
    """Under --limit N, fewer than N sets when the oracle has N is a mismatch."""
    monkeypatch.setattr("dtexplain.cli._enumerate", lambda *args: ([], 0))
    code, out, err = invoke(
        capsys, "enumerate", "-t", fixture_path("selector"),
        "-i", '["1", "1", "1", "1"]', "--limit", "1", "--verify",
    )
    assert code == 3 and out == ""
    assert err == "dtexplain: oracle mismatch: enumeration found 0 sets, oracle 1\n"


@pytest.mark.parametrize("command", ["explain", "enumerate"])
@pytest.mark.parametrize("mode", ["unrestricted", "restricted"])
def test_verify_classifies_each_instance_once(
    capsys, monkeypatch, tmp_path, command, mode
):
    """Each row is checked once when read and once when its source is
    resolved, and --verify checks the answers from that same source."""
    tree = load_tree("restaurant")
    rng = random.Random(12)
    rows = tmp_path / "rows.csv"
    lines = [",".join(f.name for f in tree.space.features)]
    for _ in range(12):
        point = random_instance(tree.space, rng)
        lines.append(",".join(f.domain[v] for f, v in zip(tree.space.features, point)))
    rows.write_text("\n".join(lines) + "\n", encoding="utf-8")
    checks = []
    check = dtexplain.model._check_point

    def counted(space, point):
        checks.append(point)
        check(space, point)

    monkeypatch.setattr(dtexplain.model, "_check_point", counted)
    argv = (command, "-t", fixture_path("restaurant"), "--instances", str(rows),
            "--mode", mode)
    counts = []
    for verify in ((), ("--verify",)):
        del checks[:]
        code, out, _ = invoke(capsys, *argv, *verify)
        assert code == 0 and out
        counts.append(len(checks))
    assert counts == [24, 24]


@pytest.mark.parametrize("keep", ["all", "none"])
def test_verify_detects_a_lying_extractor(capsys, monkeypatch, keep):
    def lie(tree, src, scan):
        literals = src.path.literal_set() if keep == "all" else frozenset()
        return Explanation(literals, src.target), 0

    monkeypatch.setattr("dtexplain.cli._extract", lie)
    tree = load_tree("play_tennis")
    code, out, err = invoke(
        capsys, "explain", "-t", fixture_path("play_tennis"), "--path", "P1", "--verify"
    )
    assert code == 3 and out == ""
    if keep == "all":  # {Humidity=high, Outlook=overcast}: Humidity is droppable
        index = tree.space.feature_by_name("Humidity").index
        assert err == (
            "dtexplain: oracle mismatch: explanation is not subset-minimal "
            f"(droppable literal on feature index {index})\n"
        )
    else:
        assert err == (
            "dtexplain: oracle mismatch: explanation does not entail the prediction\n"
        )


def test_verify_budget_exceeded(capsys, tmp_path):
    doc = {
        "features": [
            {"name": f"x{i}", "domain": ["0", "1"]} for i in range(21)
        ],
        "classes": ["0", "1"],
        "root": "n0",
        "nodes": {
            "n0": {
                "feature": "x0",
                "edges": [
                    {"values": ["0"], "child": "a"},
                    {"values": ["1"], "child": "b"},
                ],
            },
            "a": {"leaf": "0"},
            "b": {"leaf": "1"},
        },
    }
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc), encoding="utf-8")
    instance = json.dumps(["0"] * 21)
    code, _, _ = invoke(capsys, "classify", "-t", str(big), "-i", instance)
    assert code == 0  # fine without --verify
    code, _, err = invoke(
        capsys, "classify", "-t", str(big), "-i", instance, "--verify"
    )
    assert code == 4
    assert "budget" in err


# -- selftest and determinism --------------------------------------------------------


def test_selftest_runs_clean(capsys):
    code, out, _ = invoke(
        capsys, "selftest", "--trees", "5", "--seed", "11", "--instances", "5"
    )
    assert code == 0
    assert "zero mismatches" in out


def test_output_is_deterministic(capsys):
    argv = ("stats", "-t", fixture_path("restaurant"), "--format", "json")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def test_console_entry_point():
    # the child imports the package the tests imported, installed or not
    src = str(pathlib.Path(dtexplain.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable, "-m", "dtexplain",
            "explain", "-t", fixture_path("or_of_ands"),
            "--path", "P2", "--format", "json",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"x3": "1", "x4": "1"}
