"""Command-line interface: subcommands, exit codes, output formats."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import fixture_path, load_tree

import dtexplain
from dtexplain import BruteForceOracle, Literal
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
            frozenset({tree.space.feature_by_name(name).value_index(value)}),
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


# -- errors and exit codes ------------------------------------------------------------


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = invoke(capsys, "classify", "--bogus")
    assert code == 1
    assert "usage" in err


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


def test_unknown_path_id_is_data_error(capsys):
    code, _, _ = invoke(
        capsys, "explain", "-t", fixture_path("or_tree"), "--path", "P9"
    )
    assert code == 2


def test_conflicting_instance_sources(capsys, tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("x1,x2\n0,0\n", encoding="utf-8")
    code, _, _ = invoke(
        capsys, "classify", "-t", fixture_path("or_tree"),
        "-i", '["0", "0"]', "--instances", str(rows),
    )
    assert code == 1


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


def test_verify_detects_a_lying_fast_path(capsys, monkeypatch):
    def lie(tree, path):
        honest = is_path_redundant_real(tree, path)
        return RedundancyResult(
            not honest.redundant, honest.witness, honest.node_visits
        )

    from dtexplain.explain import is_path_redundant as is_path_redundant_real

    monkeypatch.setattr("dtexplain.cli.is_path_redundant", lie)
    code, _, err = invoke(
        capsys, "redundancy", "-t", fixture_path("or_tree"), "--verify"
    )
    assert code == 3
    assert "mismatch" in err


@pytest.mark.parametrize("keep", ["all", "none"])
def test_verify_detects_a_lying_extractor(capsys, monkeypatch, keep):
    def lie(tree, path):
        literals = path.literal_set() if keep == "all" else frozenset()
        return Explanation(literals, path.prediction)

    monkeypatch.setattr("dtexplain.cli.one_pi_explanation_path", lie)
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
