"""Project files: the CI workflow, the supported Python versions and the
modules' export lists."""

import ast
import importlib
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIER_1 = (
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
    "python -m pytest -q --continue-on-collection-errors"
)
# exits 1 when a workload's outputs fail its reference check or an operation fails
BENCHMARK_ONCE = "python bench/run.py --workload all --seconds 1 --seed 1"


def lowest_python() -> tuple[int, int]:
    """The version floor that pyproject.toml's ``requires-python`` sets."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_ci_runs_the_tier_1_command_from_the_lowest_python_up():
    """The workflow is read with the standard library, since CI installs
    no YAML parser: its one job, the job's version matrix (a flow list of
    quoted strings, which JSON reads) and its ``run:`` lines in order."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    jobs = text.split("\njobs:\n", 1)[1]
    assert re.findall(r"^  ([^\s:]+):$", jobs, re.M) == ["tier-1"]
    (matrix,) = re.findall(r"^ +python-version: (\[.*\])$", jobs, re.M)
    versions = json.loads(matrix)
    assert versions == ["3.10", "3.11", "3.12", "3.13"]
    assert versions[0] == "%d.%d" % lowest_python()
    runs = re.findall(r"^ +(?:- )?run: (.*)$", jobs, re.M)
    assert runs == ["pip install pytest hypothesis", TIER_1, BENCHMARK_ONCE]


MODULES = sorted(
    path.stem
    for path in (ROOT / "src" / "dtexplain").glob("*.py")
    if not path.stem.startswith("__")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in ``__all__`` after its definition is gone fails
    here, and so does ``import *``."""
    module = importlib.import_module(f"dtexplain.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from dtexplain.{name} import *", {})


def test_the_export_check_covers_every_module():
    assert MODULES == [
        "cli", "explain", "hitting", "model", "oracle", "randtree", "report", "selfcheck"
    ]


def test_every_module_parses_as_the_lowest_python():
    files = sorted(
        path
        for folder in ("src", "tests", "bench")
        for path in (ROOT / folder).rglob("*.py")
    )
    assert len(files) > 20
    version = lowest_python()
    for path in files:
        ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path), feature_version=version
        )


def test_the_readme_library_example_does_what_its_comments_say(monkeypatch, capsys):
    """Runs the ``python`` block under ``## Library`` from the repo root,
    keeping the value of each bare expression, as an interpreter shows it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(ROOT)
    namespace, shown = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "P1: {Humidity=high, Outlook=overcast} -> yes"
    tree, verdict = namespace["tree"], namespace["verdict"]
    assert verdict.redundant and tree.space.feature(verdict.witness).name == "Humidity"
    assert namespace["one"].render(tree) == "{Outlook=overcast}"
    assert printed[-1] == "Outlook in {rain,sunny} frozenset({1, 2})"
    assert [value for value in shown if value is not None] == [True, 8]
