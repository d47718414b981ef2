"""Project files: the CI workflow and the supported Python versions."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIER_1 = (
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
    "python -m pytest -q --continue-on-collection-errors"
)


def lowest_python() -> tuple[int, int]:
    """The version floor that pyproject.toml's ``requires-python`` sets."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_ci_runs_the_tier_1_command_from_the_lowest_python_up():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(
        (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    )
    (job,) = workflow["jobs"].values()
    versions = job["strategy"]["matrix"]["python-version"]
    assert versions == ["3.10", "3.11", "3.12"]
    assert versions[0] == "%d.%d" % lowest_python()
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert runs == ["pip install pytest hypothesis", TIER_1]


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
