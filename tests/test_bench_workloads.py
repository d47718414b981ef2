"""The benchmark reads the package's trees and literals through
``bench/workloads.py``, which nothing else under ``tests/`` imports.  A
change to an attribute that it reads, such as ``Edge.values`` or
``Literal.allowed``, fails here as well as in the benchmark run."""

import importlib.util
import json
import pathlib

import pytest
from conftest import FIXTURE_NAMES, load_tree

from dtexplain import parse_tree, random_tree, serialize_tree

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    """``bench/workloads.py`` as a module, with ``bench/`` on the path for
    its own import of ``refcheck``."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        spec.loader.exec_module(module)
    return module


def test_the_benchmark_reads_trees_and_literals_as_the_package_writes_them():
    """For every fixture and ``random_tree(0..49)``, the document that the
    verify workload reads off a tree parses back to the same tree, and its
    value map of each path's literals names what the literals name."""
    workloads = load_workloads()
    trees = [(name, load_tree(name)) for name in FIXTURE_NAMES]
    trees += [(f"random_tree({seed})", random_tree(seed)) for seed in range(50)]
    for name, tree in trees:
        doc = json.dumps(workloads.doc_from_tree(tree))
        assert serialize_tree(parse_tree(doc)) == serialize_tree(tree), name
        for path in tree.paths:
            names = dict(lit.names(tree.space) for lit in path.literals)
            assert workloads._value_map(tree, path.literals) == names, name
