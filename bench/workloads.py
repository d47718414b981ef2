"""The three benchmark workloads.

Each workload reads the files ``gen.py`` wrote, makes the program's
inputs ready in :meth:`setup` (the timed set-up), lists its operations,
names one CLI command and checks every output against :mod:`refcheck`.
Operations look the package's functions up on their modules at call
time, so a traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from fractions import Fraction

from refcheck import RefTree


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _value_map(tree, literals) -> dict:
    """The package's literals as {feature name: [value names]}."""
    space = tree.space
    return {
        space.feature(lit.feature).name: [
            space.feature(lit.feature).domain[v] for v in sorted(lit.allowed)
        ]
        for lit in literals
    }


def doc_from_tree(tree) -> dict:
    """A JSON tree document read off a parsed or generated tree."""
    nodes = {}
    for node_id, node in tree.nodes.items():
        if hasattr(node, "edges"):
            feat = tree.space.feature(node.feature)
            nodes[node_id] = {
                "feature": feat.name,
                "edges": [
                    {"values": [feat.domain[v] for v in sorted(e.values)], "child": e.child}
                    for e in node.edges
                ],
            }
        else:
            nodes[node_id] = {"leaf": tree.classes[node.class_id]}
    return {
        "features": [{"name": f.name, "domain": list(f.domain)} for f in tree.space.features],
        "classes": list(tree.classes),
        "root": tree.root,
        "nodes": nodes,
    }


class Workload:
    name = ""

    def __init__(self, out_dir: str, dx):
        self.out = out_dir
        self.dx = dx
        self.manifest = _load(self.file("manifest.json"))
        self.texts = []
        for entry in self.manifest["trees"]:
            with open(self.file(entry["file"]), encoding="utf-8") as handle:
                self.texts.append(handle.read())
        self.trees: list = []

    def file(self, name: str) -> str:
        return os.path.join(self.out, name)

    def setup(self) -> list:
        """Make the program's inputs ready; timed as ``setup_s``."""
        parse = self.dx.model.parse_tree
        return [parse(text) for text in self.texts]

    def prepare(self) -> None:
        """Untimed preparation once ``self.trees`` is set."""

    def operations(self) -> list:
        raise NotImplementedError

    def seeded_order(self, ops: list) -> list:
        """``ops`` in the order the manifest draws from the seed."""
        order = self.manifest["order"]
        if sorted(order) != list(range(len(ops))):
            raise ValueError(f"the manifest orders {len(order)} operations, not {len(ops)}")
        return [ops[j] for j in order]

    def canonical(self, outputs: list) -> list:
        """Outputs of operations run in seeded order, back in list order."""
        ordered = [None] * len(outputs)
        for j, out in zip(self.manifest["order"], outputs):
            ordered[j] = out
        return ordered

    def cli_argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, outputs: list, cli_stdout: str) -> list[str]:
        raise NotImplementedError


class Audit(Workload):
    """Every path of a fixed forest, in a seeded order, audited as `stats`
    audits it."""

    name = "audit"

    def operations(self) -> list:
        dx = self.dx

        def audit(tree, path):
            def op():
                verdict = dx.explain.is_path_redundant(tree, path)
                explanation = dx.explain.one_pi_explanation_path(tree, path)
                points = dx.model.path_point_count(tree.space, path.literals)
                return verdict, explanation, points
            return op

        return self.seeded_order([audit(tree, path) for tree in self.trees for path in tree.paths])

    def cli_argv(self) -> list[str]:
        return ["stats", "-t", *(self.file(f) for f in self.manifest["cli_trees"])]

    def check(self, outputs: list, cli_stdout: str) -> list[str]:
        problems = []
        refs = {}
        ops = iter(self.canonical(outputs))
        for entry, tree, text in zip(self.manifest["trees"], self.trees, self.texts):
            ref = refs[entry["file"]] = RefTree(json.loads(text))
            points = 0
            complete = True
            for path in tree.paths:
                out = next(ops)
                if out is None:  # failed, counted as such
                    complete = False
                    continue
                verdict, explanation, count = out
                where = f"{entry['name']}/{path.path_id}"
                rp = ref.paths[ref.leaf_path[path.leaf_id]]
                if ref.literals(_value_map(tree, path.literals)) != rp.literals:
                    problems.append(f"{where}: path literals differ from the reference")
                    continue
                lits = ref.literals(_value_map(tree, explanation.literals))
                problems += [f"{where}: {p}" for p in ref.check_explanation(lits, rp.cls, rp.literals)]
                if verdict.redundant != (len(lits) < len(rp.literals)):
                    problems.append(f"{where}: redundancy verdict does not match the extraction")
                if verdict.redundant:
                    witness = ref.feature_index[tree.space.feature(verdict.witness).name]
                    rest = {f: m for f, m in rp.literals.items() if f != witness}
                    if witness not in rp.literals or not ref.entails(rest, rp.cls):
                        problems.append(f"{where}: witness {ref.names[witness]} cannot be dropped")
                elif verdict.witness is not None:
                    problems.append(f"{where}: irredundant path with a witness")
                if entry["kind"] == "or-chain" and rp.cls == 1:
                    last = rp.order[-1]
                    if lits != {last: rp.literals[last]} or rp.literals[last] != 0b10:
                        problems.append(f"{where}: OR-chain explanation is not {ref.names[last]}=1")
                if count != ref.point_count(rp.literals):
                    problems.append(f"{where}: point count differs from the reference")
                points += count
            if complete and points != ref.total_points():
                problems.append(f"{entry['name']}: path point counts do not partition the space")
        problems += self._check_table(refs, cli_stdout)
        return problems

    def _check_table(self, refs: dict, stdout: str) -> list[str]:
        """The text table's whole-percent columns, and the exact figures of
        the same command's JSON form."""
        dx = self.dx
        problems = []
        files = [self.file(f) for f in self.manifest["cli_trees"]]
        lines = stdout.splitlines()
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = dx.cli.run(["stats", "--format", "json", "-t", *files])
        if code != 0:
            return [f"stats --format json exited {code}"]
        reports = json.loads(buffer.getvalue())
        for name, path, report in zip(self.manifest["cli_trees"], files, reports):
            ref = refs[name]
            problems += [f"stats {name}: {p}" for p in ref.check_report(report)]
            row = next((ln.split() for ln in lines if ln.startswith(path)), None)
            pct_r = int(Fraction(report["pct_redundant"]["exact"]))  # checked above
            if row is None or row[3] != str(len(ref.paths)) or row[4] != str(pct_r):
                problems.append(f"stats {name}: table row does not show #P and %R")
        return problems


class Query(Workload):
    """Fixed instances in a seeded order: classify, extract, enumerate
    both ways."""

    name = "query"

    def prepare(self) -> None:
        make = self.dx.model.make_instance
        self.points = [
            [make(tree.space, values) for values in _load(self.file(entry["instances"]))]
            for entry, tree in zip(self.manifest["trees"], self.trees)
        ]

    def operations(self) -> list:
        dx = self.dx

        def query(tree, point):
            def op():
                cls, path = dx.model.classify(tree, point)
                one = dx.explain.one_pi_explanation_instance(tree, point)
                unrestricted = dx.hitting.enumerate_pi_explanations(
                    tree, point, dx.explain.PATH_UNRESTRICTED)
                restricted = dx.hitting.enumerate_pi_explanations(
                    tree, path, dx.explain.PATH_RESTRICTED)
                return cls, path, one, unrestricted, restricted
            return op

        ops = [
            query(tree, point)
            for tree, points in zip(self.trees, self.points)
            for point in points
        ]
        return self.seeded_order(ops)

    def cli_argv(self) -> list[str]:
        return [
            "enumerate", "-t", self.file(self.manifest["cli_tree"]),
            "--instances", self.file(self.manifest["cli_instances"]), "--format", "json",
        ]

    def check(self, outputs: list, cli_stdout: str) -> list[str]:
        problems = []
        ops = iter(self.canonical(outputs))
        for entry, tree, text, points in zip(
            self.manifest["trees"], self.trees, self.texts, self.points
        ):
            ref = RefTree(json.loads(text))
            for k, point in enumerate(points):
                out = next(ops)
                if out is None:  # failed, counted as such
                    continue
                cls, path, one, unrestricted, restricted = out
                where = f"{entry['name']}/instance#{k}"
                values = [tree.space.feature(f).domain[v] for f, v in enumerate(point)]
                problems += [f"{where}: {p}" for p in self._check_instance(
                    ref, tree, values, cls, path.leaf_id, one, unrestricted, restricted)]
        problems += self._check_cli(cli_stdout)
        return problems

    @staticmethod
    def _check_instance(ref, tree, values, cls, leaf, one, unrestricted, restricted) -> list[str]:
        point = ref.point(values)
        want_leaf = ref.classify(point)
        rp = ref.paths[ref.leaf_path[want_leaf]]
        if leaf != want_leaf or tree.classes[cls] != ref.classes[rp.cls]:
            return ["classification differs from the reference walk"]
        universe = [(f, 1 << v) for f, v in enumerate(point)]
        listed = [ref.literals(_value_map(tree, e.literals)) for e in unrestricted]
        problems = ref.check_enumeration(listed, universe, rp.cls)
        if ref.literals(_value_map(tree, one.literals)) not in listed:
            problems.append("the extracted explanation is not among the enumerated ones")
        path_universe = list(rp.literals.items())
        listed = [ref.literals(_value_map(tree, e.literals)) for e in restricted]
        problems += [f"restricted: {p}" for p in ref.check_enumeration(listed, path_universe, rp.cls)]
        return problems

    def _check_cli(self, stdout: str) -> list[str]:
        ref = RefTree(_load(self.file(self.manifest["cli_tree"])))
        with open(self.file(self.manifest["cli_instances"]), encoding="utf-8") as handle:
            rows = [line.rstrip("\n").split(",") for line in handle][1:]
        blocks = json.loads(stdout)
        if len(blocks) != len(rows):
            return ["enumerate printed a different number of blocks than instances"]
        problems = []
        for k, (values, block) in enumerate(zip(rows, blocks)):
            point = ref.point(values)
            cls = ref.paths[ref.leaf_path[ref.classify(point)]].cls
            listed = [ref.literals(m) for m in block]
            universe = [(f, 1 << v) for f, v in enumerate(point)]
            problems += [f"enumerate row {k}: {p}" for p in ref.check_enumeration(listed, universe, cls)]
        return problems


class Verify(Workload):
    """check_tree on generated small documents and on randtree's trees."""

    name = "verify"

    def setup(self) -> list:
        random_tree = self.dx.randtree.random_tree
        return super().setup() + [random_tree(s) for s in self.manifest["random_tree_seeds"]]

    def prepare(self) -> None:
        self.labels = [e["name"] for e in self.manifest["trees"]]
        self.labels += [f"random_tree({s})" for s in self.manifest["random_tree_seeds"]]

    def operations(self) -> list:
        dx = self.dx
        n = self.manifest["check_instances"]

        def verify(tree, label, seed):
            def op():
                return dx.selfcheck.check_tree(tree, random.Random(seed), n_instances=n, label=label)
            return op

        return [
            verify(tree, label, f"{self.manifest['seed']}:{label}")
            for tree, label in zip(self.trees, self.labels)
        ]

    def cli_argv(self) -> list[str]:
        return ["selftest"]

    def check(self, outputs: list, cli_stdout: str) -> list[str]:
        problems = []
        n = self.manifest["check_instances"]
        for tree, label, stats in zip(self.trees, self.labels, outputs):
            if stats is None:  # failed, counted as such
                continue
            ref = RefTree(doc_from_tree(tree))
            if (stats.trees, stats.paths, stats.instances) != (1, len(ref.paths), n):
                problems.append(f"{label}: check_tree covered the wrong paths or instances")
            if stats.max_visit_slack > 0:
                problems.append(f"{label}: redundancy node visits exceed the bound")
        # `selftest` defaults: 25 trees, 10 instances each
        pattern = r"selftest ok: 25 trees, \d+ paths, 250 instances, zero mismatches\n"
        if not re.fullmatch(pattern, cli_stdout):
            problems.append(f"unexpected selftest output {cli_stdout!r}")
        return problems


WORKLOADS = {w.name: w for w in (Audit, Query, Verify)}
