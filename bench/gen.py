"""Seeded input generator for the benchmark workloads.

Writes tree documents (the package's JSON tree format), instance files
and a ``manifest.json`` describing them into an output directory.  It
uses only the standard library and never imports the package, so the
program under test receives nothing but these files.  The same
``--seed`` always gives byte-identical files.

    python3 bench/gen.py --workload audit --seed 1 --out .bench_out/audit-1
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random

DOMAIN = ("a", "b", "c", "d")
FOREST_FEATURES = 30

# (name, target node count, number of classes); the CLI slice is bushy-d
# and the OR-chain
AUDIT_BUSHY = (
    ("bushy-a", 4000, 2),
    ("bushy-b", 2000, 3),
    ("bushy-c", 1200, 2),
    ("bushy-d", 1000, 3),
)
# (name, depth) of chains with random leaf classes over the forest's space
AUDIT_CHAINS = (("chain-a", 60), ("chain-b", 88))
OR_CHAIN_DEPTH = 48

QUERY_TREES = 12  # alternately two-class and three-class
QUERY_TREE_NODES = 700
QUERY_INSTANCES = 120  # per tree
QUERY_CLI_INSTANCES = 30  # the slice `enumerate --instances` runs on

VERIFY_DOCS = 16  # small tree documents within the oracle's budget
VERIFY_RANDOM_TREES = 400  # randtree.random_tree(0), random_tree(1), ...
VERIFY_INSTANCES = 4  # check_tree instances per tree


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _seeded_order(rng: random.Random, sizes: list[int]) -> list[int]:
    """A permutation of the operations of consecutive blocks of the given
    sizes (one block per tree): the blocks in a random order, each block's
    operations in a random order within it, so a tree's operations still
    run back to back."""
    offsets = [sum(sizes[:t]) for t in range(len(sizes))]
    return [
        offsets[t] + k
        for t in rng.sample(range(len(sizes)), len(sizes))
        for k in rng.sample(range(sizes[t]), sizes[t])
    ]


def _partition(rng: random.Random, domain_size: int, allowed: list[int]) -> list[list[int]]:
    """Split the whole domain into two or three disjoint cells that each
    keep at least one value of ``allowed``, so no branch is unreachable."""
    anchors = list(allowed)
    rng.shuffle(anchors)
    n_cells = rng.randint(2, min(3, len(anchors)))
    cells = [[a] for a in anchors[:n_cells]]
    for value in range(domain_size):
        if not any(value in c for c in cells):
            cells[rng.randrange(n_cells)].append(value)
    return [sorted(c) for c in cells]


def bushy_tree(rng: random.Random, n_features: int, target_nodes: int, n_classes: int) -> dict:
    """Grow a tree by splitting random frontier leaves until it has at
    least ``target_nodes`` nodes.  Edges carry one or more values, and a
    branch re-tests a feature it has already tested about a third of the
    time."""
    features = [f"x{i + 1}" for i in range(n_features)]
    nodes: dict[str, dict] = {}
    # frontier entries: (node id, allowed values per feature, tested features)
    full = {f: list(range(len(DOMAIN))) for f in range(n_features)}
    frontier = [("n0", full, ())]
    count = 1
    next_id = 1
    while frontier and count < target_nodes:
        node_id, allowed, tested = frontier.pop(rng.randrange(len(frontier)))
        retest = [f for f in tested if len(allowed[f]) >= 2]
        fresh = [f for f in range(n_features) if f not in tested]
        pool = retest if retest and (rng.random() < 0.33 or not fresh) else fresh
        if not pool:
            nodes[node_id] = {"leaf": str(rng.randrange(n_classes))}
            continue
        feature = rng.choice(pool)
        edges = []
        for cell in _partition(rng, len(DOMAIN), allowed[feature]):
            child = f"n{next_id}"
            next_id += 1
            narrowed = dict(allowed)
            narrowed[feature] = [v for v in allowed[feature] if v in cell]
            frontier.append((child, narrowed, tested + (feature,)))
            edges.append({"values": [DOMAIN[v] for v in cell], "child": child})
        count += len(edges)
        nodes[node_id] = {"feature": features[feature], "edges": edges}
    for node_id, _, _ in frontier:
        nodes[node_id] = {"leaf": str(rng.randrange(n_classes))}
    return _document(features, n_classes, nodes)


def random_chain(rng: random.Random, n_features: int, depth: int) -> dict:
    """A caterpillar: each split sends one cell to a leaf and the rest on.
    Features are re-tested while they keep two or more allowed values."""
    features = [f"x{i + 1}" for i in range(n_features)]
    allowed = {f: list(range(len(DOMAIN))) for f in range(n_features)}
    nodes: dict[str, dict] = {}
    for k in range(depth):
        splittable = [f for f in range(n_features) if len(allowed[f]) >= 2]
        feature = rng.choice(splittable)
        leaf_values = [rng.choice(allowed[feature])]
        leaf_cell = [v for v in range(len(DOMAIN)) if v in leaf_values or
                     (v not in allowed[feature] and rng.random() < 0.5)]
        rest = [v for v in range(len(DOMAIN)) if v not in leaf_cell]
        allowed[feature] = [v for v in allowed[feature] if v in rest]
        leaf_id, next_id = f"l{k}", f"c{k + 1}"
        edges = [
            {"values": [DOMAIN[v] for v in leaf_cell], "child": leaf_id},
            {"values": [DOMAIN[v] for v in rest], "child": next_id},
        ]
        if rng.random() < 0.5:
            edges.reverse()
        nodes[f"c{k}"] = {"feature": features[feature], "edges": edges}
        nodes[leaf_id] = {"leaf": str(rng.randrange(2))}
    nodes[f"c{depth}"] = {"leaf": str(rng.randrange(2))}
    doc = _document(features, 2, nodes)
    doc["root"] = "c0"
    return doc


def or_chain(depth: int) -> dict:
    """The paper's worst case: x1 or x2 or ... over binary features.  Node
    k tests x_k; value 1 leads to a class-1 leaf, value 0 to the next test.
    The class-1 path ending at x_k has x_k=1 as its only PI-explanation."""
    features = [f"x{i + 1}" for i in range(depth)]
    nodes: dict[str, dict] = {}
    for k in range(depth):
        nxt = f"c{k + 1}" if k + 1 < depth else "none"
        nodes[f"c{k}"] = {
            "feature": features[k],
            "edges": [
                {"values": ["0"], "child": nxt},
                {"values": ["1"], "child": f"hit{k + 1}"},
            ],
        }
        nodes[f"hit{k + 1}"] = {"leaf": "1"}
    nodes["none"] = {"leaf": "0"}
    return {
        "features": [{"name": f, "domain": ["0", "1"]} for f in features],
        "classes": ["0", "1"],
        "root": "c0",
        "nodes": nodes,
    }


def _document(features: list[str], n_classes: int, nodes: dict) -> dict:
    return {
        "features": [{"name": f, "domain": list(DOMAIN)} for f in features],
        "classes": [str(c) for c in range(n_classes)],
        "root": "n0",
        "nodes": nodes,
    }


def _instances(rng: random.Random, doc: dict, n: int) -> list[list[str]]:
    return [
        [rng.choice(f["domain"]) for f in doc["features"]] for _ in range(n)
    ]


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)
        handle.write("\n")


def generate(workload: str, seed: int, out: str) -> dict:
    """Write one workload's inputs under ``out`` and return its manifest."""
    os.makedirs(out, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed, "trees": []}

    def add_tree(name: str, doc: dict, kind: str) -> dict:
        file = f"{name}.json"
        _write_json(os.path.join(out, file), doc)
        entry = {"name": name, "file": file, "kind": kind}
        manifest["trees"].append(entry)
        return entry

    if workload == "audit":
        # The forest is the same for every seed; the seed draws the order
        # of the trees and of each tree's paths.  With seeded trees, the
        # 90th percentile of one path's audit time moved by about 5 % from
        # seed to seed.
        docs = [bushy_tree(_rng("audit", name), FOREST_FEATURES, size, n_classes)
                for name, size, n_classes in AUDIT_BUSHY]
        for (name, _, _), doc in zip(AUDIT_BUSHY, docs):
            add_tree(name, doc, "bushy")
        for name, depth in AUDIT_CHAINS:
            docs.append(random_chain(_rng("audit", name), FOREST_FEATURES, depth))
            add_tree(name, docs[-1], "chain")
        docs.append(or_chain(OR_CHAIN_DEPTH))
        add_tree("or-chain", docs[-1], "or-chain")
        manifest["cli_trees"] = ["bushy-d.json", "or-chain.json"]
        # one operation per path, and a tree has one path per leaf
        leaves = [sum("leaf" in node for node in doc["nodes"].values()) for doc in docs]
        manifest["order"] = _seeded_order(_rng(seed, "order"), leaves)
    elif workload == "query":
        # The trees and instances are the same for every seed; the seed
        # draws the order of the trees and of each tree's instances.  One
        # instance's enumeration time is heavy-tailed (the slowest 1 % of a
        # round take a sixth of its time), so a seeded draw of the
        # instances moved a round's time by about 4 % from seed to seed.
        docs = []
        for i in range(QUERY_TREES):
            name = f"query-{i}"
            doc = bushy_tree(_rng("query", name), FOREST_FEATURES, QUERY_TREE_NODES, 2 + i % 2)
            docs.append(doc)
            entry = add_tree(name, doc, "bushy")
            points = _instances(_rng("query", name, "instances"), doc, QUERY_INSTANCES)
            entry["instances"] = f"{name}.instances.json"
            _write_json(os.path.join(out, entry["instances"]), points)
        manifest["order"] = _seeded_order(_rng(seed, "order"), [QUERY_INSTANCES] * QUERY_TREES)
        first = manifest["trees"][0]
        points = _instances(_rng("query", "cli"), docs[0], QUERY_CLI_INSTANCES)
        with open(os.path.join(out, "cli.csv"), "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow([f"x{i + 1}" for i in range(FOREST_FEATURES)])
            writer.writerows(points)
        manifest["cli_tree"] = first["file"]
        manifest["cli_instances"] = "cli.csv"
    elif workload == "verify":
        for i in range(VERIFY_DOCS):
            rng = _rng(seed, "doc", i)
            # at most 4**6 points, well within the oracle's budget
            n_features = rng.randint(3, 6)
            doc = bushy_tree(rng, n_features, rng.randint(12, 40), 3 if i % 4 == 0 else 2)
            add_tree(f"small-{i}", doc, "small")
        manifest["random_tree_seeds"] = list(range(VERIFY_RANDOM_TREES))
        manifest["check_instances"] = VERIFY_INSTANCES
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("audit", "query", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
