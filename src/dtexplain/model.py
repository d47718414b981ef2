"""Decision-tree data model: feature spaces, literals, paths and JSON I/O.

Trees are univariate and categorical.  Every internal node tests a single
feature; its outgoing edges carry disjoint value subsets whose union is the
feature's whole domain, so classification is total and deterministic.  A
feature may be tested more than once along a path; the path's literal for
that feature is the intersection of the edge subsets taken, and a path whose
intersection comes out empty is rejected as malformed (its leaf would be
unreachable).

All structures are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Feature",
    "FeatureSpace",
    "Instance",
    "Literal",
    "Edge",
    "Split",
    "Leaf",
    "Node",
    "TreePath",
    "DecisionTree",
    "parse_tree",
    "parse_tree_file",
    "serialize_tree",
    "classify",
    "literals_consistent",
    "instance_literals",
    "path_point_count",
    "make_instance",
    "parse_instance_json",
    "read_instances_csv",
    "TreeFormatError",
    "TreeSyntaxError",
    "TreeSchemaError",
    "UnknownFeatureError",
    "UnknownValueError",
    "UnknownClassError",
    "UnsupportedLiteralError",
    "EdgeOverlapError",
    "EdgeCoverageError",
    "DanglingChildError",
    "CycleError",
    "NotATreeError",
    "UnreachableLeafError",
    "InstanceError",
    "InconsistentLiteralsError",
    "PathMismatchError",
]


class TreeFormatError(ValueError):
    """A tree document failed to parse or validate."""


class TreeSyntaxError(TreeFormatError):
    """The document is not well-formed JSON (message carries the position)."""


class TreeSchemaError(TreeFormatError):
    """The JSON is well-formed but does not match the tree schema."""


class UnknownFeatureError(TreeFormatError):
    """A node references a feature name that is not declared."""


class UnknownValueError(TreeFormatError):
    """An edge or instance references a value outside the feature's domain."""


class UnknownClassError(TreeFormatError):
    """A leaf references a class name that is not declared."""


class UnsupportedLiteralError(TreeFormatError):
    """The document uses an ordinal split (<, <=, ...); only value-set
    edges over categorical domains are supported."""


class EdgeOverlapError(TreeFormatError):
    """Two edges of one node share a domain value."""


class EdgeCoverageError(TreeFormatError):
    """The edges of a node do not cover the tested feature's domain."""


class DanglingChildError(TreeFormatError):
    """An edge points at a node id that does not exist."""


class CycleError(TreeFormatError):
    """A node is its own ancestor."""


class NotATreeError(TreeFormatError):
    """The node graph is not a rooted tree (shared child, unreachable
    node, or an incoming edge on the root)."""


class UnreachableLeafError(TreeFormatError):
    """Some root-to-leaf path constrains a repeatedly tested feature to an
    empty value set, so no instance can reach the leaf."""


class InstanceError(ValueError):
    """An instance does not fit the feature space."""


class InconsistentLiteralsError(ValueError):
    """A literal set constrains some feature to an empty value set."""


class PathMismatchError(ValueError):
    """A path object was passed to an operation on a different tree."""


@dataclass(frozen=True)
class Feature:
    """One categorical feature: a name plus an ordered domain of values."""

    index: int
    name: str
    domain: tuple[str, ...]

    def value_index(self, value: str) -> int:
        try:
            return self.domain.index(value)
        except ValueError:
            raise UnknownValueError(
                f"feature {self.name!r} has no value {value!r}"
            ) from None

    def all_values(self) -> frozenset[int]:
        return frozenset(range(len(self.domain)))


class FeatureSpace:
    """An ordered list of features; the cartesian product of their domains."""

    def __init__(self, features: Iterable[Feature]):
        self.features: tuple[Feature, ...] = tuple(features)
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise TreeSchemaError("duplicate feature name")
        for i, f in enumerate(self.features):
            if f.index != i:
                raise TreeSchemaError("feature indices must match their order")
            if len(f.domain) < 2:
                raise TreeSchemaError(
                    f"feature {f.name!r} needs at least two domain values"
                )
            if len(set(f.domain)) != len(f.domain):
                raise TreeSchemaError(f"duplicate value in domain of {f.name!r}")
        self._by_name = {f.name: f for f in self.features}

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Sequence[str]]]) -> "FeatureSpace":
        return cls(
            Feature(i, name, tuple(domain)) for i, (name, domain) in enumerate(pairs)
        )

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self):
        return iter(self.features)

    def feature(self, index: int) -> Feature:
        return self.features[index]

    def feature_by_name(self, name: str) -> Feature:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownFeatureError(f"unknown feature {name!r}") from None

    def point_count(self) -> int:
        """Exact number of points in the space (1 for an empty space)."""
        return math.prod(len(f.domain) for f in self.features)

    def points(self):
        """Iterate all points of the space as value-index tuples."""
        import itertools

        return itertools.product(*(range(len(f.domain)) for f in self.features))


Instance = tuple  # value index per feature, in feature order


def make_instance(space: FeatureSpace, values: Sequence) -> Instance:
    """Validate a sequence of value names (or indices) as a space point."""
    if len(values) != len(space):
        raise InstanceError(
            f"expected {len(space)} values, got {len(values)}"
        )
    out = []
    for feat, val in zip(space.features, values):
        if isinstance(val, str):
            idx = feat.value_index(val)
        else:
            idx = int(val)
            if not 0 <= idx < len(feat.domain):
                raise InstanceError(
                    f"value index {idx} out of range for feature {feat.name!r}"
                )
        out.append(idx)
    return tuple(out)


def parse_instance_json(space: FeatureSpace, text: str) -> Instance:
    """Parse a JSON array of value strings in feature order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid instance JSON: {exc.msg}") from None
    if not isinstance(doc, list) or not all(isinstance(v, str) for v in doc):
        raise InstanceError("instance must be a JSON array of value strings")
    return make_instance(space, doc)


def read_instances_csv(space: FeatureSpace, path: str) -> list[Instance]:
    """Read instances from a CSV file whose header names the features."""
    import csv

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InstanceError(f"{path}: empty CSV file") from None
        expected = [f.name for f in space.features]
        if sorted(header) != sorted(expected):
            raise InstanceError(
                f"{path}: CSV header {header} does not name the features {expected}"
            )
        order = [header.index(name) for name in expected]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise InstanceError(f"{path}:{lineno}: wrong number of columns")
            rows.append(make_instance(space, [row[i] for i in order]))
    return rows


@dataclass(frozen=True)
class Literal:
    """A feature paired with the set of values it is allowed to take.

    An equality literal has a singleton allowed set; a negated or
    generalized literal allows several values of the domain.
    """

    feature: int
    allowed: frozenset[int]

    def __post_init__(self):
        if not self.allowed:
            raise InconsistentLiteralsError("literal with empty allowed set")

    def sort_key(self) -> tuple:
        return (self.feature, tuple(sorted(self.allowed)))

    def render(self, space: FeatureSpace) -> str:
        feat = space.feature(self.feature)
        names = [feat.domain[i] for i in sorted(self.allowed)]
        if len(names) == 1:
            return f"{feat.name}={names[0]}"
        return f"{feat.name} in {{{','.join(names)}}}"


def literals_consistent(a: Literal, b: Literal) -> bool:
    """Two literals conflict only when they pin the same feature to
    disjoint value sets."""
    return a.feature != b.feature or bool(a.allowed & b.allowed)


def instance_literals(space: FeatureSpace, point: Instance) -> tuple[Literal, ...]:
    """The equality literals of a point, one per feature in feature order."""
    return tuple(
        Literal(feat.index, frozenset({value}))
        for feat, value in zip(space.features, point)
    )


@dataclass(frozen=True)
class Edge:
    values: frozenset[int]
    child: str


@dataclass(frozen=True)
class Split:
    feature: int
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class Leaf:
    class_id: int


Node = Split | Leaf


@dataclass(frozen=True, eq=False)
class TreePath:
    """A root-to-leaf path with its aggregated literal set.

    ``node_ids``/``node_features``/``node_values`` record the internal
    nodes in root-first order together with the feature tested and the
    edge value set taken at each; a repeatedly tested feature therefore
    keeps one record per node while ``literals`` holds the single
    aggregated literal.
    """

    tree: "DecisionTree" = field(repr=False)
    path_id: str
    node_ids: tuple[str, ...]
    node_features: tuple[int, ...]
    node_values: tuple[frozenset[int], ...]
    node_edge_index: tuple[int, ...]
    leaf_id: str
    prediction: int
    literals: tuple[Literal, ...]

    @property
    def depth(self) -> int:
        return len(self.node_ids)

    @property
    def literal_map(self) -> dict[int, frozenset[int]]:
        return {lit.feature: lit.allowed for lit in self.literals}

    def literal_set(self) -> frozenset[Literal]:
        return frozenset(self.literals)

    def class_name(self) -> str:
        return self.tree.classes[self.prediction]

    def render(self) -> str:
        body = ", ".join(lit.render(self.tree.space) for lit in self.literals)
        return f"{self.path_id}: {{{body}}} -> {self.class_name()}"


class DecisionTree:
    """A validated decision tree over a categorical feature space.

    Construction checks every structural invariant (edge partitioning,
    rooted tree shape, reachable leaves) and enumerates the root-to-leaf
    paths once; the instance is immutable afterwards.
    """

    def __init__(
        self,
        space: FeatureSpace,
        classes: Sequence[str],
        root: str,
        nodes: Mapping[str, Node],
    ):
        self.space = space
        self.classes: tuple[str, ...] = tuple(classes)
        if not self.classes:
            raise TreeSchemaError("a tree needs at least one class")
        if len(set(self.classes)) != len(self.classes):
            raise TreeSchemaError("duplicate class name")
        self.root = root
        self.nodes: dict[str, Node] = dict(nodes)
        self._validate_nodes()
        self._validate_shape()
        self._paths = self._build_paths()
        self._path_by_id = {p.path_id: p for p in self._paths}
        self._path_by_leaf = {p.leaf_id: p for p in self._paths}

    # -- validation -------------------------------------------------------

    def _validate_nodes(self) -> None:
        if self.root not in self.nodes:
            raise DanglingChildError(f"root node {self.root!r} does not exist")
        for node_id, node in self.nodes.items():
            if isinstance(node, Leaf):
                if not 0 <= node.class_id < len(self.classes):
                    raise UnknownClassError(
                        f"node {node_id!r}: class id {node.class_id} out of range"
                    )
                continue
            if not 0 <= node.feature < len(self.space):
                raise UnknownFeatureError(
                    f"node {node_id!r}: feature index {node.feature} out of range"
                )
            feat = self.space.feature(node.feature)
            if not node.edges:
                raise EdgeCoverageError(f"node {node_id!r} has no edges")
            seen: set[int] = set()
            for edge in node.edges:
                if not edge.values:
                    raise TreeSchemaError(f"node {node_id!r}: edge with no values")
                bad = [v for v in edge.values if not 0 <= v < len(feat.domain)]
                if bad:
                    raise UnknownValueError(
                        f"node {node_id!r}: value index {bad[0]} outside the "
                        f"domain of {feat.name!r}"
                    )
                if seen & edge.values:
                    raise EdgeOverlapError(
                        f"node {node_id!r}: non-disjoint edges on {feat.name!r}"
                    )
                seen |= edge.values
                if edge.child not in self.nodes:
                    raise DanglingChildError(
                        f"node {node_id!r}: child {edge.child!r} does not exist"
                    )
            if seen != set(range(len(feat.domain))):
                missing = sorted(set(range(len(feat.domain))) - seen)
                names = ", ".join(feat.domain[v] for v in missing)
                raise EdgeCoverageError(
                    f"node {node_id!r}: non-covering edges on {feat.name!r} "
                    f"(missing {names})"
                )

    def _validate_shape(self) -> None:
        parents: dict[str, str] = {}
        for node_id, node in self.nodes.items():
            if isinstance(node, Leaf):
                continue
            for edge in node.edges:
                if edge.child == self.root:
                    raise NotATreeError("root has an incoming edge")
                if edge.child in parents:
                    raise NotATreeError(
                        f"node {edge.child!r} has more than one parent"
                    )
                parents[edge.child] = node_id
        # a parent chain that revisits a node is a cycle
        for node_id in self.nodes:
            seen = {node_id}
            cur = node_id
            while cur in parents:
                cur = parents[cur]
                if cur in seen:
                    raise CycleError(f"node {cur!r} is its own ancestor")
                seen.add(cur)
        reachable = {self.root} | set(parents)
        unreachable = sorted(set(self.nodes) - reachable)
        if unreachable:
            raise NotATreeError(f"unreachable node {unreachable[0]!r}")

    # -- path enumeration --------------------------------------------------

    def _build_paths(self) -> tuple[TreePath, ...]:
        records = []  # (node ids, features, values, edge indices, leaf, class)
        stack = [(self.root, (), (), (), ())]
        while stack:
            node_id, ids, feats, vals, eidx = stack.pop()
            node = self.nodes[node_id]
            if isinstance(node, Leaf):
                records.append((ids, feats, vals, eidx, node_id, node.class_id))
                continue
            # push in reverse so edges pop in declaration order
            for i in range(len(node.edges) - 1, -1, -1):
                edge = node.edges[i]
                stack.append(
                    (
                        edge.child,
                        ids + (node_id,),
                        feats + (node.feature,),
                        vals + (edge.values,),
                        eidx + (i,),
                    )
                )
        counters = [0] * len(self.classes)
        paths = []
        for ids, feats, vals, eidx, leaf_id, class_id in records:
            aggregated: dict[int, frozenset[int]] = {}
            order: list[int] = []
            for f, v in zip(feats, vals):
                if f in aggregated:
                    aggregated[f] = aggregated[f] & v
                else:
                    aggregated[f] = v
                    order.append(f)
            for f in order:
                if not aggregated[f]:
                    raise UnreachableLeafError(
                        f"leaf {leaf_id!r} is unreachable: repeated tests of "
                        f"{self.space.feature(f).name!r} leave no allowed value"
                    )
            counters[class_id] += 1
            paths.append(
                TreePath(
                    tree=self,
                    path_id=self._path_prefix(class_id) + str(counters[class_id]),
                    node_ids=ids,
                    node_features=feats,
                    node_values=vals,
                    node_edge_index=eidx,
                    leaf_id=leaf_id,
                    prediction=class_id,
                    literals=tuple(Literal(f, aggregated[f]) for f in order),
                )
            )
        return tuple(paths)

    def _path_prefix(self, class_id: int) -> str:
        """Paths of the second class are P1.., the first class Q1.. (the
        usual plus/minus reading of a binary tree); further classes get a
        C<id>- prefix."""
        if class_id == 1:
            return "P"
        if class_id == 0:
            return "Q"
        return f"C{class_id}-"

    # -- accessors ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        """Maximum number of internal nodes on any root-to-leaf path."""
        return max(p.depth for p in self._paths)

    @property
    def paths(self) -> tuple[TreePath, ...]:
        return self._paths

    def path(self, path_id: str) -> TreePath:
        try:
            return self._path_by_id[path_id]
        except KeyError:
            raise PathMismatchError(f"no path named {path_id!r}") from None

    def paths_for_class(self, class_id: int) -> tuple[TreePath, ...]:
        return tuple(p for p in self._paths if p.prediction == class_id)

    def contrary_paths(self, class_id: int) -> tuple[TreePath, ...]:
        """Paths predicting any class other than ``class_id``."""
        return tuple(p for p in self._paths if p.prediction != class_id)

    def class_id(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise UnknownClassError(f"unknown class {name!r}") from None

    def check_owns(self, path: TreePath) -> None:
        if path.tree is not self:
            raise PathMismatchError(
                f"path {path.path_id!r} belongs to a different tree"
            )


def classify(tree: DecisionTree, instance: Instance) -> tuple[int, TreePath]:
    """Route an instance to its unique leaf; returns (class id, path)."""
    if len(instance) != len(tree.space):
        raise InstanceError(
            f"expected {len(tree.space)} values, got {len(instance)}"
        )
    for feat, val in zip(tree.space.features, instance):
        if not 0 <= val < len(feat.domain):
            raise InstanceError(
                f"value index {val} out of range for feature {feat.name!r}"
            )
    node_id = tree.root
    while True:
        node = tree.nodes[node_id]
        if isinstance(node, Leaf):
            path = tree._path_by_leaf[node_id]
            return node.class_id, path
        value = instance[node.feature]
        for edge in node.edges:
            if value in edge.values:
                node_id = edge.child
                break


def path_point_count(space: FeatureSpace, literals: Iterable[Literal]) -> int:
    """Exact number of space points consistent with a literal set."""
    allowed: dict[int, frozenset[int]] = {}
    for lit in literals:
        if lit.feature in allowed:
            allowed[lit.feature] = allowed[lit.feature] & lit.allowed
        else:
            allowed[lit.feature] = lit.allowed
    count = 1
    for feat in space.features:
        sub = allowed.get(feat.index)
        if sub is None:
            count *= len(feat.domain)
        elif not sub:
            raise InconsistentLiteralsError(
                f"literals constrain {feat.name!r} to no value at all"
            )
        else:
            count *= len(sub)
    return count


# -- JSON tree format -------------------------------------------------------

_ORDINAL_KEYS = {"op", "operator", "threshold", "cmp", "split"}


def _require_keys(obj: Mapping, keys: set[str], what: str) -> None:
    if not isinstance(obj, Mapping):
        raise TreeSchemaError(f"{what} must be a JSON object")
    extra = set(obj) - keys
    if extra & _ORDINAL_KEYS:
        raise UnsupportedLiteralError(
            f"unsupported literal kind: {what} carries an ordinal split "
            f"({sorted(extra & _ORDINAL_KEYS)[0]!r}); only categorical "
            "value-set edges are supported"
        )
    if extra:
        raise TreeSchemaError(f"{what}: unknown key {sorted(extra)[0]!r}")
    missing = keys - set(obj)
    if missing:
        raise TreeSchemaError(f"{what}: missing key {sorted(missing)[0]!r}")


def parse_tree(text: str) -> DecisionTree:
    """Parse and validate the JSON tree format.

    The document is an object with ``features`` (list of ``{name, domain}``),
    ``classes`` (list of class names), ``root`` (node id) and ``nodes``
    (map from node id to either ``{"leaf": class}`` or
    ``{"feature": name, "edges": [{"values": [...], "child": id}, ...]}``).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeSyntaxError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    _require_keys(doc, {"features", "classes", "root", "nodes"}, "tree document")

    if not isinstance(doc["features"], list):
        raise TreeSchemaError("'features' must be a list")
    feats = []
    for i, item in enumerate(doc["features"]):
        _require_keys(item, {"name", "domain"}, f"feature #{i}")
        name, domain = item["name"], item["domain"]
        if not isinstance(name, str):
            raise TreeSchemaError(f"feature #{i}: name must be a string")
        if not isinstance(domain, list) or not all(
            isinstance(v, str) for v in domain
        ):
            raise TreeSchemaError(f"feature #{i}: domain must be a list of strings")
        feats.append(Feature(i, name, tuple(domain)))
    space = FeatureSpace(feats)

    classes = doc["classes"]
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise TreeSchemaError("'classes' must be a list of strings")

    if not isinstance(doc["root"], str):
        raise TreeSchemaError("'root' must be a node id string")
    if not isinstance(doc["nodes"], Mapping):
        raise TreeSchemaError("'nodes' must be an object")

    nodes: dict[str, Node] = {}
    for node_id, obj in doc["nodes"].items():
        if not isinstance(obj, Mapping):
            raise TreeSchemaError(f"node {node_id!r} must be a JSON object")
        if "leaf" in obj:
            _require_keys(obj, {"leaf"}, f"leaf node {node_id!r}")
            if not isinstance(obj["leaf"], str):
                raise TreeSchemaError(f"node {node_id!r}: leaf class must be a string")
            if obj["leaf"] not in classes:
                raise UnknownClassError(
                    f"node {node_id!r}: unknown class {obj['leaf']!r}"
                )
            nodes[node_id] = Leaf(classes.index(obj["leaf"]))
            continue
        _require_keys(obj, {"feature", "edges"}, f"node {node_id!r}")
        if not isinstance(obj["feature"], str):
            raise TreeSchemaError(f"node {node_id!r}: feature must be a name string")
        feat = space.feature_by_name(obj["feature"])
        if not isinstance(obj["edges"], list):
            raise TreeSchemaError(f"node {node_id!r}: edges must be a list")
        edges = []
        for j, eobj in enumerate(obj["edges"]):
            _require_keys(eobj, {"values", "child"}, f"node {node_id!r} edge #{j}")
            values = eobj["values"]
            if not isinstance(values, list) or not all(
                isinstance(v, str) for v in values
            ):
                raise TreeSchemaError(
                    f"node {node_id!r} edge #{j}: values must be a list of strings"
                )
            if len(set(values)) != len(values):
                raise TreeSchemaError(
                    f"node {node_id!r} edge #{j}: duplicate value"
                )
            if not isinstance(eobj["child"], str):
                raise TreeSchemaError(
                    f"node {node_id!r} edge #{j}: child must be a node id string"
                )
            edges.append(
                Edge(frozenset(feat.value_index(v) for v in values), eobj["child"])
            )
        nodes[node_id] = Split(feat.index, tuple(edges))

    return DecisionTree(space, classes, doc["root"], nodes)


def parse_tree_file(path: str) -> DecisionTree:
    with open(path, encoding="utf-8") as handle:
        try:
            return parse_tree(handle.read())
        except TreeFormatError as exc:
            raise type(exc)(f"{path}: {exc}") from None


def serialize_tree(tree: DecisionTree) -> str:
    """Emit the JSON tree format; parsing it back yields an isomorphic tree."""
    obj = {
        "features": [
            {"name": f.name, "domain": list(f.domain)} for f in tree.space.features
        ],
        "classes": list(tree.classes),
        "root": tree.root,
        "nodes": {},
    }
    for node_id, node in tree.nodes.items():
        if isinstance(node, Leaf):
            obj["nodes"][node_id] = {"leaf": tree.classes[node.class_id]}
        else:
            feat = tree.space.feature(node.feature)
            obj["nodes"][node_id] = {
                "feature": feat.name,
                "edges": [
                    {
                        "values": [feat.domain[v] for v in sorted(edge.values)],
                        "child": edge.child,
                    }
                    for edge in node.edges
                ],
            }
    return json.dumps(obj, indent=2) + "\n"
