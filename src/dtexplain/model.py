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

import csv
import functools
import io
import itertools
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
        self._sizes = tuple(len(f.domain) for f in self.features)
        # each feature's whole-domain value mask, shared by every tree over
        # the space: callers copy it before narrowing a mask
        self._full = [(1 << size) - 1 for size in self._sizes]
        self._points = math.prod(self._sizes)

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
        return self._points

    def points(self):
        """Iterate all points of the space as value-index tuples."""
        return itertools.product(*map(range, self._sizes))


Instance = tuple  # value index per feature, in feature order


def _check_point(space: FeatureSpace, point: Instance) -> None:
    """Raise InstanceError unless ``point`` holds one in-domain value index
    per feature."""
    if len(point) != len(space):
        raise InstanceError(f"expected {len(space)} values, got {len(point)}")
    for feat, val, size in zip(space.features, point, space._sizes):
        if not (isinstance(val, int) and 0 <= val < size):
            raise InstanceError(
                f"value index {val!r} out of range for feature {feat.name!r}"
            )


def make_instance(space: FeatureSpace, values: Sequence) -> Instance:
    """Validate a sequence of value names (or indices) as a space point."""
    point = tuple(
        feat.value_index(val) if isinstance(val, str) else val
        for feat, val in zip(space.features, values)
    )
    _check_point(space, point + tuple(values[len(point) :]))  # zip drops extras
    return point


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """An object's members as a dict; a key given twice raises ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {max(keys, key=keys.count)!r}")
    return obj


def _load_json(text: str, error: type[ValueError], what: str, located: bool, hook=None):
    """Decode a JSON document, raising ``error`` with an ``invalid {what}``
    message for a syntax error (at its line and column, if ``located``),
    nesting too deep for the decoder, or any other decoder ``ValueError``,
    such as an integer over ``sys.get_int_max_str_digits()`` digits or one
    raised by ``hook``, the decoder's ``object_pairs_hook``."""
    try:
        return json.loads(text, object_pairs_hook=hook)
    except json.JSONDecodeError as exc:
        at = f" at line {exc.lineno}, column {exc.colno}" if located else ""
        raise error(f"invalid {what}{at}: {exc.msg}") from None
    except RecursionError:
        raise error(f"invalid {what}: nested too deeply") from None
    except ValueError as exc:
        raise error(f"invalid {what}: {exc}") from None


def parse_instance_json(space: FeatureSpace, text: str) -> Instance:
    """Parse a JSON array of value strings in feature order."""
    doc = _load_json(text, InstanceError, "instance JSON", located=False)
    if not isinstance(doc, list) or not all(isinstance(v, str) for v in doc):
        raise InstanceError("instance must be a JSON array of value strings")
    return make_instance(space, doc)


def read_instances_csv(space: FeatureSpace, path: str) -> list[Instance]:
    """Read instances from a CSV file whose header names the features.
    Blank lines are skipped, and so is a leading byte order mark."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        # not "utf-8-sig": its error offsets would not count the mark
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InstanceError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    filled = (row for row in reader if row)  # a blank line reads as []
    try:
        header = next(filled, None)
        if header is None:
            raise InstanceError(f"{path}: empty CSV file")
        expected = [f.name for f in space.features]
        if sorted(header) != sorted(expected):
            raise InstanceError(
                f"{path}: CSV header {header} does not name the features {expected}"
            )
        order = [header.index(name) for name in expected]
        rows = []
        for row in filled:
            try:
                if len(row) != len(header):
                    raise InstanceError("wrong number of columns")
                rows.append(make_instance(space, [row[i] for i in order]))
            except (InstanceError, UnknownValueError) as exc:
                raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
    except csv.Error as exc:
        raise InstanceError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


@dataclass(frozen=True, slots=True)
class Literal:
    """A feature and the values it may take, as an int value mask (bit
    ``v`` for value index ``v``): one bit for an equality literal, several
    for a negated or generalized one.  Equality, hashing and the repr come
    from ``(feature, mask)``; :attr:`allowed` derives the value set for
    rendering."""

    feature: int
    mask: int

    def __post_init__(self):
        if not isinstance(self.mask, int):
            raise TypeError(f"a literal takes an int value mask, not {self.mask!r}")
        if self.mask <= 0:
            raise InconsistentLiteralsError("literal with empty allowed set")

    @property
    def allowed(self) -> frozenset[int]:
        return _bits(self.mask)

    def names(self, space: FeatureSpace) -> tuple[str, list[str]]:
        """The feature's name and the allowed values' names, in domain order."""
        feat = space.feature(self.feature)
        return feat.name, [feat.domain[v] for v in sorted(self.allowed)]

    def render(self, space: FeatureSpace) -> str:
        name, values = self.names(space)
        if len(values) == 1:
            return f"{name}={values[0]}"
        return f"{name} in {{{','.join(values)}}}"


def _mask(values: Iterable[int]) -> int:
    """The int bitmask of a set of value indices."""
    return sum(map((1).__lshift__, values))


def _bits(mask: int) -> frozenset[int]:
    """The indices of the bits set in ``mask``."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


@functools.cache
def _equality_literal(feature: int, value: int) -> Literal:
    """One literal per (feature, value) index pair, shared by every space.
    Callers check the point first, so the cache holds at most (widest
    space) x (largest domain) entries."""
    return Literal(feature, 1 << value)


def _point_literals(point: Instance) -> tuple[Literal, ...]:
    """:func:`instance_literals` of a point that is already checked."""
    return tuple(map(_equality_literal, range(len(point)), point))


def _check_in_space(
    full: list[int], literals: Iterable[Literal]
) -> tuple[Literal, ...]:
    """The literals, after checking that each names a feature index of the
    space and only values of its domain; ``full`` holds each feature's
    whole-domain value mask."""
    literals = tuple(literals)
    for lit in literals:
        if not 0 <= lit.feature < len(full) or lit.mask > full[lit.feature]:
            raise ValueError(f"{lit!r} lies outside the feature space")
    return literals


def _check_literal_set(
    full: list[int], literals: Iterable[Literal]
) -> tuple[Literal, ...]:
    """:func:`_check_in_space`, and at most one literal per feature, as an
    entailment query and an enumeration universe need."""
    literals = _check_in_space(full, literals)
    features = [lit.feature for lit in literals]
    if len(set(features)) < len(features):
        repeated = max(features, key=features.count)
        raise ValueError(f"more than one literal for feature index {repeated}")
    return literals


def instance_literals(space: FeatureSpace, point: Instance) -> tuple[Literal, ...]:
    """The equality literals of a point, one per feature in feature order;
    equal points get the same literal objects."""
    _check_point(space, point)
    return _point_literals(point)


@dataclass(frozen=True, slots=True)
class Edge:
    values: frozenset[int]
    child: str


@dataclass(frozen=True, slots=True)
class Split:
    feature: int
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class Leaf:
    class_id: int


Node = Split | Leaf


@dataclass(frozen=True, eq=False, slots=True)
class TreePath:
    """A root-to-leaf path with its aggregated literal set.

    ``literals`` holds one aggregated literal per tested feature, in order
    of first test; paths below a common node share their ``Literal``
    objects.  ``leaf`` is the leaf's node number in the tree's lowered
    form, where nodes are numbered in preorder, and ``depth`` counts the
    internal nodes on the path.  The nodes themselves are not stored: the
    tree's parent list leads back from ``leaf``.
    """

    tree: "DecisionTree" = field(repr=False)
    path_id: str
    leaf: int
    prediction: int
    literals: tuple[Literal, ...]
    depth: int

    @property
    def leaf_id(self) -> str:
        return self.tree._ids[self.leaf]

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
    rooted tree shape, reachable leaves), enumerates the root-to-leaf
    paths once and, in the same pass, lowers the tree to the integer node
    numbers and int value masks that the lookups and :func:`classify` run
    on; the instance is immutable afterwards.
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
        self._full = space._full
        self._paths = self._build_paths(self._validate_nodes())
        self._path_by_id = {p.path_id: p for p in self._paths}

    # -- validation -------------------------------------------------------

    def _validate_nodes(self) -> dict[str, str]:
        """Check each node and edge target; returns each child's parent."""
        if self.root not in self.nodes:
            raise DanglingChildError(f"root node {self.root!r} does not exist")
        parents: dict[str, str] = {}
        clash = None  # a second parent or an edge into the root, raised last
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
                if clash is None:
                    if edge.child == self.root:
                        clash = "root has an incoming edge"
                    elif edge.child in parents:
                        clash = f"node {edge.child!r} has more than one parent"
                parents[edge.child] = node_id
            if seen != set(range(len(feat.domain))):
                missing = sorted(set(range(len(feat.domain))) - seen)
                names = ", ".join(feat.domain[v] for v in missing)
                raise EdgeCoverageError(
                    f"node {node_id!r}: non-covering edges on {feat.name!r} "
                    f"(missing {names})"
                )
        if clash is not None:
            raise NotATreeError(clash)
        return parents

    def _reject_unreached(self, parents: dict[str, str], empty: tuple | None) -> None:
        """Raise a cycle, else a parentless node, else the empty edge.  With
        one parent per node, each parent chain is walked once."""
        done: set[str] = set()
        for start in self.nodes:
            chain: set[str] = set()
            cur: str | None = start
            while cur is not None and cur not in done:
                if cur in chain:
                    raise CycleError(f"node {cur!r} is its own ancestor")
                chain.add(cur)
                cur = parents.get(cur)
            done |= chain
        orphans = [n for n in self.nodes if n not in parents and n != self.root]
        if orphans:
            raise NotATreeError(f"unreachable node {min(orphans)!r}")
        node_id, i, f = empty
        raise UnreachableLeafError(
            f"node {node_id!r} edge #{i} is unreachable: repeated tests of "
            f"{self.space.feature(f).name!r} leave no allowed value"
        )

    # -- path enumeration --------------------------------------------------

    def _build_paths(self, parents: dict[str, str]) -> tuple[TreePath, ...]:
        """One depth-first pass from the root, edges in declaration order.
        A child's literals are its parent's plus one, or with the re-tested
        feature's literal narrowed, so paths below a node share them.  An
        edge narrowed to no value is not entered.

        The same pass lowers the tree to lists indexed by node number.  A
        node is numbered when the pass enters it, so the numbers follow
        preorder and the subtree of node ``i`` is the range
        ``[i, _end[i])``: its first child is ``i + 1`` and each next
        sibling of a child ``j`` is ``_end[j]``.  The lists are ``_ids``,
        ``_feature`` (-1 at a leaf), a leaf's ``_class`` and
        ``_leaf_path``, ``_parent`` (-1 at the root), ``_edge`` (the value
        mask of the edge into the node, met with the values that reach its
        parent on the parent's feature; -1 at the root) and ``_above`` (a
        re-tested feature's mask on entry, else 0).  A value mask has bit
        ``v`` set for value index ``v``.

        One reverse pass over the numbers then folds each node's children
        into it, filling ``_end`` and seven subtree summaries: ``_below``
        (bit ``f`` for each feature tested at or below the node),
        ``_classes`` (bit ``c`` for each class of a leaf at or below it)
        and the five ``_preorder`` lists, which summarise the subtree's
        preorder walk, edges in declaration order: the class of its first
        leaf (``_class`` itself); the number of nodes the walk enters up
        to that leaf (inclusive) and the features they test, as a bit
        mask; and the same two up to the first leaf of another class (over
        the whole subtree when there is none).  Together they tell, for
        any target class, where the walk meets its first contrary leaf."""
        n = len(self.nodes)
        ids = self._ids = []
        feature = self._feature = [-1] * n
        first = self._class = [-1] * n
        parent = self._parent = [-1] * n
        edge_mask = self._edge = [-1] * n
        above = self._above = [0] * n
        leaf_path = self._leaf_path = [None] * n
        # the index of each feature's literal in a path's literals, set
        # where a path first tests the feature and kept through the subtree
        # below; a stale index fails the check against the literal there
        position = [0] * len(self.space)
        counters = [0] * len(self.classes)
        paths = []
        empty = None
        # (node id, parent number, edge mask, the parent's literals, depth):
        # a node's literals are made when it is entered, so a child waiting
        # on the stack holds no tuple of its own
        stack: list[tuple] = [(self.root, -1, -1, (), 0)]
        while stack:
            node_id, p, mask, lits, depth = stack.pop()
            i = len(ids)
            ids.append(node_id)
            parent[i], edge_mask[i] = p, mask
            if p >= 0:
                f = feature[p]
                k = position[f]  # the length when the parent tests f first
                lits = lits[:k] + (Literal(f, mask),) + lits[k + 1 :]
            node = self.nodes[node_id]
            if isinstance(node, Leaf):
                c = first[i] = node.class_id
                counters[c] += 1
                pid = self._path_prefix(c) + str(counters[c])
                leaf_path[i] = TreePath(self, pid, i, c, lits, depth)
                paths.append(leaf_path[i])
                continue
            f = feature[i] = node.feature
            k = position[f]
            if k < len(lits) and lits[k].feature == f:
                reach = above[i] = lits[k].mask
            else:
                reach, position[f] = -1, len(lits)
            # push in reverse so edges pop in declaration order
            for e in range(len(node.edges) - 1, -1, -1):
                edge = node.edges[e]
                mask = _mask(edge.values) & reach
                if not mask:
                    empty = empty or (node_id, e, f)
                    continue
                stack.append((edge.child, i, mask, lits, depth + 1))
        # every node was entered unless an edge was empty
        if empty is not None or len(ids) < n:
            self._reject_unreached(parents, empty)
        # node i's children are i + 1 and each next child's end whose parent
        # is i; numbered after i, they are done first in reverse order
        end = self._end = list(range(1, n + 1))
        below = self._below = [1 << f if f >= 0 else 0 for f in feature]
        classes = self._classes = [1 << c if c >= 0 else 0 for c in first]
        first_count, other_count = [1] * n, [1] * n
        first_tested, other_tested = below[:], below[:]
        for i in range(n - 1, -1, -1):
            if feature[i] < 0:
                continue
            child = i + 1
            c = first[i] = first[child]
            first_count[i] += first_count[child]
            first_tested[i] |= first_tested[child]
            walking = True  # on to the first leaf not of class c
            while child < n and parent[child] == i:
                below[i] |= below[child]
                classes[i] |= classes[child]
                if walking:
                    if first[child] != c:  # the walk ends at its first leaf
                        other_count[i] += first_count[child]
                        other_tested[i] |= first_tested[child]
                        walking = False
                    else:
                        other_count[i] += other_count[child]
                        other_tested[i] |= other_tested[child]
                        walking = classes[child] == 1 << c
                child = end[child]
            end[i] = child
        self._preorder = first, first_count, first_tested, other_count, other_tested
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
    _check_point(tree.space, instance)
    feature, edge, end = tree._feature, tree._edge, tree._end
    node = 0
    while (f := feature[node]) >= 0:
        bit = 1 << instance[f]
        node += 1  # the first child; the next sibling of a child is its end
        while not edge[node] & bit:
            node = end[node]
    path = tree._leaf_path[node]
    return path.prediction, path


def path_point_count(space: FeatureSpace, literals: Iterable[Literal]) -> int:
    """Exact number of space points consistent with a literal set, in time
    linear in the number of literals."""
    full = space._full
    allowed: dict[int, int] = {}
    for lit in _check_in_space(full, literals):
        allowed[lit.feature] = allowed.get(lit.feature, full[lit.feature]) & lit.mask
    if 0 in allowed.values():
        name = space.feature(min(f for f, mask in allowed.items() if not mask)).name
        raise InconsistentLiteralsError(
            f"literals constrain {name!r} to no value at all"
        )
    count = space._points
    for f, mask in allowed.items():
        count = count // space._sizes[f] * mask.bit_count()
    return count


# -- JSON tree format -------------------------------------------------------

_ORDINAL_KEYS = {"op", "operator", "threshold", "cmp", "split"}


def _require_keys(obj: dict, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict):
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


def _require_utf8(text: str, what: str) -> None:
    """Reject a string that no UTF-8 stream can write: JSON can spell a
    lone surrogate such as ``"\\ud800"``."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise TreeSchemaError(f"{what} {text!r} does not encode as UTF-8") from None


def parse_tree(text: str) -> DecisionTree:
    """Parse and validate the JSON tree format.

    The document is an object with ``features`` (list of ``{name, domain}``),
    ``classes`` (list of class names), ``root`` (node id) and ``nodes``
    (map from node id to either ``{"leaf": class}`` or
    ``{"feature": name, "edges": [{"values": [...], "child": id}, ...]}``).
    A leading byte order mark is ignored, as RFC 8259 allows.
    """
    text = text.removeprefix("\ufeff")
    doc = _load_json(text, TreeSyntaxError, "JSON", located=True, hook=_unique_keys)
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
        _require_utf8(name, f"feature #{i}: name")
        for value in domain:
            _require_utf8(value, f"feature #{i}: domain value")
        feats.append(Feature(i, name, tuple(domain)))
    space = FeatureSpace(feats)

    classes = doc["classes"]
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise TreeSchemaError("'classes' must be a list of strings")
    for name in classes:
        _require_utf8(name, "class name")

    if not isinstance(doc["root"], str):
        raise TreeSchemaError("'root' must be a node id string")
    if not isinstance(doc["nodes"], dict):
        raise TreeSchemaError("'nodes' must be an object")

    nodes: dict[str, Node] = {}
    leaves = [Leaf(c) for c in range(len(classes))]
    value_sets: dict[frozenset[int], frozenset[int]] = {}  # one object per set
    names = {node_id: node_id for node_id in doc["nodes"]}  # one per node id
    for node_id in names:
        obj = doc["nodes"].pop(node_id)  # freed once read, before lowering
        if not isinstance(obj, dict):
            raise TreeSchemaError(f"node {node_id!r} must be a JSON object")
        if "leaf" in obj:
            _require_keys(obj, {"leaf"}, f"leaf node {node_id!r}")
            if not isinstance(obj["leaf"], str):
                raise TreeSchemaError(f"node {node_id!r}: leaf class must be a string")
            if obj["leaf"] not in classes:
                raise UnknownClassError(
                    f"node {node_id!r}: unknown class {obj['leaf']!r}"
                )
            nodes[node_id] = leaves[classes.index(obj["leaf"])]
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
            value_set = frozenset(feat.value_index(v) for v in values)
            value_set = value_sets.setdefault(value_set, value_set)
            child = names.get(eobj["child"], eobj["child"])
            edges.append(Edge(value_set, child))
        nodes[node_id] = Split(feat.index, tuple(edges))

    return DecisionTree(space, classes, doc["root"], nodes)


def parse_tree_file(path: str) -> DecisionTree:
    try:
        with open(path, encoding="utf-8") as handle:
            # not "utf-8-sig": its error offsets would not count the mark
            return parse_tree(handle.read())
    except TreeFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TreeSyntaxError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


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
