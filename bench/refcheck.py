"""Independent reference checker for the benchmark's outputs.

It reads the JSON tree documents itself and shares no code with the
package.  Its own iterative walker lists the root-to-leaf paths and
classifies points.  Entailment is decided by set algebra over those
paths, not by traversing the tree as the package does: a literal set
entails class ``c`` iff no path of another class is consistent with it,
and a path is consistent iff its allowed values meet the literal's on
every feature.  For each (feature, value) the checker keeps the set of
paths allowing that value as one integer bitset, so a query is a few
big-integer ANDs.

Minimal hitting sets are re-derived by Berge's incremental algorithm
over the inclusion-minimised family, which differs from the package's
branching search.

Literal sets are dicts ``{feature index: value bitmask}`` in the
document's feature and domain order; :meth:`RefTree.literals` builds one
from the feature-name to value-name map that the package prints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Lits = dict  # feature index -> bitmask of allowed value indices


def bits(x: int) -> Iterable[int]:
    """Indices of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def minimize(family: Iterable[int]) -> list[int]:
    """The inclusion-minimal members of a family of bitsets, without
    duplicates, ordered by (size, value)."""
    kept: list[int] = []
    for s in sorted(set(family), key=lambda m: (m.bit_count(), m)):
        if not any(k & s == k for k in kept):
            kept.append(s)
    return kept


def minimal_transversals(family: Sequence[int]) -> list[int]:
    """All minimal hitting sets of a family of non-empty bitsets (Berge).

    The empty family has the empty set as its only transversal."""
    transversals = [0]
    for s in minimize(family):
        grown = set()
        for t in transversals:
            if t & s:
                grown.add(t)
            else:
                grown.update(t | (1 << i) for i in bits(s))
        transversals = minimize(grown)
    return transversals


class RefPath:
    __slots__ = ("leaf", "cls", "literals", "order")

    def __init__(self, leaf: str, cls: int, literals: Lits, order: list[int]):
        self.leaf = leaf
        self.cls = cls
        self.literals = literals  # aggregated over repeated tests
        self.order = order  # features in first-test order


class RefTree:
    def __init__(self, doc: Mapping):
        self.names = [f["name"] for f in doc["features"]]
        self.domains = [list(f["domain"]) for f in doc["features"]]
        self.feature_index = {name: i for i, name in enumerate(self.names)}
        self.value_index = [{v: j for j, v in enumerate(d)} for d in self.domains]
        self.full = [(1 << len(d)) - 1 for d in self.domains]
        self.classes = list(doc["classes"])
        self.nodes = doc["nodes"]
        self.root = doc["root"]
        self.paths = self._walk_paths()
        self.leaf_path = {p.leaf: i for i, p in enumerate(self.paths)}
        self._index_paths()

    # -- structure -----------------------------------------------------

    def _walk_paths(self) -> list[RefPath]:
        paths = []
        stack = [(self.root, {}, [])]
        while stack:
            node_id, lits, order = stack.pop()
            node = self.nodes[node_id]
            if "leaf" in node:
                cls = self.classes.index(node["leaf"])
                paths.append(RefPath(node_id, cls, lits, order))
                continue
            f = self.feature_index[node["feature"]]
            for edge in reversed(node["edges"]):
                mask = self.mask(f, edge["values"])
                narrowed = dict(lits)
                narrowed[f] = lits.get(f, self.full[f]) & mask
                stack.append((edge["child"], narrowed, order if f in lits else order + [f]))
        return paths

    def _index_paths(self) -> None:
        n = len(self.paths)
        self.all_paths = (1 << n) - 1
        width = (n + 7) // 8
        excluded = [[bytearray(width) for _ in d] for d in self.domains]
        self.class_paths = [0] * len(self.classes)
        for i, path in enumerate(self.paths):
            self.class_paths[path.cls] |= 1 << i
            for f, mask in path.literals.items():
                for v in range(len(self.domains[f])):
                    if not mask >> v & 1:
                        excluded[f][v][i >> 3] |= 1 << (i & 7)
        # allows[f][v]: bitset of paths whose region allows value v of f
        self.allows = [
            [self.all_paths & ~int.from_bytes(row, "little") for row in feature]
            for feature in excluded
        ]

    def mask(self, f: int, values: Iterable[str]) -> int:
        out = 0
        for v in values:
            out |= 1 << self.value_index[f][v]
        return out

    def literals(self, value_map: Mapping) -> Lits:
        """Literal set from a {feature name: value or [values]} map."""
        out: Lits = {}
        for name, values in value_map.items():
            f = self.feature_index[name]
            out[f] = self.mask(f, [values] if isinstance(values, str) else values)
        return out

    def point(self, values: Sequence[str]) -> list[int]:
        return [self.value_index[f][v] for f, v in enumerate(values)]

    # -- semantics -----------------------------------------------------

    def classify(self, point: Sequence[int]) -> str:
        """Leaf id reached by a point (value indices in feature order)."""
        node_id = self.root
        node = self.nodes[node_id]
        while "leaf" not in node:
            f = self.feature_index[node["feature"]]
            value = self.domains[f][point[f]]
            node_id = next(e["child"] for e in node["edges"] if value in e["values"])
            node = self.nodes[node_id]
        return node_id

    def _allowing(self, f: int, mask: int) -> int:
        """Bitset of the paths whose region meets ``mask`` on feature f."""
        allowed = 0
        for v in bits(mask):
            allowed |= self.allows[f][v]
        return allowed

    def consistent_paths(self, lits: Lits) -> int:
        found = self.all_paths
        for f, mask in lits.items():
            found &= self._allowing(f, mask)
            if not found:
                break
        return found

    def entails(self, lits: Lits, cls: int) -> bool:
        return not self.consistent_paths(lits) & ~self.class_paths[cls]

    def droppable(self, lits: Lits, cls: int) -> list[int]:
        """Features whose literal can be dropped with entailment kept."""
        return [
            f for f in lits
            if self.entails({g: m for g, m in lits.items() if g != f}, cls)
        ]

    def point_count(self, lits: Lits) -> int:
        count = 1
        for f, full in enumerate(self.full):
            count *= lits.get(f, full).bit_count()
        return count

    def total_points(self) -> int:
        return self.point_count({})

    def family(self, universe: Sequence[tuple[int, int]], cls: int) -> list[int]:
        """Per contrary path, the bitset of universe literals it conflicts
        with (over universe positions)."""
        conflicts = [self.all_paths & ~self._allowing(f, mask) for f, mask in universe]
        out = []
        for p in bits(self.all_paths & ~self.class_paths[cls]):
            s = 0
            for i, c in enumerate(conflicts):
                if c >> p & 1:
                    s |= 1 << i
            out.append(s)
        return out

    def render(self, lits: Lits) -> str:
        return "{" + ", ".join(
            f"{self.names[f]}={'|'.join(self.domains[f][v] for v in bits(m))}"
            for f, m in sorted(lits.items())
        ) + "}"

    # -- checks (each returns a list of problems; empty means correct) ---

    def check_explanation(self, lits: Lits, cls: int, within: Lits | None = None) -> list[str]:
        """``lits`` is a PI-explanation of ``cls``: it entails the class
        and dropping any one literal lets a contrary path through."""
        shown = self.render(lits)
        problems = []
        if within is not None and any(within.get(f) != m for f, m in lits.items()):
            problems.append(f"{shown} is not a subset of {self.render(within)}")
        if not self.entails(lits, cls):
            problems.append(f"{shown} does not entail class {self.classes[cls]}")
        elif self.droppable(lits, cls):
            problems.append(f"{shown} is not minimal")
        return problems

    def check_enumeration(
        self, listed: Sequence[Lits], universe: Sequence[tuple[int, int]], cls: int
    ) -> list[str]:
        """``listed`` is exactly the set of minimal transversals of the
        contrary paths' conflict family over ``universe``."""
        position = {lit: i for i, lit in enumerate(universe)}
        problems = []
        got = set()
        for lits in listed:
            if not self.entails(lits, cls):
                problems.append(f"{self.render(lits)} misses a contrary path")
            try:
                got.add(sum(1 << position[(f, m)] for f, m in lits.items()))
            except KeyError:
                problems.append(f"{self.render(lits)} leaves the candidate literals")
        if len(got) != len(listed):
            problems.append("an explanation is listed twice")
        want = set(minimal_transversals(self.family(universe, cls)))
        for t in sorted(want - got):
            shown = self.render(dict(universe[i] for i in bits(t)))
            problems.append(f"missing PI-explanation {shown}")
        for t in sorted(got - want):
            shown = self.render(dict(universe[i] for i in bits(t)))
            problems.append(f"{shown} is not a minimal transversal")
        return problems

    def check_report(self, report: Mapping) -> list[str]:
        """One tree's entry of `stats --format json` against the reference:
        per-path verdicts and point counts, their partition of the space,
        and the exact %R and %C."""
        problems = []
        rows = report["paths"]
        if len(rows) != len(self.paths):
            return [f"report lists {len(rows)} paths, the tree has {len(self.paths)}"]
        total = self.total_points()
        redundant = covered = points = 0
        for row, path in zip(rows, self.paths):
            count = self.point_count(path.literals)
            is_redundant = bool(self.droppable(path.literals, path.cls))
            if row["point_count"] != count or row["redundant"] != is_redundant:
                problems.append(f"path {row['path']} disagrees with the reference")
            points += count
            redundant += is_redundant
            covered += count if is_redundant else 0
        if points != total or report["point_total"] != total:
            problems.append("path point counts do not partition the feature space")
        if Fraction(report["pct_redundant"]["exact"]) != Fraction(100 * redundant, len(rows)):
            problems.append("%R is not 100 * redundant / paths")
        if Fraction(report["pct_coverage"]["exact"]) != Fraction(100 * covered, total):
            problems.append("%C is not 100 * covered points / all points")
        return problems
