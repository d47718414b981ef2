"""Tree-level redundancy statistics.

For every path the report holds its redundancy verdict, one extracted
PI-explanation and the number of feature-space points the path covers.
Tree-level columns follow from those: the share of redundant paths, the
share of feature space they cover, and the min/max/mean percentage of
redundant literals per redundant path.

Percentages are exact rationals throughout; display values are truncated
toward zero to whole percent.  Depth counts internal nodes on the longest
root-to-leaf path and the node count includes leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .explain import PATH_RESTRICTED, Explanation, RedundancyResult
from .explain import _extract, _scan, _source
from .model import DecisionTree, TreeFormatError, TreePath, parse_tree_file
from .model import path_point_count

__all__ = [
    "PathDetail",
    "TreeReport",
    "tree_report",
    "batch_report",
    "render_table",
    "display_pct",
    "TABLE_COLUMNS",
]

TABLE_COLUMNS = ("Tree", "D", "#N", "#P", "%R", "%C", "%m", "%M", "%avg")

NO_VALUE = "—"  # printed for statistics over an empty redundant set


def display_pct(value: Fraction) -> int:
    """Whole-percent display value, truncated toward zero."""
    return int(value)


def _pct(value: Fraction | None) -> dict | None:
    """JSON form of a percentage: display value and exact rational."""
    if value is None:
        return None
    return {"display": display_pct(value), "exact": str(value)}


@dataclass(frozen=True)
class PathDetail:
    """One path's row: its redundancy verdict, one extracted
    PI-explanation and the points it covers.  Every column is read off
    these answers, the objects that ``stats --verify`` checks."""

    path: TreePath
    verdict: RedundancyResult
    explanation: Explanation
    point_count: int

    @property
    def redundant_literal_pct(self) -> Fraction | None:
        """The share of a redundant path's literals that the explanation drops."""
        if not self.verdict.redundant:
            return None
        count = len(self.path.literals)
        return Fraction(100 * (count - len(self.explanation.literals)), count)

    def to_obj(self) -> dict:
        path, witness = self.path, self.verdict.witness
        name = None if witness is None else path.tree.space.feature(witness).name
        return {
            "path": path.path_id,
            "class": path.class_name(),
            "literal_count": len(path.literals),
            "explanation_size": len(self.explanation.literals),
            "redundant": self.verdict.redundant,
            "witness": name,
            "point_count": self.point_count,
            "redundant_literal_pct": _pct(self.redundant_literal_pct),
        }


@dataclass(frozen=True)
class TreeReport:
    label: str
    depth: int
    node_count: int
    path_count: int
    redundant_count: int
    point_total: int
    pct_redundant: Fraction
    pct_coverage: Fraction
    literal_pct_min: Fraction | None
    literal_pct_max: Fraction | None
    literal_pct_mean: Fraction | None
    details: tuple[PathDetail, ...]
    tree: DecisionTree = field(repr=False, compare=False)  # the tree audited

    def to_obj(self) -> dict:
        return {
            "tree": self.label,
            "depth": self.depth,
            "node_count": self.node_count,
            "path_count": self.path_count,
            "redundant_count": self.redundant_count,
            "point_total": self.point_total,
            "pct_redundant": _pct(self.pct_redundant),
            "pct_coverage": _pct(self.pct_coverage),
            "redundant_literal_pct": {
                "min": _pct(self.literal_pct_min),
                "max": _pct(self.literal_pct_max),
                "mean": _pct(self.literal_pct_mean),
            },
            "paths": [d.to_obj() for d in self.details],
        }


def tree_report(tree: DecisionTree, label: str = "tree") -> TreeReport:
    """Audit every path of one tree."""
    space = tree.space
    details = []
    for path in tree.paths:
        src = _source(tree, path, PATH_RESTRICTED)
        scan = _scan(tree, src)
        explanation = _extract(tree, src, scan)[0]
        points = path_point_count(space, path.literals)
        details.append(PathDetail(path, scan.verdict, explanation, points))
    redundant = [d for d in details if d.verdict.redundant]
    literal_pcts = [d.redundant_literal_pct for d in redundant]
    covered = sum(d.point_count for d in redundant)
    total = space.point_count()
    return TreeReport(
        label=label,
        depth=tree.depth,
        node_count=tree.node_count,
        path_count=len(details),
        redundant_count=len(redundant),
        point_total=total,
        pct_redundant=Fraction(100 * len(redundant), len(details)),
        pct_coverage=Fraction(100 * covered, total),
        literal_pct_min=min(literal_pcts) if literal_pcts else None,
        literal_pct_max=max(literal_pcts) if literal_pcts else None,
        literal_pct_mean=_mean(literal_pcts),
        details=tuple(details),
        tree=tree,
    )


def batch_report(
    files: list[str],
) -> tuple[list[TreeReport], list[tuple[str, str]]]:
    """One report per parseable file; parse failures are collected as
    (file, message) entries, the message naming the file, without
    affecting the other rows."""
    reports = []
    errors = []
    for path in files:
        try:
            tree = parse_tree_file(path)
        except (TreeFormatError, OSError) as exc:
            errors.append((path, str(exc)))
            continue
        reports.append(tree_report(tree, label=path))
    return reports, errors


def _mean(values: list[Fraction]) -> Fraction | None:
    if not values:
        return None
    return sum(values, Fraction(0)) / len(values)


def aggregate_means(reports: list[TreeReport]) -> dict | None:
    """Column means across reports; redundant-literal columns average only
    the trees that have redundant paths."""
    if not reports:
        return None
    return {
        "depth": _pct(_mean([Fraction(r.depth) for r in reports])),
        "node_count": _pct(_mean([Fraction(r.node_count) for r in reports])),
        "path_count": _pct(_mean([Fraction(r.path_count) for r in reports])),
        "pct_redundant": _pct(_mean([r.pct_redundant for r in reports])),
        "pct_coverage": _pct(_mean([r.pct_coverage for r in reports])),
        "redundant_literal_pct": {
            "min": _pct(_mean([r.literal_pct_min for r in reports if r.literal_pct_min is not None])),
            "max": _pct(_mean([r.literal_pct_max for r in reports if r.literal_pct_max is not None])),
            "mean": _pct(_mean([r.literal_pct_mean for r in reports if r.literal_pct_mean is not None])),
        },
    }


def render_table(
    reports: list[TreeReport], errors: list[tuple[str, str]] | None = None
) -> str:
    """Aligned text table, one row per tree plus a mean row."""
    rows = [list(TABLE_COLUMNS)]

    for r in reports:
        pcts = [r.pct_redundant, r.pct_coverage]
        pcts += [r.literal_pct_min, r.literal_pct_max, r.literal_pct_mean]
        rows.append(
            [r.label, str(r.depth), str(r.node_count), str(r.path_count)]
            + [NO_VALUE if p is None else str(display_pct(p)) for p in pcts]
        )
    if len(reports) > 1:
        agg = aggregate_means(reports)
        columns = ("depth", "node_count", "path_count", "pct_redundant", "pct_coverage")
        means = [agg[c] for c in columns] + list(agg["redundant_literal_pct"].values())
        rows.append(
            ["(mean)"] + [NO_VALUE if m is None else str(m["display"]) for m in means]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(TABLE_COLUMNS))]
    lines = []
    for row in rows:
        first = row[0].ljust(widths[0])
        rest = "  ".join(row[i].rjust(widths[i]) for i in range(1, len(row)))
        lines.append(f"{first}  {rest}".rstrip())
    for _, message in errors or []:
        lines.append(f"error: {message}")  # the message names the file
    return "\n".join(lines) + "\n"
