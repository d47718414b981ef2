"""Audit categorical decision trees for explanation-redundancy.

A tree path entails its prediction, but its literals are often a strict
superset of a PI-explanation (a subset-minimal literal set that already
forces the prediction).  This package decides per-path redundancy in
time linear in the tree, extracts one PI-explanation per path or per
instance in polynomial time, enumerates all PI-explanations through
minimal hitting sets, reports tree-level redundancy statistics, and
ships a brute-force oracle that re-derives every answer exhaustively on
desk-scale inputs.
"""

from .model import (
    CycleError,
    DanglingChildError,
    DecisionTree,
    Edge,
    EdgeCoverageError,
    EdgeOverlapError,
    Feature,
    FeatureSpace,
    InconsistentLiteralsError,
    Instance,
    InstanceError,
    Leaf,
    Literal,
    NotATreeError,
    PathMismatchError,
    Split,
    TreeFormatError,
    TreePath,
    TreeSchemaError,
    TreeSyntaxError,
    UnknownClassError,
    UnknownFeatureError,
    UnknownValueError,
    UnreachableLeafError,
    UnsupportedLiteralError,
    classify,
    instance_literals,
    make_instance,
    parse_instance_json,
    parse_tree,
    parse_tree_file,
    path_point_count,
    read_instances_csv,
    serialize_tree,
)
from .explain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    Explanation,
    RedundancyResult,
    entails,
    is_path_redundant,
    one_pi_explanation_instance,
    one_pi_explanation_path,
)
from .hitting import (
    HittingSetError,
    HittingSetInstance,
    build_hitting_sets,
    enumerate_mhs,
    enumerate_pi_explanations,
)
from .oracle import BruteForceOracle, BudgetExceededError
from .report import (
    PathDetail,
    TreeReport,
    batch_report,
    render_table,
    tree_report,
)
from .randtree import random_instance, random_tree
from .selfcheck import CheckStats, OracleMismatch, check_tree

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
