"""Command-line front end.

Subcommands: ``classify``, ``redundancy``, ``explain``, ``enumerate``,
``stats`` and ``selftest``.  Results go to stdout, diagnostics to stderr,
and output is byte-identical across runs for identical inputs.

Exit codes: 0 success, 1 usage error, 2 parse/validation error, 3 oracle
mismatch under ``--verify``, 4 oracle budget exceeded under ``--verify``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .explain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    Explanation,
    is_path_redundant,
    one_pi_explanation_instance,
    one_pi_explanation_path,
)
from .hitting import HittingSetError, enumerate_pi_explanations
from .model import (
    DecisionTree,
    InconsistentLiteralsError,
    Instance,
    InstanceError,
    PathMismatchError,
    TreeFormatError,
    TreePath,
    classify,
    instance_literals,
    parse_instance_json,
    parse_tree_file,
    read_instances_csv,
)
from .oracle import BruteForceOracle, BudgetExceededError, OracleBudget
from .randtree import random_tree
from .report import aggregate_means, batch_report, render_table, tree_report
from .selfcheck import OracleMismatch, CheckStats, check_tree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="dtexplain",
        description=(
            "Audit categorical decision trees for explanation-redundancy "
            "and extract PI-explanations."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p, tree_many=False):
        if tree_many:
            p.add_argument(
                "-t", "--tree", nargs="+", required=True, metavar="FILE",
                help="tree file(s) in the JSON tree format",
            )
        else:
            p.add_argument(
                "-t", "--tree", required=True, metavar="FILE",
                help="tree file in the JSON tree format",
            )
        p.add_argument(
            "--format", choices=("json", "text"), default="text",
            help="output format (default: text)",
        )
        p.add_argument(
            "--verify", action="store_true",
            help="cross-check the output against the brute-force oracle",
        )

    def add_instance_source(p):
        p.add_argument(
            "-i", "--instance", metavar="JSON",
            help="inline instance: JSON array of value strings in feature order",
        )
        p.add_argument(
            "--instances", metavar="CSV",
            help="CSV file of instances with a header of feature names",
        )

    p = sub.add_parser("classify", help="route an instance to its leaf")
    add_common(p)
    add_instance_source(p)

    p = sub.add_parser("redundancy", help="per-path redundancy verdicts")
    add_common(p)
    p.add_argument("--path", metavar="ID", help="audit a single path, e.g. P2")
    p.add_argument("--all", action="store_true", help="audit every path (default)")

    p = sub.add_parser("explain", help="extract one PI-explanation")
    add_common(p)
    p.add_argument("--path", metavar="ID", help="explain a tree path")
    add_instance_source(p)
    p.add_argument(
        "--mode", choices=("restricted", "unrestricted"),
        help="candidate literals: the tree path's (restricted) or the "
        "instance's (unrestricted); defaults to the source kind",
    )

    p = sub.add_parser("enumerate", help="list all PI-explanations")
    add_common(p)
    p.add_argument("--path", metavar="ID", help="enumerate for a tree path")
    add_instance_source(p)
    p.add_argument(
        "--mode", choices=("restricted", "unrestricted"),
        help="candidate literals: the tree path's (restricted) or the "
        "instance's (unrestricted); defaults to the source kind",
    )
    p.add_argument("--limit", type=int, metavar="N", help="emit at most N sets")

    p = sub.add_parser("stats", help="redundancy statistics per tree")
    add_common(p, tree_many=True)

    p = sub.add_parser(
        "selftest", help="random-tree equivalence check against the oracle"
    )
    p.add_argument("--trees", type=int, default=25, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument(
        "--instances", type=int, default=10, metavar="K",
        help="random instances per tree",
    )
    return parser


def _emit(payload, fmt: str, render_text) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(render_text())


def _load_instances(tree: DecisionTree, args) -> list[Instance]:
    if args.instance is not None and args.instances is not None:
        raise UsageError("use either --instance or --instances, not both")
    if args.instance is not None:
        return [parse_instance_json(tree.space, args.instance)]
    if args.instances is not None:
        rows = read_instances_csv(tree.space, args.instances)
        if not rows:
            raise InstanceError(f"{args.instances}: no instance rows")
        return rows
    raise UsageError("an instance source is required (--instance or --instances)")


def _oracle(tree: DecisionTree) -> BruteForceOracle:
    return BruteForceOracle(tree, OracleBudget())


def _verify_explanation(
    oracle: BruteForceOracle, explanation: Explanation
) -> None:
    if not oracle.entails(explanation.literals, explanation.target):
        raise OracleMismatch("explanation does not entail the prediction")
    for lit in explanation.literals:
        if oracle.entails(explanation.literals - {lit}, explanation.target):
            raise OracleMismatch(
                "explanation is not subset-minimal "
                f"(droppable literal on feature index {lit.feature})"
            )


def _cmd_classify(args) -> int:
    tree = parse_tree_file(args.tree)
    results = []
    for point in _load_instances(tree, args):
        class_id, path = classify(tree, point)
        if args.verify:
            oracle = _oracle(tree)
            if not oracle.entails(path.literals, class_id):
                raise OracleMismatch("path literals do not entail the class")
        results.append(
            {
                "class": tree.classes[class_id],
                "path": path.path_id,
                "literals": Explanation(path.literal_set(), class_id).as_value_map(tree),
            }
        )
    payload = results[0] if args.instance is not None else results

    def text() -> str:
        lines = [f"class: {r['class']}  (path {r['path']})" for r in results]
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, text)
    return EXIT_OK


def _cmd_redundancy(args) -> int:
    tree = parse_tree_file(args.tree)
    if args.path and args.all:
        raise UsageError("use either --path or --all, not both")
    paths = [tree.path(args.path)] if args.path else list(tree.paths)
    oracle = _oracle(tree) if args.verify else None
    rows = []
    for path in paths:
        verdict = is_path_redundant(tree, path)
        if oracle is not None and oracle.is_redundant(path) != verdict.redundant:
            raise OracleMismatch(
                f"redundancy of {path.path_id} disagrees with the oracle"
            )
        witness = (
            tree.space.feature(verdict.witness).name
            if verdict.witness is not None
            else None
        )
        rows.append(
            {
                "path": path.path_id,
                "class": path.class_name(),
                "redundant": verdict.redundant,
                "witness": witness,
                "node_visits": verdict.node_visits,
            }
        )
    payload = rows[0] if args.path else rows

    def text() -> str:
        lines = []
        for r in rows:
            if r["redundant"]:
                lines.append(f"{r['path']}: redundant (witness: {r['witness']})")
            else:
                lines.append(f"{r['path']}: irredundant")
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, text)
    return EXIT_OK


def _resolve_source(tree: DecisionTree, args) -> list[tuple[str, object]]:
    """Yield (mode, source) pairs from --path / instance flags."""
    if args.path and (args.instance or args.instances):
        raise UsageError("use either --path or an instance source, not both")
    if args.path:
        mode = args.mode or "restricted"
        if mode == "unrestricted":
            raise UsageError(
                "unrestricted mode needs an instance source, not --path"
            )
        return [(PATH_RESTRICTED, tree.path(args.path))]
    points = _load_instances(tree, args)
    mode = args.mode or "unrestricted"
    out = []
    for point in points:
        if mode == "restricted":
            _, path = classify(tree, point)
            out.append((PATH_RESTRICTED, path))
        else:
            out.append((PATH_UNRESTRICTED, point))
    return out


def _cmd_explain(args) -> int:
    tree = parse_tree_file(args.tree)
    sources = _resolve_source(tree, args)
    oracle = _oracle(tree) if args.verify else None
    results = []
    for mode, source in sources:
        if mode == PATH_RESTRICTED:
            explanation = one_pi_explanation_path(tree, source)
        else:
            explanation = one_pi_explanation_instance(tree, source)
        if oracle is not None:
            _verify_explanation(oracle, explanation)
        results.append(explanation)
    single = len(results) == 1
    payload = (
        results[0].as_value_map(tree)
        if single
        else [e.as_value_map(tree) for e in results]
    )

    def text() -> str:
        return "\n".join(e.render(tree) for e in results) + "\n"

    _emit(payload, args.format, text)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    tree = parse_tree_file(args.tree)
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be non-negative")
    sources = _resolve_source(tree, args)
    oracle = _oracle(tree) if args.verify else None
    blocks = []
    for mode, source in sources:
        explanations = enumerate_pi_explanations(tree, source, mode, args.limit)
        if oracle is not None:
            if isinstance(source, TreePath):
                universe = source.literals
                target = source.prediction
            else:
                universe = instance_literals(tree.space, source)
                target, _ = classify(tree, source)
            truth = {e.literals for e in oracle.enumerate_pi(universe, target)}
            mine = {e.literals for e in explanations}
            if args.limit is None and mine != truth:
                raise OracleMismatch(
                    f"enumeration found {len(mine)} sets, oracle {len(truth)}"
                )
            if args.limit is not None and not mine <= truth:
                raise OracleMismatch("a truncated enumeration emitted a non-PI set")
        blocks.append(explanations)
    single = len(blocks) == 1
    payload = (
        [e.as_value_map(tree) for e in blocks[0]]
        if single
        else [[e.as_value_map(tree) for e in block] for block in blocks]
    )

    def text() -> str:
        lines = []
        for block in blocks:
            lines.extend(e.render(tree) for e in block)
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, text)
    return EXIT_OK


def _cmd_stats(args) -> int:
    reports, errors = batch_report(args.tree)
    if args.verify:
        for report in reports:
            tree = parse_tree_file(report.label)
            oracle = _oracle(tree)
            for detail in report.details:
                path = tree.path(detail.path_id)
                if oracle.is_redundant(path) != detail.redundant:
                    raise OracleMismatch(
                        f"{report.label}: redundancy of {detail.path_id} "
                        "disagrees with the oracle"
                    )
    if args.format == "json":
        # one entry per input file in input order, then the means
        report_queue = list(reports)
        error_queue = list(errors)
        entries = []
        for name in args.tree:
            if error_queue and error_queue[0][0] == name:
                failed, message = error_queue.pop(0)
                entries.append({"file": failed, "error": message})
            elif report_queue and report_queue[0].label == name:
                entries.append(report_queue.pop(0).to_obj())
        if len(reports) > 1:
            entries.append({"aggregate": aggregate_means(reports)})
        sys.stdout.write(json.dumps(entries, indent=2) + "\n")
    else:
        if reports or errors:
            sys.stdout.write(render_table(reports, errors))
    for path, message in errors:
        sys.stderr.write(f"dtexplain: {path}: {message}\n")
    return EXIT_DATA if errors else EXIT_OK


def _cmd_selftest(args) -> int:
    if args.trees < 1:
        raise UsageError("--trees must be at least 1")
    rng = random.Random(args.seed)
    total = CheckStats()
    for index in range(args.trees):
        tree = random_tree(rng)
        total.merge(
            check_tree(tree, rng, n_instances=args.instances, label=f"tree#{index}")
        )
    sys.stdout.write(
        f"selftest ok: {total.trees} trees, {total.paths} paths, "
        f"{total.instances} instances, zero mismatches\n"
    )
    return EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "redundancy": _cmd_redundancy,
    "explain": _cmd_explain,
    "enumerate": _cmd_enumerate,
    "stats": _cmd_stats,
    "selftest": _cmd_selftest,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"dtexplain: usage error: {exc}\n")
        sys.stderr.write(parser.format_usage())
        return EXIT_USAGE
    except (
        TreeFormatError,
        InstanceError,
        InconsistentLiteralsError,
        PathMismatchError,
        HittingSetError,
        OSError,
    ) as exc:
        sys.stderr.write(f"dtexplain: error: {exc}\n")
        return EXIT_DATA
    except OracleMismatch as exc:
        sys.stderr.write(f"dtexplain: oracle mismatch: {exc}\n")
        return EXIT_MISMATCH
    except BudgetExceededError as exc:
        sys.stderr.write(f"dtexplain: oracle budget exceeded: {exc}\n")
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
