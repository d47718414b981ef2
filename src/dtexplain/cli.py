"""Command-line front end.

Subcommands: ``classify``, ``redundancy``, ``explain``, ``enumerate``,
``stats`` and ``selftest``.  Results go to stdout, diagnostics to stderr,
and output is byte-identical across runs for identical inputs.  With
``--format json``, ``-i`` and ``--path`` print one entry; ``--instances``
and ``--all`` print a list, even of one row.  Each per-source command
resolves, answers and verifies its sources in one loop, :func:`_answers`;
``--verify`` runs each answer's :mod:`~dtexplain.selfcheck` checker, as
:func:`check_tree` does, and makes no check of its own.

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
    _extract,
    _scan,
    _source,
)
from .hitting import HittingSetError, _enumerate
from .model import (
    DecisionTree,
    InconsistentLiteralsError,
    InstanceError,
    PathMismatchError,
    TreeFormatError,
    classify,
    parse_instance_json,
    parse_tree_file,
    read_instances_csv,
)
from .oracle import BruteForceOracle, BudgetExceededError
from .randtree import random_tree
from .report import aggregate_means, batch_report, render_table
from .selfcheck import CheckStats, OracleMismatch, check_tree
from .selfcheck import check_classification, check_enumeration, check_extraction
from .selfcheck import check_redundancy

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
        p.add_argument(
            "-t", "--tree", nargs="+" if tree_many else None, required=True,
            metavar="FILE",
            help=f"tree file{'(s)' if tree_many else ''} in the JSON tree format",
        )
        p.add_argument(
            "--format", choices=("json", "text"), default="text",
            help="output format (default: text)",
        )
        p.add_argument(
            "--verify", action="store_true",
            help="cross-check the output against the brute-force oracle",
        )

    def add_instance_source(group):
        group.add_argument(
            "-i", "--instance", metavar="JSON",
            help="inline instance: JSON array of value strings in feature order",
        )
        group.add_argument(
            "--instances", metavar="CSV",
            help="CSV file of instances with a header of feature names",
        )

    def add_sources(p, path_help):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--path", metavar="ID", help=path_help)
        add_instance_source(group)
        p.add_argument(
            "--mode", choices=("restricted", "unrestricted"),
            help="candidate literals: the tree path's (restricted) or the "
            "instance's (unrestricted); defaults to the source kind",
        )

    p = sub.add_parser("classify", help="route an instance to its leaf")
    add_common(p)
    add_instance_source(p.add_mutually_exclusive_group())

    p = sub.add_parser("redundancy", help="per-path redundancy verdicts")
    add_common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--path", metavar="ID", help="audit a single path, e.g. P2")
    group.add_argument("--all", action="store_true", help="audit every path (default)")

    p = sub.add_parser("explain", help="extract one PI-explanation")
    add_common(p)
    add_sources(p, "explain a tree path")

    p = sub.add_parser("enumerate", help="list all PI-explanations")
    add_common(p)
    add_sources(p, "enumerate for a tree path")
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


def _sources(
    tree: DecisionTree, args
) -> tuple[list[tuple[str, object, object]], bool]:
    """The (mode, source, point) triples named by --mode and the one source
    flag the parser's exclusive groups let through, and whether it names a
    single source: -i and --path do, --instances and --all (or none, for
    ``redundancy``) name a list.  ``point`` is the instance the source
    came from, None for a tree path named by its id."""
    flags = vars(args)
    path_id, mode = flags.get("path"), flags.get("mode")
    instance, rows = flags.get("instance"), flags.get("instances")
    if path_id is not None:
        if mode == "unrestricted":
            raise UsageError("unrestricted mode needs an instance source, not --path")
        return [(PATH_RESTRICTED, tree.path(path_id), None)], True
    if "all" in flags:  # redundancy: every path unless --path
        return [(PATH_RESTRICTED, path, None) for path in tree.paths], False
    if instance is not None:
        points = [parse_instance_json(tree.space, instance)]
    elif rows is not None:
        points = read_instances_csv(tree.space, rows)
        if not points:
            raise InstanceError(f"{rows}: no instance rows")
    elif "path" in flags:  # explain, enumerate
        raise UsageError("a source is required (--path, --instance or --instances)")
    else:
        raise UsageError("an instance source is required (--instance or --instances)")
    single = instance is not None
    if mode == "restricted":
        return [(PATH_RESTRICTED, classify(tree, p)[1], p) for p in points], single
    return [(PATH_UNRESTRICTED, p, p) for p in points], single


def _print(args, single: bool, results: list, entry, lines) -> int:
    """Write one JSON ``entry`` per result, unwrapped for a single source,
    or every result's text ``lines``."""
    if args.format == "json":
        entries = [entry(r) for r in results]
        payload = entries[0] if single else entries
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(line for r in results for line in lines(r)) + "\n")
    return EXIT_OK


def _answers(tree: DecisionTree, args, answer, check) -> tuple[list, bool]:
    """Resolve each source the flags name and ``answer`` it; under
    --verify, check an instance source's classification and ``check`` the
    answer.  Also returns whether the flags name a single source."""
    sources, single = _sources(tree, args)
    oracle = BruteForceOracle(tree) if args.verify else None
    results = []
    for mode, source, point in sources:
        src = _source(tree, source, mode)
        result = answer(src)
        if oracle is not None:
            if point is not None:
                check_classification(oracle, point, src.target, src.path)
            check(oracle, src, result)
        results.append(result)
    return results, single


def _cmd_classify(args) -> int:
    tree = parse_tree_file(args.tree)

    def row(src) -> dict:
        literals = Explanation(src.path.literal_set(), src.target)
        return {
            "class": tree.classes[src.target],
            "path": src.path.path_id,
            "literals": literals.as_value_map(tree),
        }

    rows, single = _answers(tree, args, row, lambda *answered: None)
    return _print(
        args, single, rows, dict, lambda r: [f"class: {r['class']}  (path {r['path']})"]
    )


def _cmd_redundancy(args) -> int:
    tree = parse_tree_file(args.tree)

    def row(answer) -> dict:
        path, verdict = answer
        feature = verdict.witness
        return {
            "path": path.path_id,
            "class": path.class_name(),
            "redundant": verdict.redundant,
            "witness": None if feature is None else tree.space.feature(feature).name,
            "node_visits": verdict.node_visits,
        }

    def text(answer) -> list[str]:
        r = row(answer)
        if r["redundant"]:
            return [f"{r['path']}: redundant (witness: {r['witness']})"]
        return [f"{r['path']}: irredundant"]

    answers, single = _answers(
        tree, args,
        lambda src: (src.path, _scan(tree, src, stop=True).verdict),
        lambda oracle, src, answer: check_redundancy(oracle, *answer, src.path.path_id),
    )
    return _print(args, single, answers, row, text)


def _cmd_explain(args) -> int:
    tree = parse_tree_file(args.tree)
    results, single = _answers(
        tree, args,
        lambda src: _extract(tree, src, _scan(tree, src))[0],
        lambda oracle, src, e: check_extraction(oracle, src.literals, src.target, e),
    )
    return _print(
        args, single, results,
        lambda e: e.as_value_map(tree), lambda e: [e.render(tree)],
    )


def _cmd_enumerate(args) -> int:
    tree = parse_tree_file(args.tree)
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be non-negative")
    blocks, single = _answers(
        tree, args,
        lambda src: _enumerate(tree, src, _scan(tree, src), args.limit)[0],
        lambda oracle, src, block: check_enumeration(
            oracle, src.literals, src.target, block, args.limit
        ),
    )
    return _print(
        args, single, blocks,
        lambda block: [e.as_value_map(tree) for e in block],
        lambda block: [e.render(tree) for e in block],
    )


def _cmd_stats(args) -> int:
    reports, errors = batch_report(args.tree)
    if args.verify:
        for report in reports:
            oracle = BruteForceOracle(report.tree)
            for path, detail in zip(report.tree.paths, report.details):
                where = f"{report.label}: {path.path_id}"
                check_redundancy(oracle, path, detail.verdict, where)
                check_extraction(
                    oracle, path.literals, path.prediction, detail.explanation, where
                )
    if args.format == "json":
        # one entry per input file in input order, then the means
        failed = dict(errors)
        parsed = iter(reports)
        entries = [
            {"file": name, "error": failed[name]}
            if name in failed
            else next(parsed).to_obj()
            for name in args.tree
        ]
        if len(reports) > 1:
            entries.append({"aggregate": aggregate_means(reports)})
        sys.stdout.write(json.dumps(entries, indent=2) + "\n")
    elif reports or errors:
        sys.stdout.write(render_table(reports, errors))
    for _, message in errors:
        sys.stderr.write(f"dtexplain: error: {message}\n")
    return EXIT_DATA if errors else EXIT_OK


def _cmd_selftest(args) -> int:
    if args.trees < 1:
        raise UsageError("--trees must be at least 1")
    if args.instances < 0:
        raise UsageError("--instances must be non-negative")
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
