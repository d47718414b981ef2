"""One SHA-256 over the exit code and stdout of valid ``dtexplain``
invocations on every fixture, pinned so that a change to the command
line front end, or to any layer beneath it, that alters a byte of any
command's output shows at once.

Per fixture, in text and JSON, with and without ``--verify``: ``stats``;
``redundancy`` over every path and of each path; ``explain`` and
``enumerate`` (also with ``--limit 1``) of each path; and for each
path's lowest point, ``classify`` and, in each mode, ``explain`` and
``enumerate``.  The same commands then read every point of the space
from one CSV file, and ``stats`` reads every fixture at once."""

import csv
import hashlib
import json

from conftest import FIXTURE_DIR, FIXTURE_NAMES, load_tree, lowest_point

from dtexplain.cli import run

CLI_DIGEST = "dadbf68fa0f8dd3a14215e55d5671a3e8c960e2fbb7a995ab3bae25a0df9ca32"

MODES = ((), ("--mode", "restricted"), ("--mode", "unrestricted"))


def invocations(name, rows):
    """(command, flags) pairs for fixture ``name``; ``rows`` is a CSV
    file of every point of its space."""
    tree = load_tree(name)
    yield "stats", ()
    yield "redundancy", ()
    yield "redundancy", ("--all",)
    for path in tree.paths:
        yield "redundancy", ("--path", path.path_id)
        yield "explain", ("--path", path.path_id)
        yield "enumerate", ("--path", path.path_id)
        yield "enumerate", ("--path", path.path_id, "--limit", "1")
        point = json.dumps(
            [f.domain[v] for f, v in zip(tree.space.features, lowest_point(tree, path))]
        )
        yield "classify", ("-i", point)
        for mode in MODES:
            yield "explain", ("-i", point, *mode)
            yield "enumerate", ("-i", point, *mode)
    yield "classify", ("--instances", rows)
    for mode in MODES:
        yield "explain", ("--instances", rows, *mode)
        yield "enumerate", ("--instances", rows, *mode)
        yield "enumerate", ("--instances", rows, "--limit", "1", *mode)


def write_rows(tree, path) -> str:
    with open(path, "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(f.name for f in tree.space.features)
        for point in tree.space.points():
            writer.writerow(f.domain[v] for f, v in zip(tree.space.features, point))
    return str(path)


def test_every_command_output_matches_the_pinned_digest(capsys, monkeypatch, tmp_path):
    # tree files are named relative to the fixtures, as stats prints them
    monkeypatch.chdir(FIXTURE_DIR)
    runs = [("stats", ("-t", *(f"{name}.json" for name in FIXTURE_NAMES)))]
    for name in FIXTURE_NAMES:
        rows = write_rows(load_tree(name), tmp_path / f"{name}.csv")
        runs += [
            (command, ("-t", f"{name}.json", *flags))
            for command, flags in invocations(name, rows)
        ]
    records = []
    for command, flags in runs:
        for fmt in ("text", "json"):
            for verify in ((), ("--verify",)):
                code = run([command, *flags, "--format", fmt, *verify])
                argv = " ".join((command, *flags, fmt, *verify))
                records += [f"{argv} -> {code}", capsys.readouterr().out]
    assert len(records) > 2000
    digest = hashlib.sha256("\n".join(records).replace(str(tmp_path), "TMP").encode())
    assert digest.hexdigest() == CLI_DIGEST
