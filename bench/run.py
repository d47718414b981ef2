"""Benchmark runner for dtexplain.

    python3 bench/run.py                      # every workload, one process each
    python3 bench/run.py --workload audit --seed 3 --seconds 30 --trace 0

A run generates its inputs with ``gen.py`` (in a child process, so the
program receives only files), times the program's set-up several times,
runs the workload's operations as a closed loop with one client for
``--seconds`` in whole rounds, times the workload's CLI command through
``cli.run`` several times, checks every output against the independent
``refcheck`` and prints one JSON object as its last line of stdout.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it wraps the package's public functions (see ``tracing.py``), traces
every set-up and CLI invocation, runs each operation once untraced and
once traced, and reports per-layer metrics from the recorded spans plus
the tracing overhead (traced against untraced operation time).  Spans
are written to ``.bench_out/spans-<workload>-<seed>.tsv.gz``.
Assertions must stay on: the guard ``assert`` in
``one_pi_explanation_path`` is part of the program being measured.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("audit", "query", "verify")
SIDE_REPS = 9  # set-ups and CLI invocations timed during the loop
WARMUP_OPS = 3


def _load_package():
    """Import dtexplain from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dtexplain", "__init__.py")):
        raise SystemExit(f"bench: no package source under {src}")
    sys.path.insert(0, src)
    import dtexplain
    from dtexplain import cli, explain, hitting, model, oracle, randtree, report, selfcheck  # noqa: F401

    if os.path.dirname(os.path.abspath(dtexplain.__file__)) != os.path.join(src, "dtexplain"):
        raise SystemExit(f"bench: dtexplain was imported from {dtexplain.__file__}")
    return dtexplain


def _settle() -> None:
    """Collect garbage and freeze what survives, so that collections inside
    the next timed phase scan only what the phase allocates, as they would
    in a fresh process, and start from the same state every time."""
    gc.collect()
    gc.freeze()


def _quantile(values: list, q: int) -> float:
    """The q-th percentile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


class Run:
    """One workload in this process: set-up, operation loop, CLI command.

    The host's speed drifts over seconds, so set-up and the CLI command
    are not timed back to back: the loop pauses every ``seconds /
    SIDE_REPS`` to time one more set-up and one more CLI invocation, so
    that their figures span the whole run like the operations do."""

    def __init__(self, wl, dx, seconds: float, tracer=None):
        self.wl, self.dx, self.seconds, self.tracer = wl, dx, seconds, tracer
        self.setup_times: list[float] = []
        self.cli_times: list[float] = []
        self.cli_outputs: set[str] = set()
        self.argv = wl.cli_argv()

    def _span(self, name: str):
        return self.tracer.tracing(name) if self.tracer else contextlib.nullcontext()

    def setup(self) -> list:
        _settle()
        with self._span("bench.setup"):
            t0 = time.perf_counter()
            trees = self.wl.setup()
            self.setup_times.append(time.perf_counter() - t0)
        return trees

    def cli(self) -> None:
        _settle()
        out, err = io.StringIO(), io.StringIO()
        with self._span("bench.cli"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = self.dx.cli.run(self.argv)
                t1 = time.perf_counter()
        if code != 0:
            sys.stderr.write(err.getvalue())
            raise SystemExit(f"bench: dtexplain {' '.join(self.argv)} exited {code}")
        self.cli_times.append(t1 - t0)
        self.cli_outputs.add(out.getvalue())

    def side(self) -> None:
        self.setup()
        self.cli()
        _settle()

    def rounds(self, ops: list, outputs: list, durations: list) -> tuple[int, int, int]:
        """Whole rounds over ``ops``, another one only while it is expected
        to end within ``seconds`` of loop time, pauses for set-up and CLI
        timing excluded; SIDE_REPS such pauses in all.  The first round's
        outputs go to ``outputs``, None for a failed operation, and later
        rounds must repeat them.  Returns (rounds, failed, mismatched)."""
        perf = time.perf_counter
        interval = self.seconds / SIDE_REPS
        sides = 0
        started = perf()
        paused = 0.0
        rounds = failed = mismatched = 0
        while True:
            round_start = perf() - paused
            for i, op in enumerate(ops):
                t0 = perf()
                if sides < SIDE_REPS and t0 - started - paused >= sides * interval:
                    self.side()
                    sides += 1
                    t1 = perf()
                    paused += t1 - t0
                    t0 = t1
                try:
                    out = op()
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = exc
                durations.append(perf() - t0)
                if isinstance(out, Exception):
                    failed += 1
                    print(f"bench: operation {i} failed: {out!r}", file=sys.stderr)
                    out = None
                if not rounds:
                    outputs.append(out)
                elif out is not None and outputs[i] is not None and outputs[i] != out:
                    mismatched += 1
            rounds += 1
            now = perf() - paused
            if now - started + (now - round_start) > self.seconds:
                break
        while sides < SIDE_REPS:
            self.side()
            sides += 1
        return rounds, failed, mismatched


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if sys.flags.optimize:
        raise SystemExit("bench: run without -O; the program's asserts are part of the workload")
    dx = _load_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    out_dir = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", name,
         "--seed", str(seed), "--out", out_dir],
        check=True, timeout=300,
    )
    tracer = Tracer() if trace else None
    try:
        wl = WORKLOADS[name](out_dir, dx)
        run = Run(wl, dx, seconds, tracer)
        if tracer:
            tracer.install()
        wl.trees = run.setup()
        wl.prepare()
        ops = wl.operations()
        for op in ops[:WARMUP_OPS]:
            op()
        outputs: list = []
        durations: list = []
        _settle()
        if tracer:
            plain: list = []
            traced: list = []
            ops = [_paired(tracer, i, op, plain, traced) for i, op in enumerate(ops)]
        rounds, failed, mismatched = run.rounds(ops, outputs, durations)
        attempted = len(ops) * rounds
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = wl.check(outputs, min(run.cli_outputs))
        if len(run.cli_outputs) != 1:
            problems.append(f"dtexplain {run.argv[0]} printed different bytes on repeated runs")
        if mismatched:
            problems.append(f"{mismatched} operations gave different outputs in later rounds")
        for p in problems[:20]:
            print(f"bench: check failed: {p}", file=sys.stderr)

        if tracer:
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"spans-{name}-{seed}.tsv.gz"))
            metrics = layer_metrics(tracer, rounds, len(run.setup_times), len(run.cli_times),
                                    sum(traced) / sum(plain) - 1)
        else:
            metrics = {
                "setup_s": (statistics.median(run.setup_times), "s"),
                "throughput_per_s": (len(durations) / sum(durations), "1/s"),
                "latency_p50_ms": (1000 * statistics.median(durations), "ms"),
                "latency_p90_ms": (1000 * _quantile(durations, 90), "ms"),
                "cli_s": (statistics.fmean(run.cli_times), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        print(f"bench: {name} seed {seed}: {attempted} operations in {rounds} rounds "
              f"of {len(ops)}, {len(run.setup_times)} set-ups, {len(run.cli_times)} "
              f"CLI runs", file=sys.stderr)
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        if tracer:
            tracer.disable()
        shutil.rmtree(out_dir, ignore_errors=True)


def _paired(tracer, i: int, op, plain: list, traced: list):
    """Run ``op`` once untraced and once traced, the order alternating with
    ``i``, so that the two timings behind the tracing overhead see the same
    host state.  Returns the traced run's output."""
    perf = time.perf_counter

    def pair():
        for tracing in (i % 2 == 0, i % 2 == 1):
            if tracing:
                with tracer.tracing("bench.op"):
                    t0 = perf()
                    out = op()
                    traced.append(perf() - t0)
            else:
                t0 = perf()
                untraced_out = op()
                plain.append(perf() - t0)
        if out != untraced_out:
            raise AssertionError("the traced call returned a different output")
        return out
    return pair


def layer_metrics(tracer, rounds: int, setups: int, clis: int, overhead: float) -> dict:
    """Per-layer metrics: loop figures per round, set-up figures per set-up,
    CLI figures per invocation.  Times of layers that call other traced
    layers are self times."""
    s = tracer.summary()
    SETUP, OP, CLI = "bench.setup", "bench.op", "bench.cli"

    def count(root, name, per):
        return tracer.counts.get((root, name), 0) / per

    def self_s(name, root=OP, per=rounds):
        return s.self_total(s.select(name, root)) / per

    def total_s(name, root=OP, per=rounds):
        return s.total(s.select(name, root)) / per

    entails = s.select("explain.entails", OP)
    guard = s.select("explain.entails", OP, parent="explain.one_pi_explanation_path")
    sets = count(OP, "hitting.family_sets", rounds)
    minimal = count(OP, "hitting.family_minimal", rounds)
    oracle_calls = s.select("oracle.entails", OP)
    return {
        "model.parse_s": (total_s("model.parse_tree", SETUP, setups), "s"),
        "model.nodes_parsed": (count(SETUP, "model.nodes_parsed", setups), "count"),
        "model.classify_us": (1e6 * s.median(s.select("model.classify", OP)), "us"),
        "explain.redundancy_s": (self_s("explain.is_path_redundant"), "s"),
        "explain.redundancy_node_visits": (count(OP, "explain.redundancy_node_visits", rounds), "count"),
        "explain.extract_path_s": (self_s("explain.one_pi_explanation_path"), "s"),
        "explain.guard_entails_calls": (len(guard) / rounds, "count"),
        "explain.guard_entails_s": (s.total(guard) / rounds, "s"),
        "explain.extract_instance_s": (self_s("explain.one_pi_explanation_instance"), "s"),
        "explain.entails_calls": (len(entails) / rounds, "count"),
        "explain.entails_s": (s.total(entails) / rounds, "s"),
        "hitting.build_s": (self_s("hitting.build_hitting_sets"), "s"),
        "hitting.family_sets": (sets, "count"),
        "hitting.family_minimal": (minimal, "count"),
        "hitting.family_minimal_share": (minimal / sets if sets else 0.0, "ratio"),
        "hitting.mhs_s": (total_s("hitting.enumerate_mhs"), "s"),
        "hitting.mhs_found": (count(OP, "hitting.mhs_found", rounds), "count"),
        "report.tree_report_self_s": (self_s("report.tree_report", CLI, clis), "s"),
        "report.render_s": (total_s("report.render_table", CLI, clis), "s"),
        "oracle.entails_calls": (len(oracle_calls) / rounds, "count"),
        "oracle.distinct_queries": (count(OP, "oracle.distinct_queries", rounds), "count"),
        "oracle.entails_s": (s.total(oracle_calls) / rounds, "s"),
        "oracle.enumerate_pi_s": (self_s("oracle.enumerate_pi"), "s"),
        "selfcheck.check_tree_self_s": (self_s("selfcheck.check_tree"), "s"),
        "randtree.random_tree_s": (total_s("randtree.random_tree", SETUP, setups), "s"),
        "cli.self_s": (self_s("cli.run", CLI, clis), "s"),
        "trace.overhead_pct": (100 * overhead, "%"),
        "trace.spans": (len(tracer.kind), "count"),
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; prints every metric by name."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dtexplain benchmark")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    raise SystemExit(main())
