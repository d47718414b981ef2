"""Span tracing by wrapping the package's public functions.

:class:`Tracer` replaces module attributes (and two oracle methods) with
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Internal calls go through module
globals, so they are caught too; the recursive ``explain.chk_down`` is
deliberately left alone.  Spans live in flat arrays in memory and are
written out once, at the end of a run.  :meth:`enable` and
:meth:`disable` swap the wrappers in and the originals back.
"""

from __future__ import annotations

import contextlib
import gzip
import statistics
import sys
import time
from array import array
from collections import defaultdict

from refcheck import minimize

# (module, attribute) pairs that are wrapped, keyed by span name
FUNCTIONS = {
    "model.parse_tree": ("model", "parse_tree"),
    "model.classify": ("model", "classify"),
    "model.path_point_count": ("model", "path_point_count"),
    "explain.entails": ("explain", "entails"),
    "explain.is_path_redundant": ("explain", "is_path_redundant"),
    "explain.one_pi_explanation_path": ("explain", "one_pi_explanation_path"),
    "explain.one_pi_explanation_instance": ("explain", "one_pi_explanation_instance"),
    "hitting.build_hitting_sets": ("hitting", "build_hitting_sets"),
    "hitting.enumerate_mhs": ("hitting", "enumerate_mhs"),
    "report.tree_report": ("report", "tree_report"),
    "report.render_table": ("report", "render_table"),
    "selfcheck.check_tree": ("selfcheck", "check_tree"),
    "randtree.random_tree": ("randtree", "random_tree"),
    "cli.run": ("cli", "run"),
}
METHODS = {
    "oracle.entails": ("oracle", "BruteForceOracle", "entails"),
    "oracle.enumerate_pi": ("oracle", "BruteForceOracle", "enumerate_pi"),
}
HOOK = "bench.hook"  # the tracer's own bookkeeping inside a traced call
PACKAGE = "dtexplain"


def _minimal_count(sets) -> int:
    """Distinct inclusion-minimal members of a hitting-set family."""
    return len(minimize(sum(1 << i for i in members) for _, members in sets))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)  # (root, name)
        self._oracle_keys: dict[int, tuple[object, set]] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------

    def _kind(self, name: str) -> int:
        kid = self._ids.get(name)
        if kid is None:
            kid = self._ids[name] = len(self.names)
            self.names.append(name)
        return kid

    def _open(self, kid: int) -> int:
        index = len(self.kind)
        self.kind.append(kid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _wrapper(self, name: str, fn, after=None):
        kid = self._kind(name)
        hook = self._kind(HOOK)
        start, end, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            index = self._open(kid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = time.perf_counter()
                start[index] = t0
                stack.pop()
            if after is not None:
                h = self._open(hook)
                start[h] = time.perf_counter()
                after(args, result)
                end[h] = time.perf_counter()
                stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ------------------------------------------------------

    def _count(self, name: str, delta: int) -> None:
        root = self._stack[1] if len(self._stack) > 1 else -1
        if root >= 0:
            self.counts[(self.names[self.kind[root]], name)] += delta

    def _close_root(self, root: str) -> None:
        # each oracle was kept alive until now, so no two share an id
        distinct = sum(len(keys) for _, keys in self._oracle_keys.values())
        self.counts[(root, "oracle.distinct_queries")] += distinct
        self._oracle_keys.clear()

    def _after(self, name: str):
        count = self._count
        if name == "model.parse_tree":
            return lambda args, tree: count("model.nodes_parsed", tree.node_count)
        if name == "explain.is_path_redundant":
            return lambda args, res: count("explain.redundancy_node_visits", res.node_visits)
        if name == "hitting.build_hitting_sets":
            def family(args, hs):
                count("hitting.family_sets", len(hs.sets))
                count("hitting.family_minimal", _minimal_count(hs.sets))
            return family
        if name == "hitting.enumerate_mhs":
            return lambda args, found: count("hitting.mhs_found", len(found))
        if name == "oracle.entails":
            keys = self._oracle_keys

            def distinct(args, _):
                oracle, literals = args[0], args[1]
                _, seen = keys.setdefault(id(oracle), (oracle, set()))
                seen.add(frozenset((lit.feature, lit.allowed) for lit in literals))
            return distinct
        return None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Find every place a package module holds a listed function, and
        build its wrapper; tracing starts with :meth:`enable`."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for name, (module, attr) in FUNCTIONS.items():
            fn = getattr(modules[f"{PACKAGE}.{module}"], attr)
            traced = self._wrapper(name, fn, self._after(name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn, traced))
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(modules[f"{PACKAGE}.{module}"], cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn, self._wrapper(name, fn, self._after(name))))

    def enable(self) -> None:
        for owner, key, _, traced in self._patches:
            setattr(owner, key, traced)

    def disable(self) -> None:
        for owner, key, fn, _ in self._patches:
            setattr(owner, key, fn)

    @contextlib.contextmanager
    def tracing(self, root: str):
        """Trace the enclosed calls under one root span."""
        self.enable()
        try:
            with _Span(self, root):
                yield
        finally:
            self.disable()

    # -- analysis ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzip'd tab-separated lines: name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.kind)):
                out.write(f"{names[self.kind[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class _Span:
    """A root span opened by the benchmark itself; roots do not nest."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.kid = tracer._kind(name)
        self.index = -1

    def __enter__(self):
        self.index = self.tracer._open(self.kid)
        self.tracer.start[self.index] = time.perf_counter()

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.end[self.index] = time.perf_counter()
        tracer._stack.pop()
        if len(tracer._stack) == 1:
            tracer._close_root(self.name)


class SpanSummary:
    """Per-span durations, self times and the root span each belongs to."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.kind)
        self.tracer = tracer
        self.duration = array("d", (tracer.end[i] - tracer.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        self.root = array("i", bytes(4 * n))
        self.by_kind: dict[int, list[int]] = defaultdict(list)
        for i in range(n):
            self.by_kind[tracer.kind[i]].append(i)
            p = tracer.parent[i]
            if p < 0:
                self.root[i] = i
            else:
                self.root[i] = self.root[p]
                child[p] += self.duration[i]
        self.self_time = array("d", (self.duration[i] - child[i] for i in range(n)))

    def select(self, name: str, root: str, parent: str | None = None) -> list[int]:
        """Spans called ``name`` under a root span called ``root`` and, if
        given, directly inside a span called ``parent``."""
        ids, kind, parents = self.tracer._ids, self.tracer.kind, self.tracer.parent
        if name not in ids or root not in ids:
            return []
        spans = [i for i in self.by_kind[ids[name]] if kind[self.root[i]] == ids[root]]
        if parent is not None:
            want = ids.get(parent)
            spans = [i for i in spans if parents[i] >= 0 and kind[parents[i]] == want]
        return spans

    def total(self, spans: list[int]) -> float:
        return sum(self.duration[i] for i in spans)

    def self_total(self, spans: list[int]) -> float:
        return sum(self.self_time[i] for i in spans)

    def median(self, spans: list[int]) -> float:
        return statistics.median(self.duration[i] for i in spans) if spans else 0.0
