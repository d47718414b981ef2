"""Redundancy decision, extraction, entailment."""

import contextlib
import json
import random
import signal
import tracemalloc

import pytest

import dtexplain.explain
from conftest import (
    FIXTURE_NAMES,
    comb_tree,
    literal_names,
    load_tree,
    node_edges,
    or_chain_tree,
    oversized_trees,
    path_steps,
)

from dtexplain import (
    BruteForceOracle,
    Literal,
    PathMismatchError,
    RedundancyResult,
    classify,
    entails,
    instance_literals,
    is_path_redundant,
    one_pi_explanation_instance,
    one_pi_explanation_path,
    parse_tree_file,
    path_point_count,
    random_instance,
    random_tree,
)
from dtexplain.cli import run
from dtexplain.explain import (
    PATH_RESTRICTED,
    PATH_UNRESTRICTED,
    _contrary_leaf,
    _extract,
    _greedy,
    _scan,
    _source,
)


def lits(tree, *pairs):
    return [
        Literal(tree.space.feature_by_name(name).index, 1 << value)
        for name, value in pairs
    ]


def allowed_masks(tree, literals):
    """The lowered lookup's argument: one value mask per feature, the
    whole domain for a feature without a literal."""
    masks = [(1 << len(f.domain)) - 1 for f in tree.space.features]
    for lit in literals:
        masks[lit.feature] = lit.mask
    return masks


# -- contrary-leaf lookup -------------------------------------------------------


def test_contrary_leaf_found_when_x4_free():
    tree = load_tree("or_of_ands")
    kept = lits(tree, ("x1", 1), ("x2", 0), ("x3", 1))
    # entry at the sibling edge of P2's x4 test: the x4=0 leaf
    l5 = tree._ids.index("l5")
    assert _contrary_leaf(tree, l5, 1, allowed_masks(tree, kept)) == (True, 1)
    # from the root, P2 with x4 free reaches that leaf too
    assert not entails(tree, kept, 1)


def test_contrary_leaf_blocked_when_x2_free():
    tree = load_tree("or_of_ands")
    kept = lits(tree, ("x1", 1), ("x3", 1), ("x4", 1))
    # entry at the sibling edge of P2's x2 test: the x2=1 leaf (same class)
    l7 = tree._ids.index("l7")
    assert _contrary_leaf(tree, l7, 1, allowed_masks(tree, kept)) == (False, 1)
    # from the root, P2 with x2 free still forces class 1
    assert entails(tree, kept, 1)


def narrowing_lookup(tree, node, target, allowed):
    """The lookup as a walk that narrows the masks on the way down from
    ``node``, each stack entry carrying its own copy of them."""
    examined, stack = 0, [(node, list(allowed))]
    while stack:
        node, masks = stack.pop()
        examined += 1
        f = tree._feature[node]
        if f < 0:
            if tree._class[node] != target:
                return True, examined
            continue
        for child, mask in reversed(node_edges(tree, node)):
            if mask & masks[f]:
                narrowed = masks[:]
                narrowed[f] &= mask
                stack.append((child, narrowed))
    return False, examined


def test_lookup_reads_what_a_narrowing_walk_writes():
    """From any node, the lookup answers and counts as a walk that
    narrows the masks from that node, started with each mask met with the
    edges taken to the node: the mask itself when it lies inside them, a
    feature's values on those edges when it is free.  It leaves the masks
    as they were, on an early return too."""
    rng = random.Random(8)
    returns = set()
    for tree in scan_battery():
        full = tree._full
        for node in range(tree.node_count):
            reach = full[:]  # each feature's values on the edges from the root
            for parent, child in path_steps(tree, node):
                reach[tree._feature[parent]] &= dict(node_edges(tree, parent))[child]
            allowed = [
                rng.choice((whole, values, values & rng.randrange(whole + 1)))
                for whole, values in zip(full, reach)
            ]
            met = [a & r for a, r in zip(allowed, reach)]
            for target in range(len(tree.classes)):
                before = allowed[:]
                got = _contrary_leaf(tree, node, target, allowed)
                assert got == narrowing_lookup(tree, node, target, met)
                assert allowed == before
                returns.add(got[0])
    assert returns == {False, True}


# -- redundancy decision --------------------------------------------------------


def test_p2_redundant_with_witness_x2():
    tree = load_tree("or_of_ands")
    verdict = is_path_redundant(tree, tree.path("P2"))
    assert verdict.redundant
    assert tree.space.feature(verdict.witness).name == "x2"


def test_p3_irredundant():
    tree = load_tree("or_of_ands")
    verdict = is_path_redundant(tree, tree.path("P3"))
    assert not verdict.redundant
    assert verdict.witness is None


def test_restaurant_named_paths():
    tree = load_tree("restaurant")
    by_lits = {literal_names(tree, p.literals): p for p in tree.paths}
    redundant = by_lits[
        frozenset({"Patrons=Full", "Hungry=Yes", "Type=Italian"})
    ]
    assert is_path_redundant(tree, redundant).redundant
    irredundant = by_lits[frozenset({"Patrons=None"})]
    assert not is_path_redundant(tree, irredundant).redundant


def test_single_literal_paths_irredundant():
    tree = load_tree("or_tree")
    assert not is_path_redundant(tree, tree.path("P2")).redundant


def test_repeated_feature_paths_match_oracle():
    tree = load_tree("repeat_feature")
    for path in tree.paths:
        verdict = is_path_redundant(tree, path)
        assert verdict.redundant == BruteForceOracle(tree).is_redundant(path)


def test_path_from_other_tree_rejected():
    a = load_tree("or_tree")
    b = load_tree("cross_circle")
    with pytest.raises(PathMismatchError):
        is_path_redundant(a, b.path("P1"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_visit_bound(name):
    tree = load_tree(name)
    for path in tree.paths:
        verdict = is_path_redundant(tree, path)
        assert verdict.node_visits <= tree.node_count + path.depth


# (path id, redundant, witness feature, node visits) for every path
VERDICTS = {
    "or_tree": [("Q1", False, None, 4), ("P1", True, "x1", 4), ("P2", False, None, 3)],
    "or_of_ands": [
        ("Q1", False, None, 9), ("Q2", True, "x3", 4), ("P1", True, "x1", 10),
        ("Q3", True, "x1", 9), ("Q4", True, "x3", 4), ("P2", True, "x2", 6),
        ("P3", False, None, 6),
    ],
    "selector": [
        ("Q1", False, None, 8), ("Q2", True, "x2", 4), ("P1", False, None, 7),
        ("Q3", False, None, 8), ("P2", False, None, 5),
    ],
    "cross_circle": [
        ("P1", False, None, 4), ("P2", True, "y>0.73", 4), ("Q1", False, None, 4),
    ],
    "play_tennis": [
        ("P1", True, "Humidity", 4), ("Q1", False, None, 4), ("P2", False, None, 4),
    ],
    "restaurant": [
        ("Q1", False, None, 2), ("P1", False, None, 2), ("Q2", False, None, 6),
        ("P2", False, None, 6), ("Q3", True, "Hungry", 4), ("Q4", True, "Hungry", 6),
        ("P3", False, None, 9), ("P4", False, None, 7),
    ],
    "articles": [
        ("Q1", False, None, 3), ("P1", False, None, 6), ("P2", True, "Thread", 4),
        ("Q2", True, "Length", 6),
    ],
    "repeat_feature": [
        ("P1", False, None, 3), ("Q1", False, None, 3), ("Q2", False, None, 3),
    ],
    "constant": [("Q1", False, None, 0)],
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_redundancy_verdicts_pinned(name):
    tree = load_tree(name)
    got = []
    for path in tree.paths:
        verdict = is_path_redundant(tree, path)
        witness = None
        if verdict.witness is not None:
            witness = tree.space.feature(verdict.witness).name
        got.append((path.path_id, verdict.redundant, witness, verdict.node_visits))
    assert got == VERDICTS[name]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_redundancy_equals_strict_shrinkage(name):
    tree = load_tree(name)
    for path in tree.paths:
        verdict = is_path_redundant(tree, path)
        explanation = one_pi_explanation_path(tree, path)
        assert verdict.redundant == (
            len(explanation.literals) < len(path.literals)
        )


# -- extraction, path-restricted -------------------------------------------------


def test_extract_p2():
    tree = load_tree("or_of_ands")
    explanation = one_pi_explanation_path(tree, tree.path("P2"))
    assert literal_names(tree, explanation.literals) == {"x3=1", "x4=1"}


def test_extract_cross_circle():
    tree = load_tree("cross_circle")
    explanation = one_pi_explanation_path(tree, tree.path("P2"))
    assert literal_names(tree, explanation.literals) == {"x>0.64=Y"}


def test_extract_play_tennis():
    tree = load_tree("play_tennis")
    explanation = one_pi_explanation_path(tree, tree.path("P1"))
    assert literal_names(tree, explanation.literals) == {"Outlook=overcast"}


def test_extract_irredundant_path_returns_itself():
    tree = load_tree("or_of_ands")
    p3 = tree.path("P3")
    explanation = one_pi_explanation_path(tree, p3)
    assert explanation.literals == p3.literal_set()


# -- extraction, instance-level ---------------------------------------------------


def test_extract_instance_selector():
    tree = load_tree("selector")
    explanation = one_pi_explanation_instance(tree, (1, 1, 1, 1))
    assert literal_names(tree, explanation.literals) == {"x1=1", "x3=1"}


def test_extract_instance_or_tree():
    tree = load_tree("or_tree")
    explanation = one_pi_explanation_instance(tree, (0, 1))
    assert literal_names(tree, explanation.literals) == {"x2=1"}


def test_extract_instance_constant_tree():
    tree = load_tree("constant")
    explanation = one_pi_explanation_instance(tree, (0,))
    assert explanation.literals == frozenset()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_extractions_minimal_and_contained(name):
    tree = load_tree(name)
    for path in tree.paths:
        explanation = one_pi_explanation_path(tree, path)
        assert explanation.literals <= path.literal_set()
        assert entails(tree, explanation.literals, path.prediction)
        assert BruteForceOracle(tree).entails(explanation.literals, path.prediction)
        for lit in explanation.literals:
            rest = explanation.literals - {lit}
            assert not entails(tree, rest, path.prediction)
            assert not BruteForceOracle(tree).entails(rest, path.prediction)


def root_start_greedy(tree, literals, order, target):
    """The greedy extraction with every lookup started at the root."""
    allowed = allowed_masks(tree, literals)
    dropped, entered = set(), 0
    for feature in order:
        values = allowed[feature]
        allowed[feature] = (1 << len(tree.space.feature(feature).domain)) - 1
        found, examined = _contrary_leaf(tree, 0, target, allowed)
        entered += examined
        if found:
            allowed[feature] = values
        else:
            dropped.add(feature)
    return frozenset(lit for lit in literals if lit.feature not in dropped), entered


def extract_path(tree, path):
    """A path's extracted explanation and the nodes its lookups entered."""
    src = _source(tree, path, PATH_RESTRICTED)
    return _extract(tree, src, _scan(tree, src))


def assert_path_start_matches_root_start(tree):
    """Lookups started on the source's path drop exactly the features that
    root-started lookups drop, and ``_greedy``'s enter no more nodes.
    Extraction returns the same explanation; its core lookup is not
    counted, since the root-started greedy makes none."""
    for path in tree.paths:
        order = dict.fromkeys(tree._feature[n] for n, _ in path_steps(tree, path.leaf))
        want, most = root_start_greedy(tree, path.literals, order, path.prediction)
        src = _source(tree, path, PATH_RESTRICTED)
        found, entered = _greedy(tree, src, order, _scan(tree, src))
        assert found == want == extract_path(tree, path)[0].literals
        assert entered <= most
    rng = random.Random(30)
    for _ in range(30):
        point = random_instance(tree.space, rng)
        target, path = classify(tree, point)
        literals = instance_literals(tree.space, point)
        order = range(len(literals) - 1, -1, -1)
        want, most = root_start_greedy(tree, literals, order, target)
        src = _source(tree, point, PATH_UNRESTRICTED)
        found, entered = _greedy(tree, src, order, _scan(tree, src))
        assert found == want == one_pi_explanation_instance(tree, point).literals
        assert entered <= most


@pytest.mark.parametrize(
    "tree",
    [pytest.param(load_tree(name), id=name) for name in FIXTURE_NAMES]
    + [pytest.param(or_chain_tree(60), id="or_chain-60")],
)
def test_path_start_lookups_match_root_start(tree):
    assert_path_start_matches_root_start(tree)


def test_path_start_lookups_match_root_start_on_random_trees():
    for seed in range(200):
        assert_path_start_matches_root_start(random_tree(seed))
    for tree in oversized_trees():
        assert_path_start_matches_root_start(tree)


def unpruned_greedy(tree, literals, order, target, leaf):
    """The greedy extraction with lookups started on the source's path, as
    ``_greedy`` starts them, but every lookup made."""
    chain = [leaf]
    while (node := tree._parent[chain[-1]]) >= 0:
        chain.append(node)
    top = {tree._feature[node]: k for k, node in enumerate(chain)}
    allowed = allowed_masks(tree, literals)
    dropped, entered, last = set(), 0, 0
    for feature in order:
        start = max(top.get(feature, 0), last)
        values = allowed[feature]
        allowed[feature] = (1 << len(tree.space.feature(feature).domain)) - 1
        before = allowed[:]
        found, examined = _contrary_leaf(tree, chain[start], target, allowed)
        assert allowed == before  # restored on either return
        entered += examined
        if found:
            allowed[feature] = values
        else:
            dropped.add(feature)
            last = start
    return frozenset(lit for lit in literals if lit.feature not in dropped), entered


def assert_pruning_matches_unpruned(tree):
    """Skipping the lookups that cannot find a contrary leaf (the first
    drop, and a feature not tested below the start) drops the same
    features and enters no more nodes."""
    for path in tree.paths:
        order = dict.fromkeys(tree._feature[n] for n, _ in path_steps(tree, path.leaf))
        want, most = unpruned_greedy(
            tree, path.literals, order, path.prediction, path.leaf
        )
        src = _source(tree, path, PATH_RESTRICTED)
        found, entered = _greedy(tree, src, order, _scan(tree, src))
        assert found == want
        assert entered <= most
    rng = random.Random(31)
    for _ in range(30):
        point = random_instance(tree.space, rng)
        target, path = classify(tree, point)
        literals = instance_literals(tree.space, point)
        order = range(len(literals) - 1, -1, -1)
        want, most = unpruned_greedy(tree, literals, order, target, path.leaf)
        src = _source(tree, point, PATH_UNRESTRICTED)
        found, entered = _greedy(tree, src, order, _scan(tree, src))
        assert found == want
        assert entered <= most


@pytest.mark.parametrize(
    "tree",
    [pytest.param(load_tree(name), id=name) for name in FIXTURE_NAMES]
    + [pytest.param(or_chain_tree(60), id="or_chain-60")],
)
def test_pruned_lookups_match_unpruned(tree):
    assert_pruning_matches_unpruned(tree)


def test_pruned_lookups_match_unpruned_on_random_trees():
    for seed in range(200):
        assert_pruning_matches_unpruned(random_tree(seed))


def one_lookup_per_node_scan(tree, src, stop):
    """The scan with one plain lookup per path node outside the core, from
    the node over its untaken edges; returns the scan's core, ``top`` in
    order, verdict and visits, and the number of lookups made."""
    allowed = allowed_masks(tree, src.literals)
    top, core, visits, lookups, verdict = {}, 0, 0, 0, None
    child = src.path.leaf
    while (node := tree._parent[child]) >= 0:
        f = tree._feature[node]
        top[f] = node
        if core >> f & 1:
            visits += 1
        else:
            taken = dict(node_edges(tree, node))[child]
            kept, above = allowed[f], tree._above[node]
            allowed[f] = (above or tree._full[f]) & ~taken
            found, examined = _contrary_leaf(tree, node, src.target, allowed)
            allowed[f] = kept
            visits += examined
            lookups += 1
            if found:
                core |= 1 << f
            elif verdict is None and not above:
                verdict = RedundancyResult(True, f, visits)
                if stop:
                    break
        child = node
    verdict = verdict or RedundancyResult(False, None, visits)
    return (core, list(top.items()), verdict, visits), lookups


def scan_battery():
    """Every fixture, small and wider random trees, OR-chains and combs,
    whose subtrees below the root hold leaves of both classes."""
    yield from (load_tree(name) for name in FIXTURE_NAMES)
    yield from (random_tree(seed) for seed in range(300))
    yield from (
        random_tree(seed, max_features=10, max_domain=5, max_depth=8)
        for seed in range(200)
    )
    yield from (or_chain_tree(d) for d in (1, 2, 5, 40))
    yield from (comb_tree(n) for n in (1, 30))


def count_lookups(monkeypatch) -> list:
    """Count the scan's calls of the lookup kernel in ``calls[0]`` and the
    nodes they enter in ``calls[1]``."""
    calls, kernel = [0, 0], dtexplain.explain._contrary_leaf

    def counted(*args):
        found, examined = kernel(*args)
        calls[0] += 1
        calls[1] += examined
        return found, examined

    monkeypatch.setattr(dtexplain.explain, "_contrary_leaf", counted)
    return calls


def test_scan_matches_one_lookup_per_node(monkeypatch):
    """Counting off-path subtrees from their preorder summaries gives the
    same core, ``top`` order, verdict (with its node visits) and visits as
    a lookup from every node, and the scan's lookups enter no more nodes,
    for paths and instances alike."""
    calls = count_lookups(monkeypatch)
    # the reference's lookups are counted too
    monkeypatch.setitem(globals(), "_contrary_leaf", dtexplain.explain._contrary_leaf)
    for tree in scan_battery():
        rng = random.Random(6)
        sources = [_source(tree, path, PATH_RESTRICTED) for path in tree.paths]
        sources += [
            _source(tree, random_instance(tree.space, rng), PATH_UNRESTRICTED)
            for _ in range(6)
        ]
        for src in sources:
            for stop in (False, True):
                calls[1] = 0
                want, _ = one_lookup_per_node_scan(tree, src, stop)
                entered, calls[1] = calls[1], 0
                scan = _scan(tree, src, stop)
                got = (scan.core, list(scan.top.items()), scan.verdict, scan.visits)
                assert got == want
                assert calls[1] <= entered


def preorder_summaries(tree, node):
    """The preorder walk of ``node``'s subtree, edges in declaration order:
    its first leaf's class, the nodes entered and features tested up to
    that leaf, and the same up to the first leaf of another class (or the
    whole subtree)."""
    first, count, tested, stack = None, 0, 0, [node]
    while stack:
        node = stack.pop()
        count += 1
        if tree._feature[node] >= 0:
            tested |= 1 << tree._feature[node]
            stack.extend(child for child, _ in reversed(node_edges(tree, node)))
        elif first is None:
            first = (tree._class[node], count, tested)
        elif tree._class[node] != first[0]:
            break
    return first + (count, tested)


def test_preorder_summaries_match_a_direct_walk():
    for tree in scan_battery():
        stored = zip(*tree._preorder)
        want = [preorder_summaries(tree, node) for node in range(tree.node_count)]
        assert list(stored) == want


def test_or_chain_scans_make_no_lookup(monkeypatch):
    """Every off-path subtree of an OR-chain path is a leaf or the rest of
    the chain below the path, whose features the path does not narrow, so
    the scan counts them all from the summaries.  An instance pins every
    feature, so only the rest of the chain below its first 1 is looked
    up; the all-zero instance's off-path subtrees are all leaves."""
    calls = count_lookups(monkeypatch)
    tree = or_chain_tree(200)
    rng = random.Random(4)
    zero = (0,) * 200
    points = [tuple(int(k == j) for k in range(200)) for j in (0, 1, 100, 199)]
    points += [random_instance(tree.space, rng) for _ in range(4)]
    sources = [(_source(tree, path, PATH_RESTRICTED), 0) for path in tree.paths]
    sources.append((_source(tree, zero, PATH_UNRESTRICTED), 0))
    sources += [(_source(tree, p, PATH_UNRESTRICTED), 1) for p in points]
    for src, most in sources:
        for stop in (False, True):
            calls[0] = 0
            assert _scan(tree, src, stop).visits > 0
            assert calls[0] <= most


@pytest.mark.parametrize("d", [50, 100, 200])
def test_or_chain_extraction_enters_quadratically_many_nodes(d):
    """Over all d + 1 paths of ``or_chain(d)`` path extraction enters at
    most 2 d^2 nodes (d^2 + d today); lookups that searched every subtree
    still open entered a cubic number."""
    tree = or_chain_tree(d)
    entered = sum(extract_path(tree, path)[1] for path in tree.paths)
    assert entered <= 2 * d * d


# -- entailment -------------------------------------------------------------------


def test_entails_pair_forces_class_one():
    tree = load_tree("or_of_ands")
    assert entails(tree, lits(tree, ("x3", 1), ("x4", 1)), 1)


def test_entails_x3_alone_fails():
    tree = load_tree("or_of_ands")
    class_id, _ = classify(tree, (0, 0, 1, 0))  # completion breaking {x3=1}
    assert tree.classes[class_id] == "0"
    assert not entails(tree, lits(tree, ("x3", 1)), 1)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_full_path_literals_entail(name):
    tree = load_tree(name)
    for path in tree.paths:
        assert entails(tree, path.literals, path.prediction)


def test_empty_literal_set_entails_only_constant():
    assert not entails(load_tree("or_tree"), [], 1)
    assert entails(load_tree("constant"), [], 0)


def test_entails_rejects_duplicate_feature():
    tree = load_tree("or_tree")
    with pytest.raises(ValueError):
        entails(tree, lits(tree, ("x1", 0), ("x1", 1)), 1)


@contextlib.contextmanager
def within_seconds(seconds: float):
    """Raise TimeoutError in the block instead of letting it run on."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


CALLER_LITERAL_QUERIES = {
    "entails": lambda tree, literals: entails(tree, literals, 1),
    "path_point_count": lambda tree, literals: path_point_count(tree.space, literals),
    "oracle": lambda tree, literals: BruteForceOracle(tree).entails(literals, 1),
}


@pytest.mark.parametrize("query", CALLER_LITERAL_QUERIES)
@pytest.mark.parametrize(
    "literal",
    [Literal(-1, 0b10), Literal(5, 0b10), Literal(0, 0b100)],
    ids=["feature-minus-one", "feature-past-the-end", "value-past-the-domain"],
)
def test_literals_outside_the_space_are_rejected(query, literal):
    """or_tree has two binary features.  Feature -1 used to constrain the
    last feature on the fast side while the oracle ignored it, feature 5
    raised IndexError on the fast side, and value 2 of x1 made fast
    ``entails`` true for every class and the oracle loop forever."""
    tree = load_tree("or_tree")
    ask = CALLER_LITERAL_QUERIES[query]
    with within_seconds(5), pytest.raises(ValueError, match="outside the feature space"):
        ask(tree, [literal])
    whole_domain = Literal(literal.feature % 2, 0b11)  # inside the space
    assert ask(tree, [whole_domain]) == (4 if query == "path_point_count" else False)


# -- deep trees ---------------------------------------------------------------------

CHAIN_DEPTH = 1100  # deeper than CPython's default recursion limit of 1000


@pytest.fixture(scope="module")
def or_chain(tmp_path_factory):
    """The OR-chain x1 or ... or x1100 over binary features, as a file and
    parsed: node k tests x_k; value 1 leads to a class-1 leaf and value 0
    to the next test, the last of which leads to the only class-0 leaf."""
    nodes = {}
    for k in range(1, CHAIN_DEPTH + 1):
        nodes[f"c{k}"] = {
            "feature": f"x{k}",
            "edges": [
                {"values": ["0"], "child": f"c{k + 1}" if k < CHAIN_DEPTH else "none"},
                {"values": ["1"], "child": f"hit{k}"},
            ],
        }
        nodes[f"hit{k}"] = {"leaf": "1"}
    nodes["none"] = {"leaf": "0"}
    doc = {
        "features": [
            {"name": f"x{k}", "domain": ["0", "1"]} for k in range(1, CHAIN_DEPTH + 1)
        ],
        "classes": ["0", "1"],
        "root": "c1",
        "nodes": nodes,
    }
    path = tmp_path_factory.mktemp("deep") / "or_chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), parse_tree_file(str(path))


def test_deep_chain_parse_memory_is_not_quadratic(or_chain):
    """Paths store their literals but no per-node tuples; their nodes are
    read off the tree, so the 1100-deep chain retains about 7 MiB."""
    path, _ = or_chain
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = parse_tree_file(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tree.paths) == CHAIN_DEPTH + 1
    assert retained < 12 * 2**20


def test_deep_chain_explain_instance_through_cli(or_chain, capsys):
    path, _ = or_chain
    code = run(["explain", "-t", path, "-i", json.dumps(["0"] * CHAIN_DEPTH)])
    out = capsys.readouterr().out
    assert code == 0
    # every x_k=0 is needed: freeing x_k opens the class-1 leaf below it
    assert out == "{" + ", ".join(f"x{k}=0" for k in range(1, CHAIN_DEPTH + 1)) + "}\n"


def test_deep_chain_redundancy_searches_the_whole_chain(or_chain):
    _, tree = or_chain
    shallowest = min([p for p in tree.paths if p.prediction == 1], key=lambda p: p.depth)
    assert literal_names(tree, shallowest.literals) == {"x1=1"}
    verdict = is_path_redundant(tree, shallowest)
    # with x1 free, the search descends all 1099 tests below to the class-0 leaf
    assert verdict == RedundancyResult(False, None, 1 + (CHAIN_DEPTH - 1) + 1)


def test_deep_chain_enumerate_instance_through_cli(or_chain, capsys):
    path, _ = or_chain
    code = run(["enumerate", "-t", path, "-i", json.dumps(["0"] * CHAIN_DEPTH)])
    out = capsys.readouterr().out
    assert code == 0
    # each class-1 leaf conflicts with its own x_k=0 only, so the one
    # minimal hitting set holds every literal
    assert out == "{" + ", ".join(f"x{k}=0" for k in range(1, CHAIN_DEPTH + 1)) + "}\n"


def test_deep_chain_enumerate_deepest_path_through_cli(or_chain, capsys):
    path, tree = or_chain
    deepest = max(tree.paths, key=lambda p: p.depth)
    assert deepest.depth == CHAIN_DEPTH
    code = run(["enumerate", "-t", path, "--path", deepest.path_id])
    out = capsys.readouterr().out
    assert code == 0
    # each class-1 leaf conflicts with x_k=0 only, so every literal is needed
    assert out == "{" + ", ".join(f"x{k}=0" for k in range(1, CHAIN_DEPTH + 1)) + "}\n"


def test_deep_chain_enumerate_shallowest_path_through_cli(or_chain, capsys):
    path, tree = or_chain
    shallowest = min([p for p in tree.paths if p.prediction == 1], key=lambda p: p.depth)
    code = run(["enumerate", "-t", path, "--path", shallowest.path_id])
    out = capsys.readouterr().out
    assert code == 0
    # the only contrary leaf lies 1100 tests down, behind x1=0
    assert out == "{x1=1}\n"
