import itertools
import pathlib
import weakref

from dtexplain import (
    DecisionTree,
    Edge,
    FeatureSpace,
    Leaf,
    Split,
    oracle,
    parse_tree_file,
    random_tree,
)

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"

FIXTURE_NAMES = (
    "or_tree",
    "or_of_ands",
    "selector",
    "cross_circle",
    "play_tennis",
    "restaurant",
    "articles",
    "repeat_feature",
    "constant",
)


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.json")


def load_tree(name: str) -> DecisionTree:
    return parse_tree_file(fixture_path(name))


def literal_names(tree, literals) -> frozenset[str]:
    """Render a literal collection as a set of 'feature=value' strings."""
    return frozenset(lit.render(tree.space) for lit in literals)


def path_steps(tree, end: int) -> list[tuple[int, int]]:
    """The internal nodes on the path from the root to node number
    ``end``, deepest first, as ``(node, child)``: the path leaves ``node``
    towards ``child``.  Read off the tree's parent list."""
    steps = []
    while (node := tree._parent[end]) >= 0:
        steps.append((node, end))
        end = node
    return steps


def lowest_point(tree, path) -> tuple[int, ...]:
    """The path's point with each feature at the lowest value it allows."""
    point = [0] * len(tree.space)
    for lit in path.literals:
        point[lit.feature] = (lit.mask & -lit.mask).bit_length() - 1
    return tuple(point)


_NODE_NUMBERS = weakref.WeakKeyDictionary()


def node_edges(tree, node: int) -> list[tuple[int, int]]:
    """The edges out of node number ``node`` in declaration order, as
    ``(child number, raw edge mask)``, read from ``tree.nodes`` and the
    node ids rather than from the tree's lowered form; none at a leaf."""
    numbers = _NODE_NUMBERS.get(tree)
    if numbers is None:
        numbers = _NODE_NUMBERS[tree] = {nid: i for i, nid in enumerate(tree._ids)}
    split = tree.nodes[tree._ids[node]]
    if isinstance(split, Leaf):
        return []
    return [(numbers[e.child], e.mask) for e in split.edges]


def oversized_trees():
    """Six random trees whose feature space the brute-force oracle refuses."""
    trees = (
        random_tree(seed, max_features=12, max_domain=5, max_depth=6)
        for seed in range(200)
    )
    oversized = [t for t in trees if t.space.point_count() > oracle.MAX_POINTS][:6]
    assert len(oversized) == 6
    return oversized


def or_chain_tree(depth: int) -> DecisionTree:
    """x1 or ... or x<depth> over binary features: node c<k> tests
    x<k+1>; value 1 leads to a class-1 leaf, value 0 to the next test,
    the last of which leads to the only class-0 leaf."""
    space = FeatureSpace.from_pairs((f"x{k + 1}", ("0", "1")) for k in range(depth))
    nodes = {"none": Leaf(0)}
    for k in range(depth):
        nxt = f"c{k + 1}" if k + 1 < depth else "none"
        edges = (Edge(0b1, nxt), Edge(0b10, f"hit{k + 1}"))
        nodes[f"c{k}"] = Split(k, edges)
        nodes[f"hit{k + 1}"] = Leaf(1)
    return DecisionTree(space, ("0", "1"), "c0", nodes)


def comb_tree(n: int) -> DecisionTree:
    """Binary features x1 ... x<n>, then y.  Node c<k> tests x<k+1>:
    value 0 leads to the next test (the last to a class-0 leaf), value 1
    to a test of y whose y=1 leaf is the only leaf of class 1 below it.
    The all-zero instance has the n conflict sets {x<k>, y}, no literal
    it cannot drop alone, and two PI-explanations: {y} and {x1 ... x<n>}."""
    names = [f"x{k + 1}" for k in range(n)] + ["y"]
    space = FeatureSpace.from_pairs((name, ("0", "1")) for name in names)
    nodes = {"none": Leaf(0)}
    for k in range(n):
        nxt = f"c{k + 1}" if k + 1 < n else "none"
        edges = (Edge(0b1, nxt), Edge(0b10, f"y{k}"))
        nodes[f"c{k}"] = Split(k, edges)
        y_edges = (Edge(0b1, f"miss{k}"), Edge(0b10, f"hit{k}"))
        nodes[f"y{k}"] = Split(n, y_edges)
        nodes[f"miss{k}"] = Leaf(0)
        nodes[f"hit{k}"] = Leaf(1)
    return DecisionTree(space, ("0", "1"), "c0", nodes)


def or_of_ands_tree(k: int, m: int) -> DecisionTree:
    """(a1_1 and ... and a1_m) or ... or (ak_1 and ... and ak_m) over
    binary features.  Term i tests ai_1 ... ai_m in turn, and ones on all
    of them lead to a class-1 leaf; a 0 leaves the term for a fresh copy
    of the tests of terms i+1 ... k, and a 0 in the last term leads to a
    class-0 leaf."""
    space = FeatureSpace.from_pairs(
        (f"a{i + 1}_{j + 1}", ("0", "1")) for i in range(k) for j in range(m)
    )
    ids = (f"n{n}" for n in itertools.count())
    nodes = {}

    def terms(i: int) -> str:
        """Build a fresh copy of the tests of terms i+1 ... k, a class-0
        leaf if there are none, and return the id of its root."""
        if i == k:
            nodes[leaf := next(ids)] = Leaf(0)
            return leaf
        tests = [next(ids) for _ in range(m)]
        nodes[hit := next(ids)] = Leaf(1)
        for j, ones in enumerate(tests[1:] + [hit]):
            edges = (Edge(0b1, terms(i + 1)), Edge(0b10, ones))
            nodes[tests[j]] = Split(i * m + j, edges)
        return tests[0]

    return DecisionTree(space, ("0", "1"), terms(0), nodes)


def one_edge_split_tree() -> DecisionTree:
    """x in {a, b, c} and y in {0, 1}.  The root tests x with one edge
    that covers its whole domain, so every path's literal on x starts as
    the whole domain.  Below it, y=1 leads to a class-1 leaf and y=0 to a
    re-test of x, which is entered with the whole domain of x still
    allowed: x=a leads to a class-1 leaf and x in {b, c} to a class-0
    leaf."""
    space = FeatureSpace.from_pairs((("x", ("a", "b", "c")), ("y", ("0", "1"))))
    nodes = {
        "root": Split(0, (Edge(0b111, "y"),)),
        "y": Split(1, (Edge(0b1, "again"), Edge(0b10, "yes"))),
        "again": Split(0, (Edge(0b1, "a"), Edge(0b110, "bc"))),
        "yes": Leaf(1),
        "a": Leaf(1),
        "bc": Leaf(0),
    }
    return DecisionTree(space, ("0", "1"), "root", nodes)
