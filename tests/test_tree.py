from fractions import Fraction as Fr
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from rtreelab.formats import FormatError, format_tree, parse_pair_file, parse_tree
from rtreelab.hyperbolicity import MetricTable
from rtreelab.oracles import FiniteTreeOracle
from rtreelab.tree import (
    Location,
    MetricTree,
    TreeStructureError,
    UnknownPointError,
    path_tree,
    star_tree,
)

from helpers import ReferenceTree, reference_point_on_segment


# ---------------------------------------------------------------------------
# independent oracle: distances via exhaustive simple-path enumeration on a
# subdivided graph (designated points become graph nodes)
# ---------------------------------------------------------------------------


def subdivided_graph(tree: MetricTree):
    adj: dict[str, list[tuple[str, Fr]]] = {v: [] for v in tree.vertices}
    on_edge: dict[tuple[str, str], list[tuple[Fr, str]]] = {}
    for name, loc in tree.designated.items():
        if isinstance(loc, str):
            adj.setdefault(name, [])
            adj[name].append((loc, Fr(0)))
            adj[loc].append((name, Fr(0)))
        else:
            on_edge.setdefault(loc.edge, []).append((loc.offset, name))
    for u, v, length in tree.edges:
        chain = [(Fr(0), u)] + sorted(on_edge.get((u, v), [])) + [(length, v)]
        for (o1, n1), (o2, n2) in zip(chain, chain[1:]):
            adj.setdefault(n1, []).append((n2, o2 - o1))
            adj.setdefault(n2, []).append((n1, o2 - o1))
    return adj


def oracle_distance(tree: MetricTree, a: str, b: str) -> Fr:
    """Sum of lengths along the unique simple path found by DFS enumeration."""
    adj = subdivided_graph(tree)
    paths = []

    def dfs(node, target, seen, acc):
        if node == target:
            paths.append(acc)
            return
        for nxt, w in adj[node]:
            if nxt not in seen:
                dfs(nxt, target, seen | {nxt}, acc + w)

    dfs(a, b, {a}, Fr(0))
    assert len(paths) >= 1
    assert len(set(paths)) == 1, "tree must have a unique path length"
    return paths[0]


@pytest.fixture
def path_abc():
    return MetricTree([("A", "B", 1), ("B", "C", 2)])


@pytest.fixture
def star_xyz():
    return star_tree({"x": 1, "y": 2, "z": 3}, hub="H")


def test_distance_concatenates_path_edges(path_abc):
    assert path_abc.distance("A", "C") == 3


def test_distance_identity(path_abc):
    assert path_abc.distance("B", "B") == 0


def test_distance_star_matches_path_enumeration_oracle(star_xyz):
    assert star_xyz.distance("x", "z") == 4
    assert star_xyz.distance("x", "z") == oracle_distance(star_xyz, "x", "z")
    assert star_xyz.distance("y", "z") == oracle_distance(star_xyz, "y", "z")


def test_distance_with_edge_points():
    t = MetricTree(
        [("A", "B", 4), ("B", "C", 2)],
        [("P", "A", "B", 1), ("Q", "B", "C", Fr(1, 2))],
    )
    assert t.distance("P", "Q") == 4 - 1 + Fr(1, 2)
    assert t.distance("P", "A") == 1
    assert t.distance("P", "P") == 0
    assert t.distance("P", "Q") == oracle_distance(t, "P", "Q")


def test_distance_two_points_same_edge():
    t = MetricTree([("A", "B", 10)], [("P", "A", "B", 2), ("Q", "A", "B", 7)])
    assert t.distance("P", "Q") == 5
    assert t.distance("P", "Q") == oracle_distance(t, "P", "Q")


def test_unknown_point_raises(path_abc):
    with pytest.raises(UnknownPointError):
        path_abc.distance("A", "nope")


def test_naming_a_point_adds_no_attribute_to_the_tree():
    # the name map is made on first use into an attribute set at build time,
    # so the instance dict keeps the keys every tree shares
    tree = MetricTree([("A", "B", 2), ("B", "C", 1)], [("M", "A", "B", 1), ("N", "B", "A", 1)])
    keys = list(vars(tree))
    assert tree.name_of(Location(("A", "B"), 1)) == "M" and tree.name_of("B") == "B"
    assert tree.name_of(Location(("A", "B"), Fr(1, 2))) is None
    assert list(vars(tree)) == keys


def test_center_degenerate_pair(path_abc):
    assert path_abc.same_point(path_abc.center("A", "A", "C"), "A")


def test_center_of_star_leaves_is_hub(star_xyz):
    assert star_xyz.same_point(star_xyz.center("x", "y", "z"), "H")


def test_center_path_triple_satisfies_defining_equations(path_abc):
    z = path_abc.center("A", "C", "B")
    assert path_abc.same_point(z, "B")
    for p, q in [("A", "C"), ("A", "B"), ("B", "C")]:
        assert path_abc.distance(p, q) == path_abc.distance(p, z) + path_abc.distance(z, q)


def test_center_permutation_invariant(star_xyz):
    pts = ["x", "y", "z"]
    centers = {star_xyz.resolve(star_xyz.center(*perm)) for perm in permutations(pts)}
    assert len(centers) == 1


def test_center_can_mint_edge_point():
    t = star_tree({"x": 1, "y": 1, "z": 3}, hub="H")
    z = t.center("x", "y", "z")
    assert t.same_point(z, "H")
    # center of two leaves with a far basepoint lands mid-edge
    t2 = path_tree([2], names=["A", "B"])
    mid = t2.center("A", "B", "A")
    assert t2.same_point(mid, "A")
    m = t2.midpoint("A", "B")
    assert isinstance(t2.resolve(m), Location)
    assert t2.distance("A", m) == 1


def test_center_condition_w_equals_r(star_xyz):
    assert star_xyz.center_condition("z", "x", "y", "z") is True


def test_center_condition_fourth_leaf_matches_double_center():
    t = star_tree({"x": 1, "y": 2, "z": 3, "w": 1}, hub="H")
    assert t.center_condition("w", "x", "y", "z") == t.same_point(
        t.center("x", "y", "z"), t.center("w", "x", "y")
    )
    assert t.center_condition("w", "x", "y", "z") is True


def test_center_condition_path_case_both_sides(path_abc):
    lhs = path_abc.center_condition("A", "A", "B", "C")
    rhs = path_abc.same_point(path_abc.center("A", "B", "C"), path_abc.center("A", "A", "B"))
    assert lhs == rhs


def test_center_condition_exhaustive_agreement_small_trees(path_abc, star_xyz):
    trees = [
        path_abc,
        star_xyz,
        MetricTree(
            [("A", "B", 2), ("B", "C", 1), ("B", "D", 3)],
            [("M", "B", "D", 1)],
        ),
    ]
    for t in trees:
        names = t.point_names
        assert len(names) <= 8
        for w, p, q, r in product(names, repeat=4):
            direct = t.same_point(t.center(p, q, r), t.center(w, p, q))
            assert t.center_condition(w, p, q, r) == direct


def test_segment_empty_for_equal_points(path_abc):
    assert path_abc.segment("B", "B") == []


def test_segment_full_path(path_abc):
    pieces = path_abc.segment("A", "C")
    assert [p.edge for p in pieces] == [("A", "B"), ("B", "C")]
    assert sum(p.length for p in pieces) == path_abc.distance("A", "C")


def test_segment_star_passes_hub(star_xyz):
    pieces = star_xyz.segment("x", "z")
    assert sum(p.length for p in pieces) == 4
    assert {v for piece in pieces for v in piece.edge} >= {"H"}
    # the hub sits on the segment
    assert reference_point_on_segment(star_xyz, "H", "x", "z")


def test_segment_total_length_equals_distance_edge_points():
    t = MetricTree(
        [("A", "B", 4), ("B", "C", 2), ("B", "D", 5)],
        [("P", "A", "B", 1), ("Q", "B", "D", 3)],
    )
    for a in ["P", "Q", "A", "C", "D"]:
        for b in ["P", "Q", "A", "C", "D"]:
            assert sum(p.length for p in t.segment(a, b)) == t.distance(a, b)


def test_point_on_segment_endpoint(path_abc):
    assert reference_point_on_segment(path_abc, "A", "A", "C")


def test_point_on_segment_path_middle(path_abc):
    assert reference_point_on_segment(path_abc, "B", "A", "C")


def test_point_on_segment_star(star_xyz):
    assert reference_point_on_segment(star_xyz, "H", "x", "z")
    assert not reference_point_on_segment(star_xyz, "y", "x", "z")


def test_point_on_segment_iff_distances_add(star_xyz):
    names = star_xyz.point_names
    for r in names:
        for p in names:
            for q in names:
                adds = star_xyz.distance(p, r) + star_xyz.distance(r, q) == star_xyz.distance(p, q)
                assert reference_point_on_segment(star_xyz, r, p, q) == adds


def test_tree_rejects_cycles_and_nonpositive_lengths():
    with pytest.raises(TreeStructureError):
        MetricTree([("A", "B", 1), ("B", "C", 1), ("C", "A", 1)])
    with pytest.raises(TreeStructureError):
        MetricTree([("A", "B", 0)])
    with pytest.raises(TreeStructureError):
        MetricTree([("A", "B", 1), ("C", "D", 1)])


NAN = float("nan")
DISCONNECTED = [("A", "B", 1), ("B", "C", 1), ("C", "A", 1), ("D", "E", 1)]

# id, edges, points, open ends, the error and its message; then the same
# tree as a tree file, when one can say it, and the message parse_tree gives
TREE_ERRORS = [
    ("loop", [("A", "B", 1), ("B", "B", 2)], [], TreeStructureError, "loop edge at 'B'",
     "edge A B 1\nedge B B 2\n", "loop edge at 'B'"),
    ("nan loop", [("A", "A", NAN)], [], TreeStructureError, "loop edge at 'A'",
     "edge A A nan\n", "bad number 'nan'"),
    ("nan after a loop", [("A", "A", 1), ("A", "B", NAN)], [], TreeStructureError, "loop edge at 'A'",
     "edge A A 1\nedge A B nan\n", "bad number 'nan'"),
    ("nan length", [("A", "B", 1), ("B", "C", NAN)], [], TreeStructureError,
     "length of edge B-C must be an int, a Fraction or a finite float, got nan", None, None),
    ("text length", [("A", "B", "1")], [], TreeStructureError,
     "length of edge A-B must be an int, a Fraction or a finite float, got '1'", None, None),
    ("zero", [("A", "B", 0)], [], TreeStructureError, "edge A-B has nonpositive length 0",
     "edge A B 0\n", "edge A-B has nonpositive length 0"),
    ("negative Fraction", [("A", "B", Fr(-1, 2))], [], TreeStructureError,
     "edge A-B has nonpositive length -1/2", "edge A B -1/2\n", "edge A-B has nonpositive length -1/2"),
    ("negative float", [("A", "B", -0.5)], [], TreeStructureError,
     "edge A-B has nonpositive length -0.5", "edge A B -0.5\n", "edge A-B has nonpositive length -1/2"),
    ("duplicate", [("A", "B", 1), ("B", "A", 2)], [], TreeStructureError, "duplicate edge B-A",
     "edge A B 1\nedge B A 2\n", "duplicate edge B-A"),
    ("nonpositive duplicate", [("A", "B", 1), ("B", "A", 0)], [], TreeStructureError,
     "edge B-A has nonpositive length 0", "edge A B 1\nedge B A 0\n", "edge B-A has nonpositive length 0"),
    ("cycle", [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)], [], TreeStructureError,
     "3 vertices and 3 edges cannot form a tree", "edge A B 1\nedge B C 1\nedge C A 1\n",
     "3 vertices and 3 edges cannot form a tree"),
    ("cycle and a component", DISCONNECTED, [], TreeStructureError, "edge graph is not connected",
     "edge A B 1\nedge B C 1\nedge C A 1\nedge D E 1\n", "edge graph is not connected"),
    ("nan offset, disconnected", DISCONNECTED, [("p", "A", "B", NAN)], TreeStructureError,
     "offset of p must be an int, a Fraction or a finite float, got nan",
     "edge A B 1\nedge B C 1\nedge C A 1\nedge D E 1\npoint p A B nan\n", "bad number 'nan'"),
    ("bad offset after a good one", DISCONNECTED, [("p", "A", "B", Fr(1, 2)), ("q", "A", "B", "1/2")],
     TreeStructureError, "offset of q must be an int, a Fraction or a finite float, got '1/2'", None, None),
    ("no edge", [("A", "B", 1), ("B", "C", 1)], [("p", "A", "C", Fr(1, 2))], UnknownPointError,
     "'no edge A-C'", "edge A B 1\nedge B C 1\npoint p A C 1/2\n", "'no edge A-C'"),
    ("no edge before a name in use", [("A", "B", 1), ("B", "C", 1)], [("B", "A", "C", 1)],
     UnknownPointError, "'no edge A-C'", "edge A B 1\nedge B C 1\npoint B A C 1\n", "'no edge A-C'"),
    ("offset past the far end", [("A", "B", Fr(3, 2))], [("p", "A", "B", Fr(5, 2))], TreeStructureError,
     "offset 5/2 outside edge ('A', 'B') of length 3/2", "edge A B 3/2\npoint p A B 5/2\n",
     "offset 5/2 outside edge ('A', 'B') of length 3/2"),
    ("offset past the far end, given from v", [("A", "B", Fr(3, 2))], [("p", "B", "A", 2)],
     TreeStructureError, "offset -1/2 outside edge ('A', 'B') of length 3/2", "edge A B 3/2\npoint p B A 2\n",
     "offset -1/2 outside edge ('A', 'B') of length 3/2"),
    ("negative offset", [("A", "B", 1)], [("p", "A", "B", -0.25)], TreeStructureError,
     "offset -1/4 outside edge ('A', 'B') of length 1", "edge A B 1\npoint p A B -0.25\n",
     "offset -1/4 outside edge ('A', 'B') of length 1"),
    ("negative offset, given from v", [("B", "A", 1)], [("p", "B", "A", Fr(-1, 3))], TreeStructureError,
     "offset 4/3 outside edge ('A', 'B') of length 1", "edge B A 1\npoint p B A -1/3\n",
     "offset 4/3 outside edge ('A', 'B') of length 1"),
    ("name of a vertex", [("A", "B", 1)], [("B", "A", "B", Fr(1, 2))], TreeStructureError,
     "point name 'B' already in use", "edge A B 1\npoint B A B 1/2\n", "point name 'B' already in use"),
    ("name of a point", [("A", "B", 1), ("B", "C", 1)], [("p", "A", "B", Fr(1, 4)), ("p", "C", "B", 1)],
     TreeStructureError, "point name 'p' already in use", "edge A B 1\nedge B C 1\npoint p A B 1/4\npoint p C B 1\n",
     "point name 'p' already in use"),
    ("unknown vertex", [("A", "B", 1)], [("p", "Z")], UnknownPointError, "'Z'", None, None),
    ("unknown vertex before a name in use", [("A", "B", 1)], [("A", "Z")], UnknownPointError, "'Z'", None, None),
]


@pytest.mark.parametrize(
    "edges, points, error, message, text, text_message",
    [case[1:] for case in TREE_ERRORS],
    ids=[case[0] for case in TREE_ERRORS],
)
def test_tree_errors_and_which_one_wins(edges, points, error, message, text, text_message):
    """Each bad tree raises its one named error with this exact message, the
    first error of the build winning; a tree file says the same, or names
    its bad number."""
    with pytest.raises(error) as raised:
        MetricTree(edges, points)
    assert type(raised.value) is error and str(raised.value) == message
    if text is not None:
        with pytest.raises(FormatError) as raised:
            parse_tree(text)
        assert str(raised.value) == text_message


# the exact values of 3, 3/7 and 0.1; designated offsets given as the same kind
VALUE_KINDS = {
    "int": (3, 1, Fr(3), Fr(1)),
    "Fraction": (Fr(3, 7), Fr(1, 7), Fr(3, 7), Fr(1, 7)),
    "float": (0.1, 0.025, Fr(0.1), Fr(0.025)),
}


@pytest.mark.parametrize("kind", VALUE_KINDS)
def test_lengths_and_offsets_read_as_their_exact_values(kind):
    """Lengths and offsets of every exact kind come back as Fractions of the
    same values: edges, edge_length, designated Locations (offsets given from
    either end and at either end) and the tree file format_tree writes."""
    length, offset, exact_length, exact_offset = VALUE_KINDS[kind]
    tree = MetricTree(
        [("B", "A", length), ("B", "C", 2 * length)],
        [("p", "A", "B", offset), ("q", "B", "A", offset), ("r", "C", "B", 0), ("s", "B", "C", 2 * length)],
    )
    assert [(u, v, l, type(l)) for u, v, l in tree.edges] == [
        ("A", "B", exact_length, Fr), ("B", "C", 2 * exact_length, Fr)]
    for u, v, expected in (("A", "B", exact_length), ("C", "B", 2 * exact_length)):
        got = tree.edge_length(u, v)
        assert (got, type(got)) == (expected, Fr)
    assert tree.designated == {
        "p": Location(("A", "B"), exact_offset),
        "q": Location(("A", "B"), exact_length - exact_offset),
        "r": "C",
        "s": "C",
    }
    assert all(type(tree.designated[name].offset) is Fr for name in "pq")
    assert format_tree(tree) == (
        f"edge A B {exact_length}\nedge B C {2 * exact_length}\n"
        f"point p A B {exact_offset}\npoint q A B {exact_length - exact_offset}\n"
        f"point r B C {2 * exact_length}\npoint s B C {2 * exact_length}\n"
    )
    assert tree.distance("p", "q") == exact_length - 2 * exact_offset


def test_equal_literals_give_equal_trees():
    """Literals written differently but equal, and repeated literals, give
    the same tree, whichever spelling comes first."""
    texts = [
        "edge A B 1/2\nedge B C 2/4\nedge C D 0.5\npoint p A B 1/4\npoint q C D 0.25\n",
        "edge A B 0.5\nedge B C 1/2\nedge C D 2/4\npoint p A B 2/8\npoint q C D 1/4\n",
        "edge A B 2/4\nedge B C 2/4\nedge C D 2/4\npoint p A B 0.25\npoint q C D 0.25\n",
    ]
    trees = [parse_tree(text) for text in texts]
    for tree in trees:
        assert tree.edges == (("A", "B", Fr(1, 2)), ("B", "C", Fr(1, 2)), ("C", "D", Fr(1, 2)))
        assert tree.designated == {"p": Location(("A", "B"), Fr(1, 4)), "q": Location(("C", "D"), Fr(1, 4))}
        assert tree.distance("p", "q") == 1
        assert format_tree(tree) == format_tree(trees[0])
    left, right = parse_pair_file("edge A B 1/2 0.5\nedge B C 2/4 1\npoint p A B 1/4 0.25\n")
    assert left.edges == trees[0].edges[:2] and right.edges == (("A", "B", Fr(1, 2)), ("B", "C", Fr(1)))
    assert left.designated == right.designated == {"p": Location(("A", "B"), Fr(1, 4))}


def test_point_along_walks_segments(star_xyz):
    p = star_xyz.point_along("x", "z", 2)
    assert star_xyz.distance("x", p) == 2
    assert star_xyz.distance(p, "z") == 2
    assert reference_point_on_segment(star_xyz, p, "x", "z")


@st.composite
def trees_with_queries(draw):
    """A bushy, path-like or single-vertex tree with exact or float lengths,
    designated points inside edges (two may coincide) and at a vertex, and
    query points: names, dyadic sample_stream points, Locations given from
    either end at offsets off the common denominator, and midpoints."""
    n = draw(st.integers(1, 8))
    floats, bushy = draw(st.booleans()), draw(st.booleans())
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1)) if bushy else i - 1
        if floats:
            length = draw(st.integers(1, 40)) / draw(st.sampled_from([1, 3, 7]))
        else:
            length = Fr(draw(st.integers(1, 40)), draw(st.integers(1, 12)))
        edges.append((names[parent], names[i], length))
    points = [("at", draw(st.sampled_from(names)))]
    for k in range(draw(st.integers(0, 3)) if edges else 0):
        u, v, length = draw(st.sampled_from(edges))
        points.append((f"m{k}", u, v, length * draw(st.sampled_from([Fr(1, 3), Fr(1, 2), Fr(5, 7)]))))
    tree = MetricTree(edges, points, vertices=names[:1])
    ref = ReferenceTree(tree)
    queries = list(tree.point_names)
    if edges:
        queries += islice(FiniteTreeOracle(tree).sample_stream(), len(queries) + 6)
        for _ in range(3):
            u, v, length = draw(st.sampled_from(edges))
            queries.append(Location((v, u), length * Fr(draw(st.integers(0, 11)), 11)))
        for _ in range(2):
            queries.append(ref.midpoint(draw(st.sampled_from(names)), draw(st.sampled_from(names))))
    return tree, ref, draw(st.lists(st.sampled_from(queries), min_size=1, max_size=5))


@settings(max_examples=80, deadline=None)
@given(trees_with_queries())
def test_queries_agree_with_the_slow_reference(case):
    """distance, segment, point_along, midpoint, center and name_of on the
    rooted index against the all-pairs table and DFS paths: equal values
    and types, float lengths included, which both take at their exact
    binary values."""
    tree, ref, queries = case
    for p in queries:
        assert tree.name_of(p) == ref.name_of(p)
    for p, q in product(queries, repeat=2):
        got, expected = tree.distance(p, q), ref.distance(p, q)
        assert (got, type(got)) == (expected, type(expected))
        assert tree.segment(p, q) == ref.segment(p, q)
        for t in (0, got / 3, got / 2, got):
            assert tree.point_along(p, q, t) == ref.point_along(p, q, t)
        assert tree.midpoint(p, q) == ref.midpoint(p, q)
    for triple in product(queries[:4], repeat=3):
        assert tree.center(*triple) == ref.center(*triple)


@settings(max_examples=80, deadline=None)
@given(trees_with_queries(), st.data())
def test_pairwise_meets_agree_with_the_slow_reference(case, data):
    """The pairwise matrices on points in shuffled order with repeats (vertex
    names, designated names sharing a point, Locations) against the
    reference: scaled distances, and the meet of two root paths as the
    center of the pair with the root."""
    tree, ref, queries = case
    points = data.draw(st.permutations([*tree.point_names, *queries, *queries[:2]]))
    root = min(tree.vertices)
    scaled = tree._scaled_distances(points)
    _, meets = tree._meets(points)
    for (i, p), (j, q) in product(enumerate(points), repeat=2):
        assert scaled[i][j] == ref.distance(p, q) * tree._scale
        assert meets[i][j] == ref.distance(root, ref.center(p, q, root)) * tree._scale
    # a table needs distinct points: one name per place
    distinct = sorted({tree.name_of(p) for p in tree.point_names})
    table = MetricTable.from_tree(tree, distinct)
    for p, q in product(distinct, repeat=2):
        assert table.distance(p, q) == ref.distance(p, q)


def test_pairwise_meets_walk_only_adjacent_pairs(monkeypatch):
    """n points cost at most n - 1 walks up the tree, whatever their order;
    the rest of the matrix is running minima."""
    edges = [(f"v{i}", f"v{(i - 1) // 2 if i % 3 else i - 1}", Fr(i % 5 + 1, i % 3 + 1)) for i in range(1, 40)]
    tree = MetricTree(edges, [("m", "v1", "v4", Fr(1, 3)), ("a", "v7")])
    points = [*tree.point_names, Location(("v0", "v1"), Fr(1, 7)), "v9", "m", "a"][::-1]
    walks = []
    meet = MetricTree._meet
    monkeypatch.setattr(MetricTree, "_meet", lambda self, a, b: walks.append(1) or meet(self, a, b))
    for order in (points, sorted(points, key=str), points[::3] + points[1::3] + points[2::3]):
        walks.clear()
        tree._meets(order)
        assert 0 < len(walks) <= len(order) - 1
