import math
from fractions import Fraction as Fr
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from rtreelab.oracles import FiniteTreeOracle
from rtreelab.tree import (
    Location,
    MetricTree,
    TreeStructureError,
    UnknownPointError,
    path_tree,
    star_tree,
)

from helpers import ReferenceTree


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
    assert star_xyz.point_on_segment("H", "x", "z")


def test_segment_total_length_equals_distance_edge_points():
    t = MetricTree(
        [("A", "B", 4), ("B", "C", 2), ("B", "D", 5)],
        [("P", "A", "B", 1), ("Q", "B", "D", 3)],
    )
    for a in ["P", "Q", "A", "C", "D"]:
        for b in ["P", "Q", "A", "C", "D"]:
            assert sum(p.length for p in t.segment(a, b)) == t.distance(a, b)


def test_point_on_segment_endpoint(path_abc):
    assert path_abc.point_on_segment("A", "A", "C")


def test_point_on_segment_path_middle(path_abc):
    assert path_abc.point_on_segment("B", "A", "C")


def test_point_on_segment_star(star_xyz):
    assert star_xyz.point_on_segment("H", "x", "z")
    assert not star_xyz.point_on_segment("y", "x", "z")


def test_point_on_segment_iff_distances_add(star_xyz):
    names = star_xyz.point_names
    for r in names:
        for p in names:
            for q in names:
                adds = star_xyz.distance(p, r) + star_xyz.distance(r, q) == star_xyz.distance(p, q)
                assert star_xyz.point_on_segment(r, p, q) == adds


def test_extremal_leaf_and_midpoint(path_abc):
    assert path_abc.is_extremal("A")
    t = MetricTree([("A", "B", 2)], [("M", "A", "B", 1)])
    assert not t.is_extremal("M")


def test_extremal_hub_is_not(star_xyz):
    assert not star_xyz.is_extremal("H")
    # oracle: component count after vertex removal
    comps = star_xyz.degree("H")
    assert comps > 1


def test_interior_of_path_keeps_length_flags_ends():
    t = path_tree([3], names=["A", "B"])
    interior = t.interior_tree()
    assert interior.open_ends == {"A", "B"}
    assert interior.distance("A", "B") == 3
    assert not interior.contains("A")
    assert interior.contains(Location(("A", "B"), Fr(1))) or interior.contains(
        interior.midpoint("A", "B")
    )


def test_interior_of_star_keeps_hub(star_xyz):
    interior = star_xyz.interior_tree()
    assert interior.open_ends == {"x", "y", "z"}
    assert interior.contains("H")


def test_interior_drops_points_sitting_at_leaves():
    t = MetricTree(
        [("H", "x", 1), ("H", "y", 1)],
        [("P", "x"), ("M", "H", "x", Fr(1, 2))],
    )
    interior = t.interior_tree()
    assert "P" not in interior.designated  # sat exactly at a removed end
    assert "M" in interior.designated


def test_interior_tripod_of_tripods_strips_all_leaves():
    edges = [("H", "h1", 1), ("H", "h2", 1), ("H", "h3", 1)]
    for i in (1, 2, 3):
        edges += [(f"h{i}", f"l{i}a", 1), (f"h{i}", f"l{i}b", 1)]
    t = MetricTree(edges)
    interior = t.interior_tree()
    leaves = {f"l{i}{s}" for i in (1, 2, 3) for s in "ab"}
    assert interior.open_ends == leaves
    for i in (1, 2, 3):
        assert interior.contains(f"h{i}")
    assert interior.contains("H")
    # per-point oracle: extremal iff leaf
    for v in t.vertices:
        assert t.is_extremal(v) == (v in leaves)


def test_interior_of_single_vertex_errors():
    t = MetricTree((), vertices=("A",))
    with pytest.raises(TreeStructureError):
        t.interior_tree()


def test_tree_rejects_cycles_and_nonpositive_lengths():
    with pytest.raises(TreeStructureError):
        MetricTree([("A", "B", 1), ("B", "C", 1), ("C", "A", 1)])
    with pytest.raises(TreeStructureError):
        MetricTree([("A", "B", 0)])
    with pytest.raises(TreeStructureError):
        MetricTree([("A", "B", 1), ("C", "D", 1)])


def test_point_along_walks_segments(star_xyz):
    p = star_xyz.point_along("x", "z", 2)
    assert star_xyz.distance("x", p) == 2
    assert star_xyz.distance(p, "z") == 2
    assert star_xyz.point_on_segment(p, "x", "z")


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
    return tree, ref, draw(st.lists(st.sampled_from(queries), min_size=1, max_size=5)), floats


@settings(max_examples=80, deadline=None)
@given(trees_with_queries())
def test_queries_agree_with_the_slow_reference(case):
    """distance, segment, point_along, midpoint, center and name_of on the
    rooted index against the all-pairs table and DFS paths: equal values
    and types on exact trees, equal within 1e-9 on float trees."""
    tree, ref, queries, floats = case

    def same_point(got, expected):
        if floats:
            assert ref.distance(got, expected) <= 1e-9
        else:
            assert got == expected

    for p in queries:
        assert tree.name_of(p) == ref.name_of(p)
    for p, q in product(queries, repeat=2):
        got, expected = tree.distance(p, q), ref.distance(p, q)
        if floats:
            assert math.isclose(got, expected, abs_tol=1e-9)
        else:
            assert (got, type(got)) == (expected, type(expected))
        pieces, expected_pieces = tree.segment(p, q), ref.segment(p, q)
        if floats:
            assert [s.edge for s in pieces] == [s.edge for s in expected_pieces]
            for s, e in zip(pieces, expected_pieces):
                assert math.isclose(s.start, e.start, abs_tol=1e-9)
                assert math.isclose(s.end, e.end, abs_tol=1e-9)
        else:
            assert pieces == expected_pieces
        total = min(got, expected)
        for t in (0, total / 3, total / 2, total):
            same_point(tree.point_along(p, q, t), ref.point_along(p, q, t))
        same_point(tree.midpoint(p, q), ref.midpoint(p, q))
    for triple in product(queries[:4], repeat=3):
        same_point(tree.center(*triple), ref.center(*triple))
