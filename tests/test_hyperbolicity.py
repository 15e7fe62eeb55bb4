import math
import random
from fractions import Fraction as Fr
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from rtreelab.blend import CompatibleMetricPair, blend_metric, certify_rtree
from rtreelab.hyperbolicity import (
    FourPointWitness,
    HyperbolicityVerdict,
    InvalidTableError,
    MetricTable,
    NotZeroHyperbolicError,
    check_hyperbolic,
    first_violation,
    max_four_point_defect,
    reconstruct_tree,
    verify_witness,
)
from rtreelab.surds import Surd
from rtreelab.tree import Location, MetricTree, TreeStructureError, star_tree

import helpers


# ---------------------------------------------------------------------------
# independent oracle: literal scan of every ordered quadruple
# ---------------------------------------------------------------------------


def brute_force_verdict(table: MetricTable, delta):
    gp = table.gromov_product
    for x, y, z, w in product(table.points, repeat=4):
        if gp(x, z, w) < min(gp(x, y, w), gp(y, z, w)) - delta:
            margin = min(gp(x, y, w), gp(y, z, w)) - gp(x, z, w) - delta
            return False, (x, y, z, w), margin
    return True, None, None


def unit_square_table():
    # 4-cycle a-b-c-d with unit edges, shortest-path metric
    d = {
        ("a", "b"): 1,
        ("b", "c"): 1,
        ("c", "d"): 1,
        ("a", "d"): 1,
        ("a", "c"): 2,
        ("b", "d"): 2,
    }
    return MetricTable(d)


def random_tree(rng: random.Random, max_points: int = 12) -> MetricTree:
    n = rng.randint(2, max_points)
    edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        length = Fr(rng.randint(1, 24), rng.randint(1, 6))
        edges.append((f"p{parent}", f"p{i}", length))
    return MetricTree(edges)


@st.composite
def tree_strategy(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        length = Fr(draw(st.integers(min_value=1, max_value=20)), draw(st.integers(1, 4)))
        edges.append((f"p{parent}", f"p{i}", length))
    return MetricTree(edges)


@given(tree_strategy())
def test_every_tree_metric_satisfies_the_axioms_and_four_point(tree):
    table = MetricTable.from_tree(tree, tree.vertices)  # validates the axioms
    assert check_hyperbolic(table, 0).passes
    assert max_four_point_defect(table) == 0


def test_gromov_product_substitution_identities():
    t = star_tree({"x": 1, "y": 2, "z": 3}, hub="H")
    table = MetricTable.from_tree(t, ["x", "y", "z", "H"])
    assert table.gromov_product("x", "x", "H") == table.distance("H", "x")
    assert table.gromov_product("x", "z", "x") == 0


def test_gromov_product_star_leaf_base_matches_formula():
    t = star_tree({"x": 1, "y": 2, "z": 3}, hub="H")
    table = MetricTable.from_tree(t, ["x", "y", "z", "H"])
    w = "x"  # leaf at leg length 1
    val = table.gromov_product("y", "z", w)
    direct = (table.distance(w, "y") + table.distance(w, "z") - table.distance("y", "z")) / 2
    assert val == direct == 1  # distance from w to the hub


def test_tree_metric_is_zero_hyperbolic():
    rng = random.Random(7)
    for _ in range(25):
        t = random_tree(rng, 8)
        table = MetricTable.from_tree(t)
        assert check_hyperbolic(table, 0).passes


def test_square_fails_at_zero_with_brute_force_agreement():
    table = unit_square_table()
    verdict = check_hyperbolic(table, 0)
    ok, quad, margin = brute_force_verdict(table, Fr(0))
    assert not verdict.passes and not ok
    assert verdict.witness.quadruple == quad
    assert verdict.witness.margin == margin
    assert verify_witness(table, verdict.witness, 0)


def test_square_passes_at_delta_one():
    table = unit_square_table()
    assert check_hyperbolic(table, 1).passes
    assert max_four_point_defect(table) == helpers.brute_force_max_defect(table) == 1


def test_witness_is_lexicographically_first():
    table = unit_square_table()
    verdict = check_hyperbolic(table, 0)
    gp = table.gromov_product
    for quad in product(table.points, repeat=4):
        if quad == verdict.witness.quadruple:
            break
        x, y, z, w = quad
        assert gp(x, z, w) >= min(gp(x, y, w), gp(y, z, w))


def test_check_hyperbolic_fractional_delta():
    table = unit_square_table()
    assert not check_hyperbolic(table, Fr(1, 2)).passes
    assert check_hyperbolic(table, Fr(3, 2)).passes


def test_first_violation_none_for_trees():
    t = star_tree({"x": 1, "y": 2, "z": 3})
    assert first_violation(MetricTable.from_tree(t), 0) is None


def test_table_validation():
    with pytest.raises(InvalidTableError):
        MetricTable({("a", "b"): 0, ("a", "c"): 1, ("b", "c"): 1})
    with pytest.raises(InvalidTableError):
        MetricTable({("a", "b"): 10, ("a", "c"): 1, ("b", "c"): 1})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, Surd.sqrt(2)], ids=repr)
@pytest.mark.parametrize(
    "build, error, where",
    [
        (lambda x: MetricTable({("a", "b"): 1, ("b", "c"): x, ("a", "c"): 2}), InvalidTableError, "d(b,c)"),
        (lambda x: MetricTree([("u", "v", 1), ("v", "w", x)]), TreeStructureError, "length of edge v-w"),
        (lambda x: MetricTree([("u", "v", 1)], [("p", "u", "v", x)]), TreeStructureError, "offset of p"),
        (lambda x: MetricTree([("u", "v", 1)]).point_along("u", "v", x), ValueError, "t"),
        (
            lambda x: MetricTree([("u", "v", 1)]).distance(Location(("u", "v"), x), "u"),
            TreeStructureError,
            "offset of u-v@{}",
        ),
        (lambda x: check_hyperbolic(unit_square_table(), x), ValueError, "delta"),
        (lambda x: first_violation(unit_square_table(), x), ValueError, "delta"),
        (
            lambda x: verify_witness(unit_square_table(), first_violation(unit_square_table()), x),
            ValueError,
            "delta",
        ),
    ],
    ids=[
        "table distance",
        "edge length",
        "point offset",
        "point_along t",
        "location offset",
        "check_hyperbolic delta",
        "first_violation delta",
        "verify_witness delta",
    ],
)
def test_a_number_that_is_not_exact_and_finite_is_named(build, error, where, bad):
    with pytest.raises(error) as info:
        build(bad)
    assert str(info.value) == f"{where.format(bad)} must be an int, a Fraction or a finite float, got {bad!r}"


def test_reconstruct_two_points():
    table = MetricTable({("a", "b"): Fr(5, 2)})
    t = reconstruct_tree(table)
    assert t.distance("a", "b") == Fr(5, 2)


def test_reconstruct_three_points_tripod_legs_are_gromov_products():
    table = MetricTable({("a", "b"): 3, ("a", "c"): 4, ("b", "c"): 5})
    t = reconstruct_tree(table)
    for x, y in combinations("abc", 2):
        assert t.distance(x, y) == table.distance(x, y)
    # leg of x = Gromov product of the other two points at x
    for x in "abc":
        others = sorted(set("abc") - {x})
        gp = table.gromov_product(others[0], others[1], x)
        assert t.distance(x, t.center("a", "b", "c")) == gp


def test_reconstruct_colinear_table_is_path():
    pts = "abcd"
    table = MetricTable({(x, y): abs(pts.index(x) - pts.index(y)) for x, y in combinations(pts, 2)})
    t = reconstruct_tree(table)
    for x, y in combinations(pts, 2):
        assert t.distance(x, y) == table.distance(x, y)
    # a path: interior points lie on the segment between the extremes
    assert helpers.reference_point_on_segment(t, "b", "a", "d")
    assert helpers.reference_point_on_segment(t, "c", "a", "d")


def test_reconstruct_round_trip_random_trees():
    rng = random.Random(11)
    for _ in range(40):
        src = random_tree(rng, 12)
        names = list(src.vertices)
        table = MetricTable.from_tree(src, names)
        rebuilt = reconstruct_tree(table)
        for x, y in combinations(names, 2):
            assert rebuilt.distance(x, y) == table.distance(x, y)


def test_reconstruct_rejects_non_tree_metric():
    with pytest.raises(NotZeroHyperbolicError) as exc:
        reconstruct_tree(unit_square_table())
    assert verify_witness(unit_square_table(), exc.value.witness, 0)


def random_l1_table(rng: random.Random, n: int) -> MetricTable:
    """Planar points under the L1 metric: triangle inequality holds but the
    four-point condition generally does not."""
    while True:
        pts = {
            f"q{i}": (Fr(rng.randint(0, 40), 4), Fr(rng.randint(0, 40), 4))
            for i in range(n)
        }
        d = {
            (a, b): abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
            for (a, pa), (b, pb) in combinations(pts.items(), 2)
        }
        if all(v > 0 for v in d.values()):
            return MetricTable(d)


def _line_table(xs: dict) -> MetricTable:
    return MetricTable({(p, q): abs(xs[p] - xs[q]) for p, q in combinations(sorted(xs), 2)})


def test_float_tables_are_judged_exactly_at_their_binary_values():
    """A float distance is its exact binary value: a line table whose float
    differences are exact is realized with no tolerance, and one whose
    differences round gets an exact verdict with a replayable witness."""
    xs = {"a": 0.0, "b": 1.0, "c": math.sqrt(2), "d": 3.0, "e": math.pi}
    table = _line_table(xs)
    assert table.realized
    result = certify_rtree(table)
    assert result.passes and result.realizable
    assert result.verdict == HyperbolicityVerdict(True, 0)
    tree = reconstruct_tree(table)
    for p, q in combinations(sorted(xs), 2):
        assert tree.distance(p, q) == table.distance(p, q) == Fr(abs(xs[p] - xs[q]))

    # the rounded float differences leave a four-point gap of 2**-53
    table = _line_table({"a": 2.1, "b": 0.6, "c": 1.0, "d": 0.7, "e": 1.6})
    witness = FourPointWitness(("a", "b", "d", "c"), Fr(1, 2**54))
    result = certify_rtree(table)
    assert not result.passes and result.realizable is None
    assert result.verdict == check_hyperbolic(table, 0) == HyperbolicityVerdict(False, 0, witness)
    assert verify_witness(table, witness)
    assert max_four_point_defect(table) == Fr(1, 2**54)
    assert check_hyperbolic(table, Fr(1, 2**54)).passes

    # the float 2.5 - 0.4 exceeds (2.5 - 0.8) + (0.8 - 0.4) by 2**-53
    with pytest.raises(InvalidTableError, match=r"^triangle inequality fails on \(a,b,d\)$"):
        _line_table({"a": 0.4, "b": 2.5, "c": 2.3, "d": 0.8, "e": 1.5})


def test_subset_scan_agrees_with_ordered_brute_force_at_every_delta():
    """The fast 4-subset decision must be extensionally identical to the
    literal scan of all ordered quadruples, for tree and non-tree metrics
    alike, at several deltas including the exact threshold."""
    rng = random.Random(37)
    tables = [random_l1_table(rng, rng.randint(4, 7)) for _ in range(25)]
    tables += [MetricTable.from_tree(random_tree(rng, 7)) for _ in range(10)]
    tables.append(unit_square_table())
    for table in tables:
        threshold = max_four_point_defect(table)
        deltas = {Fr(0), Fr(1, 7), threshold, threshold + 1}
        if threshold > 0:
            deltas.add(threshold - Fr(1, 1000))
        for delta in deltas:
            verdict = check_hyperbolic(table, delta)
            ok, quad, margin = brute_force_verdict(table, delta)
            assert verdict.passes == ok
            if not ok:
                assert verdict.witness.quadruple == quad
                assert verdict.witness.margin == margin
                assert verify_witness(table, verdict.witness, delta)


def test_reconstruct_skips_steiner_names_that_are_table_points():
    names = [".s1", "a", "b", "c"]
    table = MetricTable({(x, y): 2 for x, y in combinations(names, 2)})
    tree = reconstruct_tree(table)
    assert tree.vertices == (".s1", ".s2", "a", "b", "c")
    assert len(set(tree.germs(".s2", [".s1", "a", "b", "c"]))) == 4
    for x, y in combinations(names, 2):
        assert tree.distance(x, y) == 2
    assert certify_rtree(table).passes


def _perturbed_tree_table(rng: random.Random) -> MetricTable:
    tree = helpers.random_tree(rng, 6, edge_points=rng.randint(0, 1))
    d = {(x, y): tree.distance(x, y) for x, y in combinations(tree.point_names, 2)}
    while True:
        key = rng.choice(sorted(d))
        try:
            return MetricTable(d | {key: d[key] + Fr(rng.choice([-1, 1]), rng.randint(2, 8))})
        except InvalidTableError:
            continue


ORACLE_FAMILIES = {
    "tree with edge points": lambda rng: MetricTable.from_tree(
        helpers.random_tree(rng, 7, edge_points=rng.randint(1, 3))
    ),
    "vertex subset": lambda rng: MetricTable.from_tree(
        tree := helpers.random_tree(rng, 9),
        rng.sample(tree.vertices, min(len(tree.vertices), rng.randint(2, 6))),
    ),
    "perturbed tree": _perturbed_tree_table,
    "l1": lambda rng: random_l1_table(rng, rng.randint(4, 6)),
    "cycle": helpers.random_cycle_table,
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_FAMILIES)), st.integers(0, 2**32 - 1))
def test_kernel_and_builder_agree_with_the_slow_oracles(family, seed):
    """The integer kernel against the literal Fraction scans, and the
    anchored builder against the pairwise-attachment reference builder."""
    table = ORACLE_FAMILIES[family](random.Random(seed))
    defect = helpers.brute_force_max_defect(table)
    assert max_four_point_defect(table) == defect
    deltas = {Fr(0), defect, defect * Fr(63, 64)}
    for delta in deltas:
        ok, quad, margin = helpers.brute_force_four_point(table, delta)
        expected = None if ok else FourPointWitness(quad, margin)
        verdict = check_hyperbolic(table, delta)
        assert verdict.passes == ok
        assert verdict.witness == expected
        assert first_violation(table, delta) == expected
    ok, quad, margin = helpers.brute_force_four_point(table, Fr(0))
    if ok:
        tree, ref = reconstruct_tree(table), helpers.reference_realization(table)
        assert (tree.vertices, tree.edges, tree.designated) == (ref.vertices, ref.edges, ref.designated)
    else:
        with pytest.raises(NotZeroHyperbolicError) as exc:
            reconstruct_tree(table)
        assert exc.value.witness == FourPointWitness(quad, margin)


def _assert_same_answers(tree: MetricTree, ref: MetricTree) -> None:
    """Every query, and the tree's table, as on the reference tree."""
    assert (tree.vertices, tree.edges, tree.designated) == (ref.vertices, ref.edges, ref.designated)
    points = [*tree.point_names, *(Location((u, v), length / 3) for u, v, length in tree.edges)]
    for p in points:
        assert tree.name_of(p) == ref.name_of(p)
        assert tree.germs(p, points) == ref.germs(p, points)
        for q in points:
            assert (tree.distance(p, q), tree.segment(p, q)) == (ref.distance(p, q), ref.segment(p, q))
    for p, q, r in combinations(points, 3):
        assert tree.center(p, q, r) == ref.center(p, q, r)
    table, ref_table = MetricTable.from_tree(tree), MetricTable.from_tree(ref)
    assert table.points == ref_table.points
    assert all(table.distance(x, y) == ref_table.distance(x, y) for x, y in combinations(table.points, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["tree with edge points", "vertex subset", "compatible pair"]),
    st.sampled_from([0, Fr(2, 7), Fr(1, 2), 0.3, 1]),
    st.integers(0, 2**32 - 1),
)
def test_a_rooted_build_answers_as_its_edge_list_rebuilt(source, lam, seed):
    """reconstruct_tree roots its tree at the anchor and blend_metric as the
    pair's first tree, while a tree built from an edge list roots at its
    smallest vertex, which a Steiner name such as .s1 can be: the root
    reaches no answer.  The blend is also the Fraction edge-list blend, for
    a pair whose trees are rooted differently too."""
    rng = random.Random(seed)
    if source == "compatible pair":
        pair = helpers.random_compatible_pair(rng)
        if rng.random() < 0.5:  # with a designated point at a vertex
            v = rng.choice(pair.tree0.vertices)
            pair = CompatibleMetricPair(
                *(MetricTree(t.edges, [*helpers.designated_rows(t), ("at", v)]) for t in (pair.tree0, pair.tree1))
            )
        tree = blend_metric(pair, lam)
        _assert_same_answers(tree, helpers.reference_blend_metric(pair, lam))
    else:
        tree = reconstruct_tree(ORACLE_FAMILIES[source](rng))
        # the realized tree, rooted at the anchor, paired with its rebuild at
        # its smallest vertex, each edge and the offsets on it stretched
        stretch = {(u, v): rng.randint(1, 3) for u, v, _ in tree.edges}
        rebuilt = MetricTree(
            [(u, v, stretch[u, v] * length) for u, v, length in tree.edges],
            [row if len(row) == 2 else (*row[:3], stretch[row[1:3]] * row[3]) for row in helpers.designated_rows(tree)],
        )
        pair = CompatibleMetricPair(*rng.sample([tree, rebuilt], 2))
        _assert_same_answers(blend_metric(pair, lam), helpers.reference_blend_metric(pair, lam))
    _assert_same_answers(tree, MetricTree(tree.edges, helpers.designated_rows(tree)))


def _tree_with_points(rng: random.Random, floats: bool) -> MetricTree:
    """A random tree with designated points inside edges and, sometimes,
    one at a vertex; with ``floats``, most lengths and offsets are given as
    dyadic floats, which the tree takes at their exact binary values."""
    edges, points = [], []
    for i in range(1, rng.randint(2, 7)):
        length = Fr(rng.randint(1, 64), 8)
        if floats and rng.random() < 0.7:
            length = float(length)
        edges.append((f"p{rng.randrange(i)}", f"p{i}", length))
    for k in range(rng.randint(0, 3)):
        u, v, length = rng.choice(edges)
        points.append((f"m{k}", u, v, length * Fr(2 * k + 1, 8)))
    if rng.random() < 0.3:
        points.append(("twin", rng.choice(edges)[rng.randint(0, 1)]))
    return MetricTree(edges, points)


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1))
def test_from_tree_matrix_matches_pairwise_tree_distances(floats, seed):
    """from_tree's matrix from root distances and meets against n² calls of
    tree.distance; two names on one point give the reference's message."""
    rng = random.Random(seed)
    tree = _tree_with_points(rng, floats)
    names = list(tree.point_names)
    if rng.random() < 0.5:
        names = rng.sample(names, rng.randint(1, len(names)))
    reference = {(x, y): tree.distance(x, y) for x, y in combinations(sorted(names), 2)}
    try:
        helpers.ReferenceTable(reference)
    except InvalidTableError as exc:
        with pytest.raises(InvalidTableError) as got:
            MetricTable.from_tree(tree, names)
        assert str(got.value) == str(exc)
        return
    table = MetricTable.from_tree(tree, names)
    assert table.points == tuple(sorted(set(names)))
    for i, j in combinations(range(len(table.points)), 2):
        expected = reference[(table.points[i], table.points[j])] * table.scale
        assert table._m[i][j] == table._m[j][i] == expected
        assert type(table._m[i][j]) is int
    assert all(table._m[i][i] == 0 for i in range(len(table.points)))


def test_from_tree_two_names_on_one_point_is_rejected():
    """Two names of one place, given as points, are refused; by default the
    table names each place once, as name_of does."""
    tree = MetricTree([("a", "b", Fr(3, 2)), ("b", "c", 2)], [("x", "b"), ("y", "b", "c", 1), ("z", "c", "b", 1)])
    with pytest.raises(InvalidTableError, match=r"^d\(b,x\) must be positive$"):
        MetricTable.from_tree(tree, tree.point_names)
    table = MetricTable.from_tree(tree)
    assert table.points == ("a", "b", "c", "y")
    assert table.points == tuple(sorted({tree.name_of(p) for p in tree.point_names}))


# -- the off-tree kernels at 12-40 points against the full integer scans -----------------


def _perturbed_leaf_table(rng: random.Random, n: int) -> dict:
    """1-4 distances moved by up to 1/2, the first one at the anchor."""
    d = helpers.leaf_tree_distances(rng, n)
    anchor = min(p for key in d for p in key)
    keys = [rng.choice([key for key in sorted(d) if anchor in key])]
    keys += rng.sample([key for key in sorted(d) if key != keys[0]], rng.randint(0, 3))
    for key in keys:
        d[key] += rng.choice([-1, 1]) * Fr(rng.randint(1, 8), 16)
    return d


def _early_wrong_row_table(rng: random.Random, n: int) -> dict:
    """As _perturbed_leaf_table, with d(anchor, second point) among the moved
    distances: the forward replay keeps the second point and can put many
    later rows off, the reverse replay puts the second point off."""
    d = helpers.leaf_tree_distances(rng, n)
    first = tuple(sorted({p for key in d for p in key})[:2])
    keys = [first] + rng.sample([key for key in sorted(d) if key != first], rng.randint(0, 2))
    for key in keys:
        d[key] += rng.choice([-1, 1]) * Fr(rng.randint(1, 8), 16)
    return d


def _shifted_leaf_row_table(rng: random.Random, n: int) -> dict:
    """One leaf's whole row moved by ±k/8, k <= 24, which passes its pendant
    of 1 to 2 in both directions (half the time the anchor's row), and 0-2
    distances moved by ±k/16, k <= 8: quiet classes whose offset takes both
    signs, and a negative one breaks triangles whose other two rows are
    quiet.  Every distance stays at least 1/2."""
    d = helpers.leaf_tree_distances(rng, n)
    points = sorted({p for key in d for p in key})
    leaf = points[0] if rng.random() < 0.5 else rng.choice(points)
    row = [key for key in sorted(d) if leaf in key]
    sign = rng.choice([-1, 1])
    # a shortened row stays at least 1 long, so that a single move keeps it positive
    top = 24 if sign > 0 else min(24, math.floor(8 * min(d[key] for key in row)) - 8)
    shift = sign * Fr(rng.randint(1, top), 8)
    for key in row:
        d[key] += shift
    for key in rng.sample(sorted(d), rng.randint(0, 2)):
        d[key] += rng.choice([-1, 1]) * Fr(rng.randint(1, 8), 16)
    return d


def _broken_triangle_table(rng: random.Random, n: int) -> dict:
    """Lengthen d(x, y) past d(x, z) + d(z, y)."""
    d = helpers.leaf_tree_distances(rng, n)
    x, y, z = rng.sample(sorted({p for key in d for p in key}), 3)

    def dist(p, q):
        return d[(p, q)] if (p, q) in d else d[(q, p)]

    key = (x, y) if (x, y) in d else (y, x)
    return d | {key: dist(x, z) + dist(z, y) + Fr(1, rng.randint(1, 9))}


def _cycle_distances(rng: random.Random, n: int) -> dict:
    """Shortest-path metric of an n-cycle with weights in [1, 2]."""
    w = [1 + Fr(rng.randint(0, 16), 16) for _ in range(n)]
    pos, total = [sum(w[:i]) for i in range(n)], sum(w)
    return {
        (f"c{i}", f"c{j}"): min(pos[j] - pos[i], total - pos[j] + pos[i])
        for i, j in combinations(range(n), 2)
    }


def _l1_distances(rng: random.Random, n: int) -> dict:
    table = random_l1_table(rng, n)
    return {(x, y): table.distance(x, y) for x, y in combinations(table.points, 2)}


OFF_TREE_FAMILIES = {
    "perturbed tree": _perturbed_leaf_table,
    "l1": _l1_distances,
    "cycle": _cycle_distances,
    "broken triangle": _broken_triangle_table,
    "early wrong row": _early_wrong_row_table,
    "shifted leaf row": _shifted_leaf_row_table,
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(OFF_TREE_FAMILIES)), st.integers(12, 40), st.integers(0, 2**32 - 1))
def test_off_tree_kernels_agree_with_the_full_integer_scans(family, n, seed):
    """The kernels that scan only tuples with an off-tree row against the
    full integer scans, at sizes beyond the Fraction brute force: the load
    error, realized, the defect, first_violation and check_hyperbolic."""
    d = OFF_TREE_FAMILIES[family](random.Random(seed), n)
    points = sorted({p for key in d for p in key})
    scale = math.lcm(*(v.denominator for v in d.values()))
    m = [[0] * len(points) for _ in points]
    for (x, y), v in d.items():
        i, j = points.index(x), points.index(y)
        m[i][j] = m[j][i] = int(v * scale)
    message = helpers.reference_triangle_scan(points, m)
    if message is not None:
        with pytest.raises(InvalidTableError) as exc:
            MetricTable(d)
        assert str(exc.value) == message
        return
    table = MetricTable(d)
    gap = helpers.reference_max_gap(table)
    defect = Fr(gap, 2 * table.scale)
    assert table.realized == (gap == 0)
    assert max_four_point_defect(table) == defect
    for delta in (Fr(0), defect / 3, defect * Fr(63, 64), defect):
        # the ordered scan finds a witness exactly when a 4-subset's gap
        # exceeds 2*delta; a full ordered pass to confirm None is too slow
        expected = None if gap <= 2 * delta * table.scale else helpers.reference_first_violation(table, delta)
        assert check_hyperbolic(table, delta) == HyperbolicityVerdict(expected is None, delta, expected)
        assert first_violation(table, delta) == expected


@pytest.mark.parametrize("n", [60, 120])
def test_one_wrong_distance_at_the_anchor_leaves_one_row_off(n):
    """A wrong d(anchor, second point) keeps the second point on the forward
    replay's tree and can put many later rows off; the reverse replay puts
    only the second point off, and the defect is the one built."""
    d, eps = helpers.shortened_leaf_pair(random.Random(n), n, (0, 1))
    table = MetricTable(d)
    assert table._off == [1]
    assert max_four_point_defect(table) == eps / 2


def test_only_a_table_read_from_rows_replays_its_distances(monkeypatch):
    """A tree's own distances are a tree metric by construction, so
    from_tree runs no replay; a table from a mapping or from rows runs one,
    and reconstruct_tree one for its attachments."""
    import rtreelab.hyperbolicity as hyperbolicity
    from rtreelab.formats import format_number, parse_table

    calls = []
    replay = hyperbolicity._attachments
    monkeypatch.setattr(hyperbolicity, "_attachments", lambda *args: calls.append("replay") or replay(*args))
    table = MetricTable.from_tree(MetricTree(helpers.random_edges(random.Random(61), 12)))
    assert calls == [] and table.realized
    distances = {(x, y): table.distance(x, y) for x, y in combinations(table.points, 2)}
    from_mapping = MetricTable(distances)
    assert calls == ["replay"] and from_mapping.realized and from_mapping._off == []
    parse_table("".join(f"dist {x} {y} {format_number(v)}\n" for (x, y), v in distances.items()))
    assert calls == ["replay"] * 2
    reconstruct_tree(table)
    assert calls == ["replay"] * 3


def test_a_realized_table_runs_no_four_point_scan():
    table = MetricTable.from_tree(MetricTree(helpers.random_edges(random.Random(60), 60)))
    assert table.realized and len(table.points) == 60
    assert max_four_point_defect(table) == 0
    assert first_violation(table, 1) is None
    assert check_hyperbolic(table, 1).passes
