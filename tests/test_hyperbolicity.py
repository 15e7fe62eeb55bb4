import random
from fractions import Fraction as Fr
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from rtreelab.blend import certify_rtree
from rtreelab.hyperbolicity import (
    FourPointWitness,
    InvalidTableError,
    MetricTable,
    NotZeroHyperbolicError,
    check_hyperbolic,
    first_violation,
    max_four_point_defect,
    reconstruct_tree,
    verify_witness,
)
from rtreelab.tree import MetricTree, star_tree

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
    assert t.point_on_segment("b", "a", "d")
    assert t.point_on_segment("c", "a", "d")


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


def test_float_mode_uses_tolerance_delta():
    """Float tables (the line-sandbox mode) are checked with an absolute
    tolerance delta instead of exact zero: summation order can leave
    ~1e-16 residue on a perfectly tree-like metric."""
    import math

    xs = {"a": 0.0, "b": 1.0, "c": math.sqrt(2), "d": 3.0, "e": math.pi}
    table = MetricTable(
        {(p, q): abs(xs[p] - xs[q]) for p, q in combinations(sorted(xs), 2)}
    )
    assert check_hyperbolic(table, 1e-9).passes
    assert max_four_point_defect(table) <= 1e-9
    # the gap scan sees no defect, but exact replay of a float realization fails
    result = certify_rtree(table)
    assert result.verdict.passes
    assert result.realizable is False
    assert result.note.startswith("realization mismatch at (")


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
    assert tree.degree(".s2") == 4
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
