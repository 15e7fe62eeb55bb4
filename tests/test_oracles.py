import math
from fractions import Fraction as Fr
from itertools import islice, product

import pytest

from rtreelab.oracles import (
    LINE_MINUS,
    LINE_PLUS,
    BoundaryPointError,
    FiniteTreeOracle,
    LineOracle,
    MultipodOracle,
)
from rtreelab.tree import star_tree


@pytest.fixture
def line():
    return LineOracle()


@pytest.fixture
def pod5():
    return MultipodOracle(5)


def test_line_distance_and_center_are_coordinate_median(line):
    assert line.distance(-2, 3) == 5
    assert line.center(0, 10, 4) == 4
    assert line.center(Fr(1, 2), -1, 7) == Fr(1, 2)


def test_line_boundary_rays(line):
    assert line.is_boundary(LINE_PLUS)
    assert line.distance(LINE_PLUS, LINE_PLUS) == 0
    assert line.distance(LINE_PLUS, LINE_MINUS) == math.inf
    assert line.distance(0, LINE_PLUS) == math.inf
    assert line.center(3, LINE_PLUS, 5) == 5
    assert line.center(0, LINE_PLUS, LINE_MINUS) == 0
    assert line.center(2, LINE_PLUS, LINE_PLUS) == LINE_PLUS


def test_line_midpoint_rejects_rays(line):
    with pytest.raises(BoundaryPointError):
        line.midpoint(0, LINE_PLUS)


def test_line_sample_stream_dense_and_deterministic(line):
    first = list(islice(line.sample_stream(), 12))
    again = list(islice(line.sample_stream(), 12))
    assert first == again
    assert Fr(0) in first


# ---------------------------------------------------------------------------
# oracle cross-check: an N-arm multipod is the N-leg unit star
# ---------------------------------------------------------------------------


def star_equivalent(n):
    return star_tree({f"a{i}": 1 for i in range(n)}, hub="H"), FiniteTreeOracle(
        star_tree({f"a{i}": 1 for i in range(n)}, hub="H")
    )


def pod_point_to_star(tree, p):
    if p == "hub":
        return "H"
    arm, off = p
    leaf = f"a{arm}"
    return tree.point_along("H", leaf, off)


def test_multipod_agrees_with_finite_star():
    pod = MultipodOracle(4)
    tree, _ = star_equivalent(4)
    pts = ["hub"] + [(i, off) for i in range(4) for off in (Fr(1, 4), Fr(1, 2), 1)]
    for p, q in product(pts, repeat=2):
        expected = tree.distance(pod_point_to_star(tree, p), pod_point_to_star(tree, q))
        assert pod.distance(p, q) == expected
    for p, q, r in product(pts[:9], repeat=3):
        z = pod.center(p, q, r)
        z_star = tree.center(
            pod_point_to_star(tree, p), pod_point_to_star(tree, q), pod_point_to_star(tree, r)
        )
        assert tree.same_point(pod_point_to_star(tree, z), z_star)


def test_multipod_offset_zero_is_hub(pod5):
    assert pod5.points_equal((3, 0), "hub")
    assert pod5.distance((2, 0), "hub") == 0


def test_multipod_distance_across_arms(pod5):
    assert pod5.distance((0, 1), (3, 1)) == 2
    assert pod5.distance((0, Fr(1, 2)), (0, 1)) == Fr(1, 2)


def test_multipod_center_of_three_tips_is_hub(pod5):
    assert pod5.points_equal(pod5.center((0, 1), (1, 1), (2, 1)), "hub")


def test_multipod_midpoint_same_arm(pod5):
    assert pod5.midpoint((1, Fr(1, 2)), (1, 1)) == (1, Fr(3, 4))
    assert pod5.points_equal(pod5.midpoint((0, 1), (1, 1)), "hub")


def test_multipod_arm_bounds(pod5):
    with pytest.raises(ValueError):
        pod5.distance((7, 1), "hub")
    lazy = MultipodOracle()
    assert lazy.distance((10**6, 1), (0, 1)) == 2
    for pod in (pod5, lazy):
        with pytest.raises(ValueError):
            pod.distance((-3, 1), (2, 1))


def test_multipod_sample_stream_reaches_every_arm():
    lazy = MultipodOracle()
    pts = list(islice(lazy.sample_stream(), 40))
    arms_seen = {p[0] for p in pts if p != "hub"}
    assert {0, 1, 2}.issubset(arms_seen)
    assert pts[0] == "hub"


def test_finite_tree_oracle_wraps_tree():
    tree = star_tree({"x": 1, "y": 2, "z": 3}, hub="H")
    oracle = FiniteTreeOracle(tree)
    assert oracle.distance("x", "z") == 4
    assert oracle.points_equal(oracle.center("x", "y", "z"), "H")
    assert not oracle.is_boundary("x")
    stream = list(islice(oracle.sample_stream(), 10))
    assert "H" in stream and "x" in stream
