"""Seeded randomized consistency checks across the trickier code paths."""
import math
import random
from fractions import Fraction as Fr
from itertools import combinations

from rtreelab.boundary import BoundaryPoint, act
from rtreelab.hyperbolicity import MetricTable, reconstruct_tree
from rtreelab.observers import PointSequence, liminf_from
from rtreelab.oracles import FiniteTreeOracle
from rtreelab.words import Basis, cyclically_reduced_words, reduce_word, reduced_words

from helpers import random_tree

B2 = Basis(2)


def random_point(rng, tree):
    names = list(tree.point_names)
    if rng.random() < 0.5:
        return rng.choice(names)
    u, v, length = rng.choice(tree.edges)
    from rtreelab.tree import Location

    return Location((u, v), length * Fr(rng.randint(0, 16), 16))


def test_segment_lengths_and_centers_on_random_trees_with_edge_points():
    rng = random.Random(17)
    for _ in range(60):
        tree = random_tree(rng, 9, edge_points=rng.randint(0, 3))
        pts = [random_point(rng, tree) for _ in range(5)]
        for p, q in combinations(pts, 2):
            pieces = tree.segment(p, q)
            assert sum(piece.length for piece in pieces) == tree.distance(p, q)
        for _ in range(6):
            p, q, r = (rng.choice(pts) for _ in range(3))
            z = tree.center(p, q, r)
            for x, y in ((p, q), (p, r), (q, r)):
                assert tree.distance(x, y) == tree.distance(x, z) + tree.distance(z, y)
        for _ in range(6):
            p, q, r = (rng.choice(pts) for _ in range(3))
            adds = tree.distance(p, r) + tree.distance(r, q) == tree.distance(p, q)
            assert tree.point_on_segment(r, p, q) == adds


def test_point_along_is_inverse_of_distance():
    rng = random.Random(19)
    for _ in range(40):
        tree = random_tree(rng, 8, edge_points=rng.randint(0, 2))
        p, q = random_point(rng, tree), random_point(rng, tree)
        total = tree.distance(p, q)
        if total == 0:
            continue
        for k in range(5):
            t = total * Fr(k, 4)
            z = tree.point_along(p, q, t)
            assert tree.distance(p, z) == t
            assert tree.distance(z, q) == total - t


def test_reconstruct_round_trip_with_edge_point_tables():
    rng = random.Random(23)
    for _ in range(60):
        tree = random_tree(rng, 7, edge_points=rng.randint(1, 3))
        table = MetricTable.from_tree(tree)
        rebuilt = reconstruct_tree(table)
        for x, y in combinations(table.points, 2):
            assert rebuilt.distance(x, y) == table.distance(x, y)


def test_act_periodic_matches_reduce_oracle_broadly():
    rng = random.Random(29)
    blocks = cyclically_reduced_words(B2, 3)
    prefixes = [""] + reduced_words(B2, 2)
    words = reduced_words(B2, 6)
    checked = 0
    while checked < 300:
        prefix, block = rng.choice(prefixes), rng.choice(blocks)
        try:
            x = BoundaryPoint.periodic(B2, prefix, block)
        except ValueError:
            continue
        w = rng.choice(words)
        k = rng.randint(1, 15)
        expected = reduce_word(w + x.prefix(k + len(w)))[:k]
        got = act(w, x)
        assert got.prefix(k) == expected
        assert got.periodic_form is not None  # stays eventually periodic
        checked += 1


def test_liminf_head_parameter_bounds():
    rng = random.Random(31)
    tree = random_tree(rng, 6)
    oracle = FiniteTreeOracle(tree)
    names = list(tree.point_names)
    seq = PointSequence([rng.choice(names) for _ in range(10)])
    full = liminf_from(oracle, names[0], seq, depth=10, head=0)
    assert full.head == 0 and full.certificate == math.inf  # nothing compared
    assert not full.stabilized()
    clamped = liminf_from(oracle, names[0], seq, depth=10, head=99)
    assert clamped.head == 9  # capped at the last term
    assert oracle.points_equal(clamped.point, seq.point(9))
