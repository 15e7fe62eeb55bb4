import math
import random
from fractions import Fraction as Fr
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from rtreelab.observers import (
    ConvergenceVerdict,
    DegenerateSampleError,
    Direction,
    EmptySequenceError,
    PointSequence,
    ShapeMapError,
    _contains,
    converges_obs,
    extract_convergent_subsequence,
    liminf_from,
    same_direction,
    subbasis_from_sample,
    verify_shape_map,
)
from rtreelab.formats import format_number, format_point
from rtreelab.oracles import FiniteTreeOracle, LineOracle, MultipodOracle, LINE_MINUS, LINE_PLUS
from rtreelab.tree import Location, MetricTree, UnknownPointError, path_tree, star_tree

from helpers import (
    random_tree,
    reference_extract_window,
    reference_in_direction,
    reference_liminf,
    reference_point_on_segment,
    reference_shape_map,
    reference_subbasis,
    wandering_then_constant,
)


@pytest.fixture
def line():
    return LineOracle()


@pytest.fixture
def star_oracle():
    return FiniteTreeOracle(star_tree({"x": 1, "y": 2, "z": 3}, hub="H"))


def full_direction_family(tree):
    """Every direction based at a named point toward a named point."""
    oracle = FiniteTreeOracle(tree)
    dirs = []
    for p in tree.point_names:
        for q in tree.point_names:
            if tree.same_point(p, q):
                continue
            d = Direction(p, q)
            if not any(same_direction(oracle, d, d2) for d2 in dirs):
                dirs.append(d)
    return dirs


# -- directions --------------------------------------------------------------


def test_direction_at_cut_point_of_path():
    oracle = FiniteTreeOracle(path_tree([1, 2], names=["A", "B", "C"]))
    d = Direction("B", "A")
    assert reference_in_direction(oracle, d, "A")
    assert not reference_in_direction(oracle, d, "C")


def test_direction_at_star_hub_is_single_arm(star_oracle):
    d = Direction("H", "x")
    assert reference_in_direction(star_oracle, d, "x")
    assert not reference_in_direction(star_oracle, d, "y")
    assert not reference_in_direction(star_oracle, d, "z")


def test_direction_at_multipod_hub_is_single_arm():
    pod = MultipodOracle()
    for i in (0, 3, 17):
        d = Direction("hub", (i, 1))
        assert reference_in_direction(pod, d, (i, Fr(1, 2)))
        assert not reference_in_direction(pod, d, (i + 1, 1))


def test_direction_requires_distinct_base(star_oracle):
    d = Direction("H", "x")
    with pytest.raises(ValueError):
        reference_in_direction(star_oracle, d, "H")


def test_in_direction_representative_and_path_case(star_oracle):
    d = Direction("H", "x")
    assert reference_in_direction(star_oracle, d, "x")
    oracle = FiniteTreeOracle(path_tree([1, 1, 1], names=["A", "B", "C", "D"]))
    assert reference_in_direction(oracle, Direction("B", "D"), "C")


def test_germ_labels_a_direction_by_its_first_vertex():
    # vertex names that read like labels do not confuse the directions
    tree = MetricTree([("a", "b", 1), ("b", "up", 1), ("b", "down", 2)], [("m", "b", "up", Fr(1, 2))])
    oracle = FiniteTreeOracle(tree)
    assert tree.germs("b", ["a", "up", "m", "down", "b"]) == ["a", "up", "up", "down", None]
    assert tree.germs("m", ["a", "b", "up", "m"]) == ["b", "b", "up", None]
    assert not _contains(oracle, Direction("b", "a"), "up")
    assert LineOracle().germs(0, [LINE_PLUS])[0] is True and LineOracle().germs(LINE_PLUS, [0])[0] is False
    pod = MultipodOracle()
    assert [pod.germs("hub", [(7, 1)]), pod.germs((7, Fr(1, 2)), [(7, 1)]), pod.germs((7, 1), [(2, 1)])] == [[7], ["out"], ["in"]]


def _float_tree(rng: random.Random) -> MetricTree:
    """A random tree with float lengths and offsets on a dyadic grid, which
    the tree takes at their exact binary values."""
    n = rng.randint(2, 8)
    edges = [(f"p{rng.randrange(i)}", f"p{i}", rng.randint(1, 12) / 4) for i in range(1, n)]
    points = [(f"m{k}", u, v, length * rng.randint(1, 3) / 4) for k, (u, v, length) in enumerate(edges[:2])]
    return MetricTree(edges, points)


def _tree_points(tree: MetricTree) -> list:
    """Names, and Locations in both edge orientations at the ends and inside."""
    pool = list(tree.point_names)
    for u, v, length in tree.edges:
        for j in range(5):
            off = length * Fr(j, 4)
            pool += [Location((u, v), off), Location((v, u), off)]
    return pool


def _oracle_and_points(draw):
    """An oracle and a strategy for its points: exact and float trees, the
    line with ints, Fractions, floats and rays, and finite and infinite
    multipods."""
    kind = draw(st.sampled_from(["exact tree", "float tree", "line", "multipod"]))
    if kind == "line":
        oracle, points = LineOracle(), _LINE_TERMS
    elif kind == "multipod":
        arms = draw(st.sampled_from([None, 1, 3]))
        length = draw(st.sampled_from([1, Fr(3, 2)]))
        oracle = MultipodOracle(arms, length)
        points = st.one_of(
            st.just("hub"),
            st.tuples(st.integers(0, (arms or 5) - 1), st.integers(0, 4).map(lambda j: length * Fr(j, 4))),
        )
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        tree = random_tree(rng, 9, edge_points=2) if kind == "exact tree" else _float_tree(rng)
        oracle = FiniteTreeOracle(tree)
        points = st.sampled_from(_tree_points(tree))
    return oracle, points


@st.composite
def membership_cases(draw):
    """(oracle, direction, points) over the oracles of _oracle_and_points."""
    oracle, points = _oracle_and_points(draw)
    d = Direction(draw(points), draw(points))
    return oracle, d, draw(st.lists(points, min_size=1, max_size=8))


@st.composite
def germs_cases(draw):
    """(oracle, base, points) over the oracles of _oracle_and_points: the
    list may be empty, repeat its points and hold the base."""
    oracle, points = _oracle_and_points(draw)
    base, pts = draw(points), draw(st.lists(points, max_size=8))
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    if draw(st.booleans()):
        pts.append(base)
    return oracle, base, draw(st.permutations(pts))


@settings(max_examples=500, deadline=None)
@given(membership_cases())
@example((LineOracle(), Direction(LINE_PLUS, 0), [math.inf, 3, LINE_MINUS, -math.inf]))
@example((LineOracle(), Direction(-math.inf, LINE_PLUS), [0.5, LINE_MINUS, Fr(-7, 2)]))
@example((LineOracle(), Direction(Fr(1, 2), 0.5), [0.5, 1, 0]))
def test_germ_membership_agrees_with_the_center_reference(case):
    oracle, d, points = case
    for r in points:
        try:
            expected = reference_in_direction(oracle, d, r)
        except ValueError:
            assert oracle.germs(d.base, [r]) == [None]
            assert not _contains(oracle, d, r)
            continue
        assert _contains(oracle, d, r) == expected
        other = Direction(d.base, r)
        assert same_direction(oracle, d, other) == (
            not oracle.points_equal(d.base, d.representative) and reference_in_direction(oracle, other, d.representative)
        )
        if isinstance(oracle, FiniteTreeOracle):
            tree = oracle.tree
            # r is on [base, representative] when its germs toward the two differ
            g_base, g_rep = tree.germs(r, (d.base, d.representative))
            on_segment = g_base is None or g_rep is None or g_base != g_rep
            assert on_segment == reference_point_on_segment(tree, r, d.base, d.representative)


@settings(max_examples=500, deadline=None)
@given(germs_cases())
@example((LineOracle(), LINE_PLUS, [math.inf, 3, LINE_MINUS, -math.inf, 3]))
@example((LineOracle(), Fr(1, 2), [0.5, 1, 0, LINE_PLUS, 1]))
@example((MultipodOracle(), (4, 1), []))
@example((MultipodOracle(None, Fr(3, 2)), "hub", [(9, Fr(3, 2)), (9, 0), (2, 1), (9, Fr(3, 2))]))
def test_germs_partition_the_points_as_the_center_reference(case):
    # one germs call: None exactly at the base, and two other points share a
    # label exactly when one lies in the direction of the other
    oracle, base, points = case
    labels = oracle.germs(base, points)
    assert len(labels) == len(points)
    assert [g is None for g in labels] == [oracle.points_equal(p, base) for p in points]
    for i, j in combinations(range(len(points)), 2):
        if labels[i] is not None and labels[j] is not None:
            expected = reference_in_direction(oracle, Direction(base, points[i]), points[j])
            assert (labels[i] == labels[j]) == expected


# -- liminf ------------------------------------------------------------------


def test_liminf_constant_sequence(star_oracle):
    seq = PointSequence(lambda i: "y")
    res = liminf_from(star_oracle, "x", seq, depth=10)
    assert star_oracle.points_equal(res.point, "y")
    assert res.certificate == 0
    assert res.stabilized()


def test_liminf_multipod_turning_sequence_reaches_hub():
    pod = MultipodOracle()
    seq = PointSequence(lambda i: (i + 1, 1))  # arm n at offset 1, avoiding arm 0
    res = liminf_from(pod, (0, 1), seq, depth=30)
    assert pod.points_equal(res.point, "hub")
    assert res.certificate == 0


def test_liminf_line_oscillating_sequence_matches_numeric_oracle(line):
    seq = PointSequence(lambda i: (-1) ** (i + 1) * (1 + Fr(1, i + 1)))
    depth = 60
    res = liminf_from(line, -5, seq, depth)
    terms = seq.take(depth)
    # independent oracle: all terms lie right of the basepoint, so the
    # nested-segment endpoint is the minimum of the tail coordinates
    assert all(t > -5 for t in terms)
    oracle_value = min(terms[res.head :])
    assert res.point == oracle_value
    assert abs(res.point - (-1)) < Fr(1, 25)


def test_liminf_empty_sequence_errors(line):
    with pytest.raises(EmptySequenceError):
        liminf_from(line, 0, PointSequence([]), depth=5)


def test_liminf_rejects_boundary_basepoint(line):
    with pytest.raises(ValueError):
        liminf_from(line, LINE_PLUS, PointSequence([1, 2]), depth=2)


def _bad_basepoint_cases():
    tree = MetricTree([("a", "b", 1), ("b", "c", 2), ("b", "d", 1)])
    return [
        (FiniteTreeOracle(tree), "zz", ["a", "c", "zz", "d"], UnknownPointError),
        (MultipodOracle(3), (7, Fr(1, 2)), [(0, 1), (1, Fr(1, 2)), (2, 1)], ValueError),
    ]


@pytest.mark.parametrize("oracle, basepoint, terms, error", _bad_basepoint_cases())
def test_liminf_rejects_a_bad_basepoint_the_fold_never_reaches(oracle, basepoint, terms, error):
    # a window of one term at head 0 folds no center with the basepoint
    seq = PointSequence(terms)
    with pytest.raises(error):
        liminf_from(oracle, basepoint, seq, depth=1)
    with pytest.raises(error):
        liminf_from(oracle, basepoint, PointSequence(terms[:1]), depth=4, head=0)
    with pytest.raises(error):
        extract_convergent_subsequence(oracle, seq, [Direction(terms[0], terms[1])], 1, basepoint)


def test_liminf_basepoint_independent_for_settled_sequences():
    rng = random.Random(3)
    for _ in range(20):
        tree = random_tree(rng, 8)
        oracle = FiniteTreeOracle(tree)
        fn, target = wandering_then_constant(rng, tree, prefix_len=6)
        seq = PointSequence(fn)
        results = {
            tree.resolve(liminf_from(oracle, q, seq, depth=20).point)
            for q in tree.point_names
        }
        assert results == {tree.resolve(target)}


def test_liminf_lies_in_convex_hull_of_sequence():
    rng = random.Random(5)
    for _ in range(20):
        tree = random_tree(rng, 8)
        oracle = FiniteTreeOracle(tree)
        names = list(tree.point_names)
        terms = [rng.choice(names) for _ in range(12)]
        seq = PointSequence(terms)
        res = liminf_from(oracle, rng.choice(names), seq, depth=12)
        assert any(
            reference_point_on_segment(tree, res.point, a, b) for a in terms for b in terms
        )


def test_liminf_of_direction_confined_sequence_stays_in_closure():
    rng = random.Random(8)
    checked = 0
    while checked < 15:
        tree = random_tree(rng, 9)
        oracle = FiniteTreeOracle(tree)
        names = list(tree.point_names)
        base, rep = rng.choice(names), rng.choice(names)
        if tree.same_point(base, rep):
            continue
        d = Direction(base, rep)
        inside = [
            p for p in names
            if not tree.same_point(p, base) and reference_in_direction(oracle, d, p)
        ]
        if not inside:
            continue
        terms = [rng.choice(inside) for _ in range(10)]
        res = liminf_from(oracle, rng.choice(names), PointSequence(terms), depth=10)
        in_closure = oracle.points_equal(res.point, d.base) or reference_in_direction(oracle, d, res.point)
        assert in_closure
        checked += 1


def test_liminf_in_direction_with_outside_basepoint_forces_tail_inside():
    rng = random.Random(13)
    checked = 0
    while checked < 15:
        tree = random_tree(rng, 9)
        oracle = FiniteTreeOracle(tree)
        fn, target = wandering_then_constant(rng, tree, prefix_len=5)
        seq = PointSequence(fn)
        depth = 16
        res = liminf_from(oracle, tree.point_names[0], seq, depth)
        candidates = full_direction_family(tree)
        q = tree.point_names[0]
        for d in candidates:
            limit_in = not oracle.points_equal(res.point, d.base) and reference_in_direction(
                oracle, d, res.point
            )
            q_in = not oracle.points_equal(q, d.base) and reference_in_direction(oracle, d, q)
            if limit_in and not q_in:
                terms = seq.take(depth)
                last_out = max(
                    (
                        i
                        for i, t in enumerate(terms)
                        if oracle.points_equal(t, d.base) or not reference_in_direction(oracle, d, t)
                    ),
                    default=-1,
                )
                assert last_out < depth - 1
                checked += 1


# The fold stops at head - 1 and the line folds in closed form; the full
# center fold in tests/helpers is the reference.  Small value pools make
# ties: equal values of different types, terms equal to the basepoint,
# repeated extremes, and the two line ends as rays and as float infinities.
_LINE_BASEPOINTS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fr, st.integers(-6, 6), st.sampled_from([1, 2])),
    st.integers(-6, 6).map(lambda v: v / 2),
)
_LINE_TERMS = st.one_of(_LINE_BASEPOINTS, st.sampled_from([LINE_PLUS, LINE_MINUS, math.inf, -math.inf]))


@st.composite
def liminf_cases(draw):
    """(oracle, formatter, basepoint, terms, depth, head) on the line, a
    finite tree with points inside edges, or a finite or infinite multipod."""
    kind = draw(st.sampled_from(["line", "tree", "multipod"]))
    if kind == "line":
        oracle, fmt = LineOracle(), format_number
        points, basepoint = _LINE_TERMS, draw(_LINE_BASEPOINTS)
    elif kind == "tree":
        tree = random_tree(random.Random(draw(st.integers(0, 2**32 - 1))), 9, edge_points=2)
        oracle = FiniteTreeOracle(tree)
        pool = list(tree.point_names) + list(islice(oracle.sample_stream(), 20))
        points = st.sampled_from(pool)
        basepoint = draw(points)

        def fmt(p):
            return format_point(tree, p)

    else:
        arms = draw(st.sampled_from([None, 1, 3]))
        length = draw(st.sampled_from([1, Fr(3, 2)]))
        oracle = MultipodOracle(arms, length)
        points = st.one_of(
            st.just("hub"),
            st.tuples(st.integers(0, (arms or 5) - 1), st.integers(0, 4).map(lambda j: length * Fr(j, 4))),
        )
        basepoint = draw(points)
        fmt = repr
    terms = draw(st.lists(points, min_size=1, max_size=14))
    depth = draw(st.integers(1, len(terms) + 2))
    head = draw(st.one_of(st.none(), st.integers(0, len(terms) - 1)))
    return oracle, fmt, basepoint, terms, depth, head


@settings(max_examples=400, deadline=None)
@given(liminf_cases())
@example((LineOracle(), format_number, Fr(0), [0.0, 1, Fr(0), 0, 2, 0.0], 6, None))
@example((LineOracle(), format_number, Fr(1, 2), [0.5, -1, 0.5, Fr(1, 2), -1.0, -1], 6, 2))
@example((LineOracle(), format_number, 0, [LINE_MINUS, 3, 2.0, Fr(2), 2, LINE_PLUS], 6, 1))
@example((LineOracle(), format_number, 1, [-math.inf, LINE_MINUS, 0, -1.0], 4, 0))
def test_liminf_agrees_with_the_full_fold(case):
    oracle, fmt, basepoint, terms, depth, head = case
    got = liminf_from(oracle, basepoint, PointSequence(terms), depth, head=head)
    ref = reference_liminf(oracle, basepoint, terms[:depth], head)
    assert (got.terms_used, got.head) == (ref.terms_used, ref.head)
    for value, expected in ((got.point, ref.point), (got.certificate, ref.certificate)):
        assert value == expected and type(value) is type(expected)
    assert fmt(got.point) == fmt(ref.point)
    assert format_number(got.certificate) == format_number(ref.certificate)
    if isinstance(oracle, LineOracle):
        # the closed form hands back the very object the fold keeps
        assert got.point is ref.point


# -- converges_obs -----------------------------------------------------------


def test_constant_sequence_consistent_for_any_probes(star_oracle):
    seq = PointSequence(lambda i: "x")
    probes = [Direction("H", "x"), Direction("H", "y")]
    verdict = converges_obs(star_oracle, seq, "x", probes, depth=8)
    assert verdict.consistent


def test_multipod_turning_sequence_converges_to_hub_only():
    pod = MultipodOracle()
    seq = PointSequence(lambda i: (i, 1))
    probes = [Direction((i, Fr(1, 2)), "hub") for i in range(6)]
    probes += [Direction((i, Fr(1, 2)), (i, 1)) for i in range(6)]
    verdict = converges_obs(pod, seq, "hub", probes, depth=40)
    assert verdict.consistent
    # any tip is refuted by the direction at its arm midpoint toward the tip
    refuted = converges_obs(pod, seq, (3, 1), probes, depth=40)
    assert not refuted.consistent
    assert refuted.refuting.direction.base == (3, Fr(1, 2))


def test_line_one_over_n_consistent(line):
    seq = PointSequence(lambda i: Fr(1, i + 1))
    probes = [
        Direction(Fr(1, 2), 0),
        Direction(Fr(-1, 2), 0),
    ]
    verdict = converges_obs(line, seq, 0, probes, depth=30)
    assert verdict.consistent


@settings(max_examples=300, deadline=None)
@given(membership_cases(), st.data())
def test_converge_reports_agree_with_center_membership(case, data):
    oracle, d, points = case
    limit = points[0]
    terms = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=12))
    probes = [d, Direction(d.representative, d.base)]
    verdict = converges_obs(oracle, PointSequence(terms), limit, probes, len(terms))

    def inside(probe, r):
        return not oracle.points_equal(r, probe.base) and reference_in_direction(oracle, probe, r)

    for probe, report in zip(probes, verdict.reports):
        assert report.contains_limit == inside(probe, limit)
        if report.contains_limit:
            outside = [i for i, t in enumerate(terms) if not inside(probe, t)]
            assert report.last_outside == max(outside, default=-1)


def test_converges_requires_probes(line):
    with pytest.raises(ValueError):
        converges_obs(line, PointSequence([1]), 0, [], depth=1)


def test_obs_and_metric_convergence_agree_on_finite_trees():
    rng = random.Random(21)
    for _ in range(10):
        tree = random_tree(rng, 7)
        oracle = FiniteTreeOracle(tree)
        probes = full_direction_family(tree)
        depth = 18
        # convergent case: eventually constant
        fn, target = wandering_then_constant(rng, tree, prefix_len=5)
        verdict = converges_obs(oracle, PointSequence(fn), target, probes, depth)
        tail_dist = tree.distance(fn(depth - 1), target)
        assert verdict.consistent and tail_dist == 0
        # divergent case: keeps alternating between two distinct points
        names = list(tree.point_names)
        a, b = names[0], names[-1]
        if tree.same_point(a, b):
            continue
        seq = PointSequence(lambda i, a=a, b=b: a if i % 2 == 0 else b)
        verdict = converges_obs(oracle, seq, a, probes, depth)
        metric_converges = tree.distance(seq.point(depth - 1), a) == 0
        assert not verdict.consistent and not metric_converges


# -- subbasis ----------------------------------------------------------------


def line_subbasis_count_oracle(points):
    """Independent count: one direction per (midpoint, occupied strict side)."""
    mids = []
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            m = Fr(a + b, 2)
            if m not in mids:
                mids.append(m)
    count = 0
    for m in mids:
        count += any(p < m for p in points) + any(p > m for p in points)
    return count


def test_subbasis_two_points(line):
    dirs = subbasis_from_sample(line, [0, 1], k=2)
    assert len(dirs) == 2
    assert all(line.points_equal(d.base, Fr(1, 2)) for d in dirs)


def test_subbasis_line_sample_count_matches_enumeration(line):
    pts = []
    for p in line.sample_stream():
        if p not in pts:
            pts.append(p)
        if len(pts) == 4:
            break
    expected = line_subbasis_count_oracle(pts)
    dirs = subbasis_from_sample(line, line.sample_stream(), k=4)
    assert len(dirs) == expected == 12


def test_subbasis_star_midpoints(star_oracle):
    tree = star_oracle.tree
    dirs = subbasis_from_sample(star_oracle, ["x", "y", "z"], k=3)
    bases = {tree.resolve(d.base) for d in dirs}
    assert bases == {
        Location(("H", "y"), Fr(1, 2)),
        Location(("H", "z"), Fr(1)),
        Location(("H", "z"), Fr(1, 2)),
    }
    assert len(dirs) == 6  # two sides per interior base point


def test_subbasis_unit_star_collapses_to_hub():
    oracle = FiniteTreeOracle(star_tree({"x": 1, "y": 1, "z": 1}, hub="H"))
    dirs = subbasis_from_sample(oracle, ["x", "y", "z"], k=3)
    assert len(dirs) == 3
    assert all(oracle.points_equal(d.base, "H") for d in dirs)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["tree", "line", "multipod"]),
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.booleans(),
)
def test_subbasis_agrees_with_the_pairwise_dedupe(kind, seed, k, streamed):
    rng = random.Random(seed)
    if kind == "tree":
        tree = random_tree(rng, 9, edge_points=2)
        oracle = FiniteTreeOracle(tree)
        pool = list(tree.point_names)
    elif kind == "line":
        oracle = LineOracle()
        pool = [LINE_PLUS, LINE_MINUS, 0, 0.5, Fr(1, 2), 3, -2, Fr(7, 3), 1.25]
    else:
        oracle = MultipodOracle(rng.choice([None, 2, 5]))
        pool = ["hub"] + [(arm, Fr(j, 4)) for arm in range(2) for j in range(5)]
    fixed = [rng.choice(pool) for _ in range(12)]

    def sample():
        return oracle.sample_stream() if streamed else iter(fixed)

    try:
        got = subbasis_from_sample(oracle, sample(), k)
    except DegenerateSampleError:
        assert not streamed
        return
    assert got == reference_subbasis(oracle, sample(), k)


def test_subbasis_degenerate_sample(line):
    with pytest.raises(DegenerateSampleError):
        subbasis_from_sample(line, [0, 0, 0], k=2)


# -- extraction ----------------------------------------------------------------


def test_extract_keeps_convergent_sequence(star_oracle):
    seq = PointSequence(lambda i: "x")
    dirs = [Direction("H", "x"), Direction("H", "y")]
    res = extract_convergent_subsequence(star_oracle, seq, dirs, depth=12)
    assert len(res.indices) >= 6
    assert star_oracle.points_equal(res.limit.point, "x")
    assert res.exhausted_at is None


def test_extract_parity_subsequence_on_line(line):
    seq = PointSequence(lambda i: (-1) ** i)
    dirs = [Direction(Fr(1, 2), 1)]
    res = extract_convergent_subsequence(line, seq, dirs, depth=10, basepoint=0)
    values = {seq.point(i) for i in res.indices}
    assert values in ({1}, {-1})
    assert res.limit.point in (1, -1)
    assert res.limit.certificate == 0


def test_extract_multipod_turning_limit_is_hub():
    pod = MultipodOracle()
    seq = PointSequence(lambda i: (i, 1))
    dirs = [Direction((i, Fr(1, 2)), (i, 1)) for i in range(3)]
    res = extract_convergent_subsequence(pod, seq, dirs, depth=30, basepoint="hub")
    assert pod.points_equal(res.limit.point, "hub")


@settings(max_examples=300, deadline=None)
@given(membership_cases(), st.data())
def test_extract_window_agrees_with_center_membership(case, data):
    # the drawn directions include degenerate ones, whose base is outside
    oracle, d, points = case
    terms = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=12))
    pool = st.sampled_from([*points, d.base, d.representative])
    dirs = [d] + data.draw(st.lists(st.builds(Direction, pool, pool), max_size=4))
    # a finite basepoint: the default, the window's first term, may be a ray
    basepoint = 0 if isinstance(oracle, LineOracle) else None
    res = extract_convergent_subsequence(oracle, PointSequence(terms), dirs, len(terms), basepoint)
    assert (list(res.indices), res.exhausted_at) == reference_extract_window(oracle, terms, dirs)


# -- shape maps ----------------------------------------------------------------


def test_shape_map_identity_passes():
    rng = random.Random(2)
    tree = random_tree(rng, 7)
    verdict = verify_shape_map(tree, tree, {n: n for n in tree.point_names})
    assert verdict.passes


def test_shape_map_same_shape_different_metric_passes():
    t0 = path_tree([1, 2], names=["A", "B", "C"])
    t1 = path_tree([3, 1], names=["A", "B", "C"])
    verdict = verify_shape_map(t0, t1, {"A": "A", "B": "B", "C": "C"})
    assert verdict.passes


def test_shape_map_leaf_swap_with_marked_point_fails():
    t = MetricTree(
        [("H", "x", 1), ("H", "y", 2), ("H", "z", 3)],
        [("M", "H", "x", Fr(1, 2))],
    )
    swap = {"H": "H", "x": "y", "y": "x", "z": "z", "M": "M"}
    verdict = verify_shape_map(t, t, swap)
    assert not verdict.passes
    assert verdict.witness is not None


def test_shape_map_rejects_non_bijection():
    t = path_tree([1], names=["A", "B"])
    with pytest.raises(ShapeMapError):
        verify_shape_map(t, t, {"A": "A"})
    with pytest.raises(ShapeMapError):
        verify_shape_map(t, t, {"A": "A", "B": "A"})


def _point_rows(tree: MetricTree, extra=()) -> list:
    return [
        (name, loc) if isinstance(loc, str) else (name, *loc.edge, loc.offset)
        for name, loc in [*tree.designated.items(), *extra]
    ]


def _with_aliases(rng: random.Random, tree: MetricTree, prefix: str = "z") -> MetricTree:
    """The tree with up to three more names, each at the place of a named
    point: only such aliases can fail the segment pass of the shape check
    after its center pass."""
    extra = [(f"{prefix}{k}", tree.resolve(rng.choice(tree.point_names))) for k in range(rng.randint(0, 3))]
    return MetricTree(tree.edges, _point_rows(tree, extra), vertices=tree.vertices)


def _relengthed(rng: random.Random, tree: MetricTree) -> MetricTree:
    """The same shape with new lengths, designated points on the same edges."""
    lengths = {(u, v): Fr(rng.randint(1, 12), rng.randint(1, 3)) for u, v, _ in tree.edges}
    points = [
        (name, loc) if isinstance(loc, str) else (name, *loc.edge, lengths[loc.edge] * Fr(rng.randint(1, 7), 8))
        for name, loc in tree.designated.items()
    ]
    return MetricTree([(u, v, length) for (u, v), length in lengths.items()], points)


def _tiny_tree(rng: random.Random, prefix: str) -> MetricTree:
    """One to three vertices with aliases, where segment witnesses are common."""
    if rng.random() < 0.3:
        tree = MetricTree([], vertices=["p0"])
    else:
        tree = random_tree(rng, 3, edge_points=rng.randint(0, 1))
    return _with_aliases(rng, tree, prefix)


def _shape_case(rng: random.Random, kind: str) -> tuple[MetricTree, MetricTree, dict]:
    """Two trees and a bijection of the first one's names into the second."""
    if kind == "tiny":
        t0 = _tiny_tree(rng, "z")
    elif kind == "relengthed above desk size":
        t0 = _with_aliases(rng, random_tree(rng, 60, edge_points=rng.randint(0, 3), min_points=30))
    else:
        t0 = _with_aliases(rng, random_tree(rng, 8, edge_points=rng.randint(0, 3)))
    names = sorted(t0.point_names)
    bijection = {n: n for n in names}
    t1 = t0
    if kind == "tiny":
        t1 = _tiny_tree(rng, "y")
        while len(t1.point_names) < len(names):
            t1 = _tiny_tree(rng, "y")
        bijection = dict(zip(names, rng.sample(t1.point_names, len(names))))
    elif kind.startswith("relengthed"):
        t1 = _relengthed(rng, t0)
    elif kind == "scrambled":
        images = names[:]
        rng.shuffle(images)
        bijection = dict(zip(names, images))
    elif kind == "other tree":
        t1 = _with_aliases(rng, random_tree(rng, 12, edge_points=3))
        while len(t1.point_names) < len(names):
            t1 = _with_aliases(rng, random_tree(rng, 12, edge_points=3))
        bijection = dict(zip(names, rng.sample(t1.point_names, len(names))))
    elif kind == "edge swap":
        # two designated points swapped inside one edge: the rows at both differ
        u, v, length = rng.choice(t0.edges)
        swapped = [("s0", u, v, length / 3), ("s1", u, v, 2 * length / 3)]
        t0 = t1 = MetricTree(t0.edges, _point_rows(t0) + swapped, vertices=t0.vertices)
        bijection = {n: n for n in t0.point_names} | {"s0": "s1", "s1": "s0"}
    elif kind == "vertex-alias swap":
        # the germ rows of both sides agree, as the swapped names share a
        # point, but the name of that point maps to its other name
        vertex = rng.choice(t0.vertices)
        t0 = t1 = MetricTree(t0.edges, _point_rows(t0, [("w", vertex)]), vertices=t0.vertices)
        bijection = {n: n for n in t0.point_names} | {vertex: "w", "w": vertex}
    return t0, t1, bijection


SHAPE_KINDS = ["identity", "relengthed", "scrambled", "other tree", "tiny", "edge swap", "vertex-alias swap"]


def _fails_the_reference_center_test(tree_a: MetricTree, tree_b: MetricTree, bijection: dict, triple) -> bool:
    """The center test of reference_shape_map on one triple."""
    na = tree_a.name_of(tree_a.center(*triple))
    nb = tree_b.name_of(tree_b.center(*(bijection[p] for p in triple)))
    if na is None:
        return nb is not None and nb in bijection.values()
    return nb is None or nb != bijection[na]


def _assert_agrees_with_the_reference(tree_a: MetricTree, tree_b: MetricTree, bijection: dict):
    """The verdict passes as the reference's does; it is the reference's
    whenever that is a pass or a segment witness, the first violation in
    both scans; a center witness names a triple that fails the reference's
    center test."""
    verdict, expected = verify_shape_map(tree_a, tree_b, bijection), reference_shape_map(tree_a, tree_b, bijection)
    assert verdict.passes == expected.passes
    if expected.witness is None or expected.witness[0] == "segment":
        assert verdict == expected
    if verdict.witness is not None and verdict.witness[0] == "center":
        assert _fails_the_reference_center_test(tree_a, tree_b, bijection, verdict.witness[1:])
    return verdict


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SHAPE_KINDS))
@example(0, "edge swap")
@example(0, "vertex-alias swap")
def test_shape_map_agrees_with_the_triple_loop_reference(seed, kind):
    t0, t1, bijection = _shape_case(random.Random(seed), kind)
    verdict = _assert_agrees_with_the_reference(t0, t1, bijection)
    assert verdict.passes or kind != "identity"
    assert not verdict.passes or kind not in ("edge swap", "vertex-alias swap")
    if kind == "edge swap":
        assert verdict.witness[0] == "segment"
    if kind == "vertex-alias swap":
        # the rows agree, so only a name can fail
        assert verdict.witness[0] == "center"


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_shape_map_agrees_with_the_triple_loop_reference_above_desk_size(seed):
    """The relengthed kind at 30 to 60 points (and up to three aliases),
    where a pass is decided from germ rows and names alone; the reference
    makes n³/6 center queries and reads n³ segment rows off a distance
    matrix, about a tenth of a second a case."""
    t0, t1, bijection = _shape_case(random.Random(seed), "relengthed above desk size")
    assert 30 <= len(bijection) <= 63
    _assert_agrees_with_the_reference(t0, t1, bijection)


def test_shape_map_takes_no_meets_and_no_centers(monkeypatch):
    """The verdict comes from germ rows and names alone, on a pass, a
    segment witness and a center witness."""
    cases = [_shape_case(random.Random(5), kind) for kind in ("identity", "edge swap", "vertex-alias swap")]
    expected = [reference_shape_map(*case) for case in cases]

    def refuse(*args):
        raise AssertionError("the shape check took a meet or a center")

    monkeypatch.setattr(MetricTree, "_meets", refuse)
    monkeypatch.setattr(MetricTree, "center", refuse)
    verdicts = [verify_shape_map(*case) for case in cases]
    assert [v.passes for v in verdicts] == [e.passes for e in expected] == [True, False, False]
    assert [v.witness and v.witness[0] for v in verdicts] == [None, "segment", "center"]


def test_point_sequence_from_list_and_fn():
    seq = PointSequence([1, 2, 3])
    assert seq.take(5) == [1, 2, 3]
    assert list(islice(iter(PointSequence(lambda i: i)), 4)) == [0, 1, 2, 3]


def test_convergence_verdict_reports(star_oracle):
    seq = PointSequence(["y", "x", "x", "x"])
    probes = [Direction("H", "x")]
    verdict = converges_obs(star_oracle, seq, "x", probes, depth=4)
    assert isinstance(verdict, ConvergenceVerdict)
    assert verdict.consistent
    assert verdict.reports[0].last_outside == 0
