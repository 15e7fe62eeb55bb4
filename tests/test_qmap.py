import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    canonical_rotation,
    commutator,
    reference_fiber_check,
    reference_fold,
    reference_mu,
    reference_orbit,
    reference_qmap_estimate,
    reference_small_words,
    reference_translation_length,
    rotations,
)
from rtreelab.blend import length_function_from_line_action
from rtreelab.boundary import BoundaryPoint, act, parse_boundary_point
from rtreelab.formats import FormatError, format_number
from rtreelab.observers import liminf_from
from rtreelab.oracles import LINE_MINUS, LINE_PLUS, LineOracle
from rtreelab.qmap import (
    DenseLineAction,
    EmptyWordError,
    _orbit_sequence,
    dual_lamination_sample,
    line_action_from_weights,
    min_positive_translation,
    parse_weight,
    q_fiber_check,
    qmap_estimate,
    small_words_search,
)
from rtreelab.surds import Surd
from rtreelab.words import (
    Basis,
    abelianization,
    cyclic_reduce,
    cyclically_reduced_words,
    invert_letter,
    invert_word,
)

B2 = Basis(2)
SQRT2 = math.sqrt(2)
ROOT2 = Surd.sqrt(2)


@pytest.fixture
def irr_action():
    return DenseLineAction({"a": 1, "b": ROOT2}, B2, basepoint=0)


@pytest.fixture
def rational_action():
    return DenseLineAction({"a": Fr(1), "b": Fr(3)}, B2, basepoint=Fr(0))


def periodic(prefix, block):
    return BoundaryPoint.periodic(B2, prefix, block)


# -- translation length ---------------------------------------------------------


def test_generator_translation_length(irr_action):
    assert irr_action.translation_length("a") == 1


def test_commutator_translation_length_exactly_zero(irr_action):
    assert irr_action.translation_length(commutator("a", "b")) == 0
    assert irr_action.translation_length("abAB") == 0


def test_irrational_combination_value_and_minimality(irr_action):
    w = "aaaBB"  # a^3 b^-2
    got = irr_action.translation_length(w)
    assert abs(got - abs(3 - 2 * SQRT2)) < 1e-12
    # independent oracle: exhaustive scan of all cyclically reduced words
    # of length <= 5 with nonzero image
    best = min(
        irr_action.translation_length(u)
        for u in cyclically_reduced_words(B2, 5)
        if abelianization(u, B2) != (0, 0)
    )
    assert got == best


def test_translation_length_cyclically_reduces_first(irr_action):
    assert irr_action.translation_length("baB") == irr_action.translation_length("a")


def test_translation_length_empty_word_errors(irr_action):
    with pytest.raises(EmptyWordError):
        irr_action.translation_length("aA")


def test_translation_length_is_class_function(irr_action):
    rng = random.Random(0)
    words = cyclically_reduced_words(B2, 8)
    for w in rng.sample(words, 300):
        tl = irr_action.translation_length(w)
        for r in rotations(w):
            assert irr_action.translation_length(r) == tl
        u = rng.choice(["a", "b", "ab", "BA"])
        assert irr_action.translation_length(u + w + invert_word(u)) == tl
        assert irr_action.translation_length(invert_word(w)) == tl


# -- small words ------------------------------------------------------------------


def test_small_words_empty_below_minimum(irr_action):
    # the smallest nonzero |mu| at length <= 3 is |1 - sqrt2| ~ 0.414, and
    # no zero-sum cyclically reduced word is that short
    assert small_words_search(irr_action, 0.4, 3) == []


def test_small_words_finds_commutators_and_irrational_combo(irr_action):
    records = small_words_search(irr_action, 0.2, 5)
    words = [r.word for r in records]
    assert canonical_rotation("aaaBB") in words
    assert canonical_rotation("abAB") in words
    assert canonical_rotation(invert_word("aaaBB")) in words  # inversion closure
    zero = [r for r in records if r.translation_length == 0]
    assert all(r.vector == (0, 0) for r in zero)
    # deterministic ordering: translation length, then length, then lex
    keys = [(r.translation_length, len(r.word), r.word) for r in records]
    assert keys == sorted(keys)


def test_small_words_minimum_nonincreasing_in_maxlen(irr_action):
    def min_at(maxlen):
        recs = small_words_search(irr_action, float("inf"), maxlen)
        return min(r.translation_length for r in recs)

    values = [min_at(n) for n in (2, 3, 4, 5, 6)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_min_positive_translation_matches_exhaustive_search(irr_action):
    value, vec, word = min_positive_translation(irr_action, 5)
    assert abs(value - abs(3 - 2 * SQRT2)) < 1e-12
    assert vec in ((3, -2), (-3, 2))
    assert abelianization(word, B2) == vec
    # cross-check against the literal word enumeration
    best = min(
        irr_action.translation_length(u)
        for u in cyclically_reduced_words(B2, 5)
        if abelianization(u, B2) != (0, 0)
    )
    assert value == best


# -- qmap estimates -----------------------------------------------------------------


def test_monotone_orbit_escapes_to_plus_end(irr_action):
    est = qmap_estimate(irr_action, periodic("", "a"), depth=100)
    assert est.point == LINE_PLUS
    assert est.method == "drift"
    assert qmap_estimate(irr_action, periodic("", "A"), depth=100).point == LINE_MINUS


def test_commutator_power_orbit_liminf_matches_partial_sum_oracle(irr_action):
    x = periodic("", "abAB")
    depth = 10_000
    est = qmap_estimate(irr_action, x, depth=depth)
    assert est.method == "liminf"
    # independent oracle: direct partial sums of the letter weights
    sums = []
    total = 0.0
    weights = {"a": 1, "b": SQRT2, "A": -1, "B": -SQRT2}
    for c in x.prefix(depth):
        total += weights[c]
        sums.append(total)
    head = depth // 2
    expected = min(sums[head:])
    assert abs(est.point - expected) < 1e-9
    assert est.point == 0  # the orbit returns to the basepoint each period
    assert est.certificate == 0


def test_constant_orbit_returns_basepoint():
    action = DenseLineAction({"a": Fr(0), "b": Fr(0)}, B2, basepoint=Fr(7))
    est = qmap_estimate(action, periodic("", "ab"), depth=50)
    assert est.point == 7


def test_estimate_uses_action_basepoint_by_default(irr_action):
    est = qmap_estimate(irr_action, periodic("", "abAB"), depth=500)
    est_shifted = qmap_estimate(irr_action, periodic("", "abAB"), basepoint=5, depth=500)
    assert est.point == 0 and est_shifted.point == 5


# -- fiber checks ---------------------------------------------------------------------


def test_fiber_reflexive(irr_action):
    x = periodic("", "ab")
    check = q_fiber_check(irr_action, x, x, depth=200)
    assert check.status == "equal" and check.residual == 0


def test_fiber_same_end_is_equal(irr_action):
    check = q_fiber_check(irr_action, periodic("", "a"), periodic("", "b"), depth=200)
    assert check.status == "equal"
    assert check.residual == 0


def test_fiber_opposite_ends_differ(irr_action):
    check = q_fiber_check(irr_action, periodic("", "a"), periodic("", "A"), depth=200)
    assert check.status == "different"
    assert math.isinf(check.residual)


def test_fiber_symmetric(irr_action):
    x, y = periodic("", "abAB"), periodic("", "aBAb")
    c1 = q_fiber_check(irr_action, x, y, depth=2000)
    c2 = q_fiber_check(irr_action, y, x, depth=2000)
    assert c1.status == c2.status
    assert c1.residual == c2.residual


def test_fiber_straddling_orbit_collapses_to_basepoint(irr_action):
    x = periodic("", "abAB")  # orbit stays >= 0, returning to 0 each period
    y = periodic("", "aBAb")  # orbit straddles 0: segments from 0 point both ways
    cx = q_fiber_check(irr_action, x, y, depth=4000, tol=1e-6)
    # nested segments from the basepoint in opposite directions intersect in
    # the basepoint alone, so both limits are 0: the fibers coincide
    assert cx.status == "equal"
    assert cx.residual == 0


def test_fiber_finite_estimates_compare_with_tolerance(irr_action):
    x = periodic("", "abAB")  # orbit values {1, 1+s, s, 0}: limit from 0 is 0
    y = periodic("b", "abAB")  # same loop shifted by s = sqrt2: limit is s
    cx = q_fiber_check(irr_action, x, y, depth=4000, tol=1e-6)
    assert cx.status == "different"
    assert abs(cx.residual - SQRT2) < 1e-9


# -- basepoint panel ------------------------------------------------------------------


def test_escape_estimates_basepoint_independent(irr_action):
    for block in ("a", "ab", "aab"):
        points = {
            qmap_estimate(irr_action, periodic("", block), basepoint=p, depth=300).point
            for p in (0, 5, -3)
        }
        assert points == {LINE_PLUS}


def test_bounded_orbit_panel_disagreement_is_reported_exactly(irr_action):
    # the sandbox is not very small: bounded orbits translate with the
    # basepoint, and the panel exposes that instead of hiding it
    x = periodic("", "abAB")
    panel = [qmap_estimate(irr_action, x, basepoint=p, depth=400) for p in (0, 5, -3)]
    assert all(e.certificate == 0 for e in panel)
    assert [e.point for e in panel] == [0, 5, -3]


# -- dual lamination -------------------------------------------------------------------


def test_dual_lamination_commutator_pair_passes_fiber_check(irr_action):
    sample = dual_lamination_sample(irr_action, 0.01, 4, depth=400)
    assert sample.pairs, "commutator classes must appear"
    audits = sample.annotations.values()
    zero_entries = [a for a in audits if a["translation_length"] == 0]
    assert zero_entries
    for entry in zero_entries:
        if entry["word"] in (canonical_rotation("abAB"),):
            assert entry["fiber_status"] == "equal"
            assert entry["fiber_residual"] == 0


def test_dual_lamination_includes_small_word_pair_with_residual(irr_action):
    sample = dual_lamination_sample(irr_action, 0.2, 5, depth=600)
    # the class of a^3 b^-2 and its inverse produce the same two boundary
    # points, so the annotation carries whichever class came first
    target = abs(3 - 2 * SQRT2)
    entries = [
        a for a in sample.annotations.values() if abs(a["translation_length"] - target) < 1e-12
    ]
    assert entries
    # drift is nonzero (~0.17), so both components escape: one to each end
    assert all(e["fiber_status"] == "different" for e in entries)


def test_dual_lamination_empty_for_tiny_epsilon_short_words(irr_action):
    sample = dual_lamination_sample(irr_action, 1e-9, 3, depth=100)
    assert sample.pairs == ()
    assert sample.audit().closed


def test_dual_lamination_flip_closed_and_audit_passes(irr_action):
    sample = dual_lamination_sample(irr_action, 0.2, 5, depth=500)
    from rtreelab.boundary import flip

    for pair in sample.pairs:
        assert sample.contains(flip(pair))
    assert sample.audit().closed


@pytest.mark.parametrize("weights,epsilon,maxlen", [("1,sqrt:2", Fr(1, 5), 5), ("1,sqrt:2", Fr(9, 10), 4), ("2,3", 2, 4)])
def test_dual_lamination_estimates_each_point_once(monkeypatch, weights, epsilon, maxlen):
    """One qmap_estimate per distinct point, and every pair's annotation,
    the flip's included, is what its own fiber check gives."""
    import rtreelab.qmap as qmap

    action = line_action_from_weights(weights.split(","))
    calls, estimate = [], qmap.qmap_estimate
    monkeypatch.setattr(qmap, "qmap_estimate", lambda a, x, **kw: calls.append(x) or estimate(a, x, **kw))
    sample = dual_lamination_sample(action, epsilon, maxlen, depth=600)
    monkeypatch.undo()
    points = {p for pair in sample.pairs for p in (pair.x, pair.y)}
    assert sample.pairs and len(calls) == len(points) and set(calls) == points
    for pair in sample.pairs:
        check = q_fiber_check(action, pair.x, pair.y, depth=600)
        note = sample.annotations[pair]
        assert (note["fiber_status"], note["fiber_residual"]) == (check.status, check.residual)


# -- parsing ---------------------------------------------------------------------------


def test_parse_weight_literals():
    assert parse_weight("3/2") == Fr(3, 2)
    assert parse_weight("1.25") == Fr(5, 4)
    value = parse_weight("sqrt:2")
    assert isinstance(value, Surd) and value == ROOT2 and float(value) == SQRT2
    # the square factor is taken out, and perfect squares are rational
    assert parse_weight("sqrt:8") == 2 * ROOT2
    assert parse_weight("sqrt:72") == 6 * ROOT2
    assert parse_weight("sqrt:9") == Fr(3) and not isinstance(parse_weight("sqrt:9"), Surd)
    assert parse_weight("sqrt:0") == Fr(0) and not isinstance(parse_weight("sqrt:0"), Surd)
    for bad in ("sqrt:-2", "sqrt:x", "sqrt:1.5", "1/0", f"sqrt:{10**18 + 1}"):
        with pytest.raises(FormatError):
            parse_weight(bad)


def test_line_action_from_weights_sets_density_flag():
    # dense exactly when two weights are independent over Q
    cases = {
        "sqrt:2,sqrt:8": False,  # sqrt 8 is 2 sqrt 2: the group sqrt(2) Z
        "sqrt:2,sqrt:2": False,
        "0,sqrt:2": False,
        "1,3/2": False,
        "sqrt:9,3/2": False,
        "1,sqrt:2": True,
        "sqrt:2,sqrt:3": True,
        "1,2,sqrt:5": True,
        "sqrt:2,sqrt:8,sqrt:3": True,
    }
    for weights, dense in cases.items():
        action = line_action_from_weights(weights.split(","))
        assert action.basis.rank == len(weights.split(","))
        assert action.dense_image is dense, weights
    # the flag is computed for an action built directly, and cannot be set
    assert DenseLineAction({"a": 1, "b": Surd.sqrt(2)}, Basis(2)).dense_image
    assert not DenseLineAction({"a": Fr(1, 3), "b": 0.25}, Basis(2)).dense_image
    with pytest.raises(TypeError):
        DenseLineAction({"a": 1, "b": 2}, Basis(2), dense_image=True)


def test_apply_is_an_action_preserving_distances(irr_action):
    """A word acts on the line as the translation by mu of the word."""
    rng = random.Random(6)
    words = ["a", "Ab", "baB", "abAB", "bbA"]
    mu = irr_action.mu
    for _ in range(40):
        u, v = rng.choice(words), rng.choice(words)
        p, q = rng.uniform(-5, 5), rng.uniform(-5, 5)
        uv = u + v
        assert p + mu(uv) == pytest.approx((p + mu(v)) + mu(u))
        assert abs((p + mu(u)) - (q + mu(u))) == pytest.approx(abs(p - q))


def test_act_then_estimate_consistency(irr_action):
    x = parse_boundary_point(";abAB", B2)
    y = act("bb", x)
    est = qmap_estimate(irr_action, y, depth=2000)
    # prepending b^2 shifts every orbit point by 2*sqrt2 after the prefix
    assert est.method == "liminf"
    assert abs(est.point - 2 * SQRT2) < 1e-9


@pytest.mark.parametrize("weights", ["1,2", "1,sqrt:2", "2,3,5", "1,sqrt:3,1/2", "1,sqrt:2,sqrt:3"])
def test_small_words_search_agrees_with_the_slow_reference(weights):
    """The epsilons include ones that cut most of the necklace tree (0 cuts
    all of it) and a float taken at its binary value."""
    action = line_action_from_weights(weights.split(","))
    for maxlen in range(1, 7):
        for epsilon in (0, 1e-6, Fr(1, 5), 0.3, 1.5, math.inf):
            got = small_words_search(action, epsilon, maxlen)
            expected = reference_small_words(action, epsilon, maxlen)
            assert got == expected
            assert [type(r.translation_length) for r in got] == [
                type(r.translation_length) for r in expected
            ]


# -- the integer line action against the slow reference ---------------------------

# weight denominators; basepoints take 7, 11, 13 or 17, none of them
WEIGHT_DENOMINATORS = [1, 2, 3, 4, 6, 9, 10, 12]


@st.composite
def reduced_words_st(draw, rank, min_size=0, max_size=8):
    letters = Basis(rank).letters
    word = ""
    for c in draw(st.lists(st.sampled_from(letters), min_size=min_size, max_size=max_size)):
        if not word or word[-1] != invert_letter(c):
            word += c
    return word


@st.composite
def boundary_specs(draw, rank):
    """("periodic", prefix, block) with drift of either sign or none, or
    ("random", seed): a seeded 300-letter walk before a zero-drift block."""
    if draw(st.booleans()):
        return ("random", draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # zero abelianization: the block is a commutator of two words
        u = draw(reduced_words_st(rank, 1, 3))
        v = draw(reduced_words_st(rank, 1, 3))
        block = cyclic_reduce(commutator(u, v)) or "ab"
    else:
        block = cyclic_reduce(draw(reduced_words_st(rank, 1, 6))) or "a"
    prefix = draw(reduced_words_st(rank))
    while prefix and prefix[-1] == invert_letter(block[0]):
        prefix = prefix[:-1]
    return ("periodic", prefix, block)


def test_a_zero_drift_estimate_reads_one_period_at_any_depth(monkeypatch):
    """At depth 10**9 a zero-drift periodic point reads at most |prefix| +
    |block| letters, and its estimate is the slow reference's at a depth
    with the same residue mod 2|block| whose head is past the prefix."""
    basis, prefix, block = B2, "ab", "abAB"
    action = DenseLineAction({"a": 1, "b": ROOT2}, basis, basepoint=Fr(1, 3))
    x = BoundaryPoint.periodic(basis, prefix, block)
    read, letters = [], BoundaryPoint.prefix
    monkeypatch.setattr(BoundaryPoint, "prefix", lambda self, k: read.append(k) or letters(self, k))
    est = qmap_estimate(action, x, depth=10**9)
    monkeypatch.undo()
    assert read and max(read) <= len(prefix) + len(block)
    period = 2 * len(block)
    depth = 10**9 % period + 4 * period
    ref = reference_qmap_estimate(action, x, depth=depth)
    assert (est.method, est.depth, ref.method) == ("liminf", 10**9, "liminf")
    assert same(est.point, ref.point) and same(est.certificate, ref.certificate)


def boundary_point(basis, spec):
    if spec[0] == "periodic":
        return BoundaryPoint.periodic(basis, spec[1], spec[2])
    rng = random.Random(spec[1])
    letters = []
    while len(letters) < 300:
        c = rng.choice(basis.letters)
        if not letters or letters[-1] != invert_letter(c):
            letters.append(c)
    # a rotation of the commutator that does not cancel into the walk: zero
    # drift, so every depth of 300 or less walks all the drawn letters
    block = rng.choice([b for b in ("abAB", "bABa", "ABab", "BAba") if b[0] != invert_letter(letters[-1])])
    return BoundaryPoint.periodic(basis, "".join(letters), block)


@st.composite
def line_cases(draw):
    """Weights all-int, rational with mixed denominators, negative, ints
    beside Fractions, or mixed sqrt:/rational (sqrt:8 is 2*sqrt:2, so two radicands may be
    dependent); the action's basepoint and an explicit one (None for the
    action's), with denominators not among the weights'; two boundary
    points, a depth, a head and a fiber tolerance."""
    rank = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["int", "rational", "negative", "int+rational", "mixed"]))

    def rational(lo=-12, hi=12):
        return Fr(draw(st.integers(lo, hi)), draw(st.sampled_from(WEIGHT_DENOMINATORS)))

    if kind == "int":
        weights = [draw(st.integers(-6, 6)) for _ in range(rank)]
    elif kind == "rational":
        weights = [rational() for _ in range(rank)]
    elif kind == "negative":
        weights = [rational(-12, -1) for _ in range(rank)]
    elif kind == "int+rational":
        weights = [rational() for _ in range(rank)]
        for i in draw(st.sets(st.integers(0, rank - 1), min_size=1, max_size=rank - 1)):
            weights[i] = draw(st.integers(-6, 6))
    else:
        weights = [rational() for _ in range(rank)]
        for i in draw(st.sets(st.integers(0, rank - 1), min_size=1)):
            weights[i] = draw(st.sampled_from([1, -1])) * Surd.sqrt(draw(st.sampled_from([2, 3, 5, 7, 8])))

    def basepoint():
        if draw(st.booleans()):
            return draw(st.integers(-5, 5))
        return Fr(draw(st.integers(-40, 40)), draw(st.sampled_from([7, 11, 13, 17])))

    own = basepoint()
    given_bp = None if draw(st.booleans()) else basepoint()
    x, y = draw(boundary_specs(rank)), draw(boundary_specs(rank))
    depth = draw(st.integers(1, 300))
    head = draw(st.one_of(st.none(), st.integers(0, 310)))
    tol = draw(st.sampled_from([0, 1e-6, Fr(1, 3), 2]))
    return weights, own, given_bp, x, y, depth, head, tol


def same(a, b):
    return a == b and format_number(a) == format_number(b)


def same_type(action, basepoint, value) -> bool:
    """Ints when every weight and the basepoint are ints, Fractions when
    some input is a Fraction and the value is rational, Surds for
    irrational values; the ends inf and -inf pass through."""
    if isinstance(value, float):
        return True
    ints = all(type(w) is int for w in action.weights.values()) and type(basepoint) is int
    if ints:
        return type(value) is int
    return type(value) is (Surd if isinstance(value, Surd) else Fr)


def close(a, b) -> bool:
    """A sqrt: value against the float loop's: infinities equal, numbers
    within a relative 1e-9."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(b)))


def float_twin(action, basepoint):
    """The action with every sqrt: weight and the basepoint's irrational
    part as a math.sqrt float: the reference loops then sum in floats."""

    def approx(v):
        return float(v) if isinstance(v, Surd) else v

    weights = {s: approx(w) for s, w in action.weights.items()}
    return DenseLineAction(weights, action.basis, basepoint=approx(basepoint))


@settings(max_examples=150, deadline=None)
@given(line_cases())
@example(([Fr(1, 2), Fr(1, 3)], Fr(1, 7), None, ("periodic", "", "abAB"), ("periodic", "b", "aBAb"), 300, None, 0))
@example(([Fr(-3, 4), Fr(5, 6)], 0, Fr(2, 13), ("periodic", "ab", "ab"), ("random", 7), 120, 0, 1e-6))
@example(([1, 3], 2, None, ("periodic", "", "aabAB"), ("periodic", "", "abAB"), 1, None, 0))
@example(([Fr(1, 2), ROOT2], Fr(3, 11), Fr(-5, 17), ("periodic", "a", "abAB"), ("random", 3), 250, 299, 1e-6))
@example(([Surd.sqrt(3), Fr(2, 9), Fr(-1, 4)], 0, 1, ("random", 11), ("periodic", "", "acAC"), 300, 17, Fr(1, 3)))
@example(([ROOT2, -Surd.sqrt(8)], 0, None, ("periodic", "", "aab"), ("periodic", "a", "aaB"), 200, None, 0))
# an int weight beside a Fraction one: mu of a word with no b is a Fraction
@example(([1, Fr(-2, 3)], 0, None, ("periodic", "aa", "abAB"), ("periodic", "", "a"), 30, None, 0))
# zero block drift, read through the period: depth below |prefix| + |block|
@example(([Fr(1, 2), ROOT2], 0, Fr(1, 3), ("periodic", "ab", "abAB"), ("periodic", "", "aBAb"), 5, None, 1e-6))
# the head inside the prefix, with a part of the block and with all of it
@example(([Fr(1), Fr(-2, 3)], Fr(1, 7), None, ("periodic", "ababab", "abAB"), ("periodic", "b", "aBAb"), 11, 3, 0))
@example(([Fr(1), Fr(-2, 3)], 2, None, ("periodic", "ababababab", "abAB"), ("periodic", "", "abAB"), 19, None, 0))
# a window holding part of a period past the first one
@example(([Fr(-2, 3), Fr(3)], Fr(5, 7), None, ("periodic", "B", "ABab"), ("periodic", "", "abAB"), 8, None, 0))
# the point before the head moves the estimate: a nonzero certificate
@example(([Fr(-2), Fr(6)], Fr(-6, 7), None, ("periodic", "AABB", "AbaBabAB"), ("periodic", "", "aB"), 13, None, 0))
# depth 1 (head 0, no certificate) and depth 2
@example(([ROOT2, Fr(1, 3)], Fr(2, 7), None, ("periodic", "a", "bABa"), ("periodic", "", "ab"), 1, None, 0))
@example(([ROOT2, Fr(1, 3)], Fr(2, 7), None, ("periodic", "a", "bABa"), ("periodic", "", "ab"), 2, None, 0))
# the least point of the block, which is the liminf, comes twice a period
@example(([1, -1], 0, None, ("periodic", "aa", "ababABAB"), ("periodic", "", "abAB"), 40, None, 0))
# four radicands: the code orders the ints only outside a nonzero window
@example(
    (
        [ROOT2, Surd.sqrt(3), Surd.sqrt(5), Surd.sqrt(7)],
        Fr(10**6, 7),
        None,
        ("periodic", "a", "bcdBCD"),
        ("periodic", "", "acAC"),
        40,
        None,
        1e-6,
    )
)
def test_line_action_agrees_with_the_slow_reference(case):
    """Every value equals the reference loops' on the exact weights (term by
    term in Fractions and Surds), with the same types; sqrt: cases also
    agree with the float loops on math.sqrt weights within 1e-9 relative,
    and where those loops take the same decisions."""
    weights, own, given_bp, x_spec, y_spec, depth, head, tol = case
    basis = Basis(len(weights))
    action = DenseLineAction(dict(zip(basis.symbols, weights)), basis, basepoint=own)
    irrational = bool(action.radicands)
    twin = float_twin(action, own) if irrational else None
    x, y = boundary_point(basis, x_spec), boundary_point(basis, y_spec)
    base = own if given_bp is None else given_bp

    est = qmap_estimate(action, x, basepoint=given_bp, depth=depth)
    ref = reference_qmap_estimate(action, x, basepoint=given_bp, depth=depth)
    assert (est.method, est.depth) == (ref.method, ref.depth)
    assert same(est.point, ref.point) and same(est.certificate, ref.certificate)
    if est.method == "liminf":
        assert same_type(action, base, est.point) and same_type(action, base, est.certificate)
    if twin is not None:
        flt = reference_qmap_estimate(twin, x, basepoint=given_bp, depth=depth)
        if flt.method == est.method:
            assert close(est.point, flt.point) and close(est.certificate, flt.certificate)

    # the fold on the orbit's ints at any head, against the fold on the line
    orbit, start, code = _orbit_sequence(action, x, base, depth)
    # a coded line holds only the code's ints, never an end
    assert type(start) is int and {type(p) for p in orbit.take(depth)} == {int}
    res = liminf_from(LineOracle(code), start, orbit, depth, head=head)
    point, cert = reference_fold(reference_orbit(action, x, base, depth), base, head)
    assert same(code.value(res.point), point) and same(code.value(res.certificate), cert)
    assert same_type(action, base, code.value(res.point))
    if twin is not None:
        fpoint, fcert = reference_fold(reference_orbit(twin, x, base, depth), base, head)
        assert close(code.value(res.point), fpoint) and close(code.value(res.certificate), fcert)

    check = q_fiber_check(action, x, y, depth=depth, tol=tol)
    status, residual, first, second = reference_fiber_check(action, x, y, depth, tol)
    assert check.status == status and same(check.residual, residual)
    assert same(check.first.point, first.point) and same(check.second.point, second.point)
    if twin is not None:
        _, fresidual, _, _ = reference_fiber_check(twin, x, y, depth, tol)
        if (first.method, second.method) == (check.first.method, check.second.method):
            assert close(check.residual, fresidual)

    line_length = length_function_from_line_action(action)
    words = [x.prefix(min(depth, 12)), y.prefix(min(depth, 7)) + invert_word(x.prefix(3))]
    words += [spec[2] for spec in (x_spec, y_spec) if spec[0] == "periodic"]
    for w in words:
        mu = reference_mu(action, w)
        assert same(action.mu(w), mu) and type(action.mu(w)) is type(mu)
        if twin is not None:
            assert close(action.mu(w), reference_mu(twin, w))
        if not cyclic_reduce(w):
            with pytest.raises(EmptyWordError):
                action.translation_length(w)
            assert line_length(w) == 0
            continue
        expected = reference_translation_length(action, w)
        assert same(action.translation_length(w), expected)
        assert type(action.translation_length(w)) is type(expected)
        assert same(line_length(w), expected)
        assert line_length.length(abelianization(w, basis)) / Fr(line_length.unit) == expected
