import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rtreelab.boundary import (
    BoundaryFormatError,
    BoundaryPair,
    BoundaryPoint,
    IndistinguishablePointsError,
    act,
    act_pair,
    flip,
    parse_boundary_point,
)
from rtreelab.words import (
    Basis,
    cyclically_reduced_words,
    invert_word,
    reduce_word,
    reduced_words,
)

from helpers import reference_points_equal, reference_prefix

B2 = Basis(2)


def periodic(prefix, block):
    return BoundaryPoint.periodic(B2, prefix, block)


def test_periodic_prefix_generation():
    x = periodic("ab", "ba")
    assert x.prefix(6) == "abbaba"
    assert x.prefix(2) == "ab"


def test_periodic_validation():
    with pytest.raises(BoundaryFormatError):
        periodic("", "aA")  # not reduced
    with pytest.raises(BoundaryFormatError):
        periodic("", "abA")  # not cyclically reduced
    with pytest.raises(BoundaryFormatError):
        periodic("aB", "ba")  # junction cancels
    with pytest.raises(BoundaryFormatError):
        periodic("", "")


def test_every_prefix_is_reduced():
    rng = random.Random(0)
    from rtreelab.words import is_reduced, cyclically_reduced_words

    blocks = cyclically_reduced_words(B2, 4)
    for _ in range(50):
        block = rng.choice(blocks)
        x = periodic("", block)
        assert is_reduced(x.prefix(20))


_PERIODIC_FORMS = st.tuples(
    st.sampled_from([""] + reduced_words(B2, 4)), st.sampled_from(cyclically_reduced_words(B2, 4))
).filter(lambda form: not form[0] or form[0][-1] != invert_word(form[1][0]))


@settings(max_examples=150, deadline=None)
@given(_PERIODIC_FORMS, st.lists(st.integers(0, 30), min_size=1, max_size=6))
@example(("ab", "ba"), [0, 1, 2, 3, 9, 4, 0, 12, 13])
@example(("", "aBAb"), [5, 4, 8, 1])
def test_periodic_prefix_agrees_with_the_letter_by_letter_reference(form, requests):
    """A periodic point's prefixes, sliced from its form, are the letters
    the letter-by-letter reference checks one at a time: at k = 0, inside
    and past the prefix part, over growing and shrinking requests."""
    head, block = form
    x = periodic(head, block)
    letters, cache = head + block * 31, [""]
    for k in [0, len(head) // 2, len(head), len(head) + 1] + requests:
        assert x.prefix(k) == reference_prefix(B2, letters.__getitem__, cache, k)


@st.composite
def _form_pairs(draw):
    """Two periodic forms: drawn apart, or the second a rewriting of the
    first's word (its block repeated and some of its letters unrolled into
    the prefix), so that equal and unequal points both come often."""
    first = draw(_PERIODIC_FORMS)
    if draw(st.booleans()):
        return first, draw(_PERIODIC_FORMS)
    head, block = first
    block *= draw(st.integers(1, 3))
    j = draw(st.integers(0, 2 * len(block)))
    r = j % len(block)
    return first, (head + (block * 3)[:j], block[r:] + block[:r])


@settings(max_examples=300, deadline=None)
@given(_form_pairs())
@example((("ab", "ab"), ("", "ab")))
@example((("", "abab"), ("", "ab")))
@example((("a", "ba"), ("", "ab")))
@example((("b", "ab"), ("", "ab")))
def test_point_equality_and_hash_agree_with_the_prefix_rule(forms):
    """Two periodic points are equal exactly when they agree on |p| + |q| +
    2 lcm(|b|, |c|) letters (forms p;b and q;c), and equal points hash
    alike."""
    x, y = periodic(*forms[0]), periodic(*forms[1])
    equal = reference_points_equal(x, y)
    assert (x == y) is (y == x) is equal
    assert hash(x) == hash(y) or not equal


def test_parse_and_format_round_trip():
    x = parse_boundary_point("ab;ba", B2)
    assert x.prefix(6) == "abbaba"
    assert repr(x) == "ab;ba"
    y = parse_boundary_point(";a", B2)
    assert y.prefix(4) == "aaaa"


# -- act ----------------------------------------------------------------------


def test_act_identity_word():
    x = periodic("", "ab")
    assert act("", x) is x


def test_act_single_cancellation():
    x = periodic("", "A")  # a^-1 a^-1 ...
    y = act("a", x)
    assert y.prefix(5) == "AAAAA"


def test_act_prefix_oracle_identity():
    """act(w, X).prefix(k) equals the reduced concatenation truncated."""
    rng = random.Random(4)
    words = ["a", "Ab", "baB", "AAb", "abab"]
    points = [periodic("", "ab"), periodic("b", "a"), periodic("AA", "ba")]
    for _ in range(60):
        w = rng.choice(words)
        x = rng.choice(points)
        k = rng.randint(1, 12)
        expected = reduce_word(w + x.prefix(k + len(w)))[:k]
        assert act(w, x).prefix(k) == expected


def test_act_composition_agrees_with_product():
    u, v = "ab", "bA"
    x = periodic("", "ba")
    lhs = act(u, act(v, x))
    rhs = act(reduce_word(u + v), x)
    assert lhs.prefix(20) == rhs.prefix(20)


# -- pairs and flip -------------------------------------------------------------


def test_flip_is_involution_and_swaps():
    p = BoundaryPair(periodic("", "a"), periodic("", "b"))
    q = flip(p)
    assert q.x is p.y and q.y is p.x
    r = flip(q)
    assert r.x is p.x and r.y is p.y


def test_pair_rejects_equal_periodic_points():
    with pytest.raises(IndistinguishablePointsError):
        BoundaryPair(periodic("", "ab"), periodic("ab", "ab"))


def test_act_pair_acts_diagonally():
    p = BoundaryPair(periodic("", "a"), periodic("", "b"))
    q = act_pair("ab", p)
    assert q.x.prefix(5) == act("ab", p.x).prefix(5)
    assert q.y.prefix(5) == act("ab", p.y).prefix(5)


def test_inverse_word_boundary_points_differ_immediately():
    for w in ["ab", "aab", "abAB", "b"]:
        x = periodic("", w)
        y = periodic("", invert_word(w))
        assert x.prefix(1) != y.prefix(1)
