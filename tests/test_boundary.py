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
    UnknownSymbolError,
    cyclically_reduced_words,
    invert_word,
    reduce_word,
    reduced_words,
)

from helpers import reference_prefix

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


def test_from_function_detects_cancellation():
    bad = BoundaryPoint.from_function(B2, lambda i: "a" if i % 2 == 0 else "A")
    with pytest.raises(BoundaryFormatError):
        bad.prefix(2)


@pytest.mark.parametrize("output", ["ab", "", None, 1])
def test_from_function_rejects_outputs_that_are_not_one_letter(output):
    x = BoundaryPoint.from_function(B2, lambda i: output)
    for _ in range(2):  # the second call fails the same way
        with pytest.raises(BoundaryFormatError, match="position 0 is not one letter"):
            x.prefix(3)


def test_prefix_errors_name_the_earliest_faulty_position():
    # the cancellation at 6 comes in a later call than the letters before it
    x = BoundaryPoint.from_function(B2, lambda i: "B" if i == 6 else "ab"[i % 2])
    assert x.prefix(3) == "aba"
    with pytest.raises(BoundaryFormatError, match="cancellation at position 6$"):
        x.prefix(8)
    assert x.prefix(6) == "ababab"
    # a cancellation against the last cached letter
    y = BoundaryPoint.from_function(B2, lambda i: "abaA"[i])
    assert y.prefix(3) == "aba"
    with pytest.raises(BoundaryFormatError, match="cancellation at position 3$"):
        y.prefix(4)
    # an unknown symbol before a cancellation, and after one
    with pytest.raises(UnknownSymbolError, match="'x'"):
        BoundaryPoint.from_function(B2, lambda i: "abxzA"[i]).prefix(5)
    with pytest.raises(BoundaryFormatError, match="cancellation at position 3$"):
        BoundaryPoint.from_function(B2, lambda i: "abaAx"[i]).prefix(5)


def test_prefix_stops_calling_the_generator_at_the_first_fault():
    # a finite generator: a call past its end would raise IndexError
    with pytest.raises(BoundaryFormatError, match="cancellation at position 2$"):
        BoundaryPoint.from_function(B2, lambda i: "abB"[i]).prefix(10)
    with pytest.raises(BoundaryFormatError, match="position 1 is not one letter"):
        BoundaryPoint.from_function(B2, lambda i: "a?"[i] * (i + 1)).prefix(10)
    calls = []
    x = BoundaryPoint.from_function(B2, lambda i: calls.append(i) or "aA"[i % 2])
    with pytest.raises(BoundaryFormatError, match="cancellation at position 1$"):
        x.prefix(50)
    assert calls == [0, 1]


_OUTPUTS = st.sampled_from(["a", "b", "A", "B", "x", "ab", ""])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", "A", "B"]), min_size=1, max_size=40),
    st.dictionaries(st.integers(0, 39), _OUTPUTS, max_size=3),
    st.lists(st.integers(0, 45), min_size=1, max_size=5),
)
def test_prefix_agrees_with_the_letter_by_letter_reference(letters, faults, requests):
    """prefix gives every prefix, error type and message that the
    letter-by-letter reference gives, over repeated and growing requests."""

    def fn(i):
        return faults.get(i, letters[i % len(letters)])

    x, cache = BoundaryPoint.from_function(B2, fn), [""]
    for k in requests:
        try:
            expected = reference_prefix(B2, fn, cache, k)
        except ValueError as exc:
            expected = (type(exc), str(exc))
        try:
            got = x.prefix(k)
        except ValueError as exc:
            got = (type(exc), str(exc))
        assert got == expected


_PERIODIC_FORMS = st.tuples(
    st.sampled_from([""] + reduced_words(B2, 4)), st.sampled_from(cyclically_reduced_words(B2, 4))
).filter(lambda form: not form[0] or form[0][-1] != invert_word(form[1][0]))


@settings(max_examples=150, deadline=None)
@given(_PERIODIC_FORMS, st.lists(st.integers(0, 30), min_size=1, max_size=6))
@example(("ab", "ba"), [0, 1, 2, 3, 9, 4, 0, 12, 13])
@example(("", "aBAb"), [5, 4, 8, 1])
def test_periodic_prefix_agrees_with_the_letter_by_letter_reference(form, requests):
    """A periodic point's prefixes, sliced from its form, are the letters a
    checked generator of the same word gives: at k = 0, inside and past
    the prefix part, over growing and shrinking requests."""
    head, block = form
    x = periodic(head, block)
    letters = head + block * 31
    y, cache = BoundaryPoint.from_function(B2, letters.__getitem__), [""]
    for k in [0, len(head) // 2, len(head), len(head) + 1] + requests:
        expected = reference_prefix(B2, letters.__getitem__, cache, k)
        assert x.prefix(k) == y.prefix(k) == expected


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


def test_act_on_programmatic_point():
    x = BoundaryPoint.from_function(B2, lambda i: "a" if i % 2 == 0 else "b")
    y = act("A", x)
    assert y.prefix(5) == reduce_word("A" + x.prefix(6))[:5]


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


def test_pair_distinct_by_depth_for_programmatic():
    x = BoundaryPoint.from_function(B2, lambda i: "a")
    y = BoundaryPoint.from_function(B2, lambda i: "a")
    with pytest.raises(IndistinguishablePointsError):
        BoundaryPair(x, y, distinct_by=16)


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
