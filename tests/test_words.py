import itertools
import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import canonical_rotation, commutator, reference_reduced_words
from rtreelab.qmap import DenseLineAction, line_action_from_weights
from rtreelab.words import (
    Basis,
    _distances_to,
    _keyed_class_representatives,
    _largest_cyclic_word,
    UnknownSymbolError,
    abelianization,
    cyclic_reduce,
    cyclically_reduced_words,
    enumerate_integer_vectors,
    invert_word,
    is_cyclically_reduced,
    is_reduced,
    reduce_word,
    reduced_words,
    word_from_vector,
)

B2 = Basis(2)


def naive_reduce(word: str) -> str:
    """Independent oracle: cancel one adjacent inverse pair per pass until
    a fixpoint is reached."""
    while True:
        for i in range(len(word) - 1):
            if word[i + 1] == invert_word(word[i]):
                word = word[:i] + word[i + 2 :]
                break
        else:
            return word


def test_reduce_cancels_inverse_pair():
    assert reduce_word("aA") == ""
    assert reduce_word("abBa") == "aa"


def test_reduce_matches_naive_fixpoint_reducer():
    rng = random.Random(0)
    letters = B2.letters
    for _ in range(200):
        w = "".join(rng.choice(letters) for _ in range(20))
        assert reduce_word(w, B2) == naive_reduce(w)


@given(st.text(alphabet="abAB", max_size=40))
def test_reduce_idempotent_and_length_nonincreasing(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    assert len(r) <= len(w)
    assert is_reduced(r)


def test_reduce_rejects_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        reduce_word("axb", B2)


def test_invert_word_is_involution():
    assert invert_word("abA") == "aBA"
    assert invert_word(invert_word("abAB")) == "abAB"


def test_cyclic_reduce_strips_conjugating_ends():
    assert cyclic_reduce("abA") == "b"
    assert cyclic_reduce("BabAb") == "b"
    assert is_cyclically_reduced(cyclic_reduce("aabaBAA"))


def test_canonical_rotation_is_minimal_and_invariant():
    assert canonical_rotation("ba") == "ab"
    assert canonical_rotation("bab") == canonical_rotation("abb")


def test_abelianization_counts_signed_letters():
    assert abelianization("aabA", B2) == (1, 1)
    assert abelianization(commutator("a", "b"), B2) == (0, 0)


def test_abelianization_names_the_least_unknown_symbol():
    action = DenseLineAction({"a": 1, "b": 2}, B2)
    for word in ("axb", "abz", "xa", "zyab", "a b", "aé"):
        bad = min(set(word) - set(B2.letters))
        for count in (lambda w: abelianization(w, B2), action.mu):
            with pytest.raises(UnknownSymbolError, match=f"symbol {bad!r} not in basis"):
                count(word)


def test_abelianization_of_basis_words_skips_the_validation(monkeypatch):
    def fail(self, word):
        raise AssertionError(f"validated {word!r}")

    monkeypatch.setattr(Basis, "validate", fail)
    assert abelianization("", B2) == (0, 0)
    assert abelianization("abBBAa", B2) == (1, -1)
    assert DenseLineAction({"a": 1, "b": 2}, B2).mu("aabA") == 3


def test_word_from_vector_realizes_vector_cyclically_reduced():
    for vec in [(3, -2), (0, 5), (-1, 0), (2, 2)]:
        w = word_from_vector(vec, B2)
        assert is_cyclically_reduced(w)
        assert abelianization(w, B2) == vec
        assert len(w) == abs(vec[0]) + abs(vec[1])


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_integer_vectors_are_the_filtered_product_in_lex_order(rank):
    for total in range(6):
        cube = itertools.product(range(-total, total + 1), repeat=rank)
        assert list(enumerate_integer_vectors(rank, total)) == [vec for vec in cube if sum(map(abs, vec)) <= total]


def test_reduced_word_enumeration_counts():
    # rank 2: 4 words of length 1, then each extends by 3 letters
    words1 = reduced_words(B2, 1)
    assert len(words1) == 4
    words3 = reduced_words(B2, 3)
    assert len(words3) == 4 + 12 + 36
    assert all(is_reduced(w) for w in words3)
    assert words3 == sorted(set(words3), key=lambda w: (len(w), w))


# every maxlen up to 7 at rank 2, 5 at rank 3 and 4 at rank 4
RANKS_AND_LENGTHS = [(r, n) for r, top in ((2, 7), (3, 5), (4, 4)) for n in range(top + 1)]


@st.composite
def bases_and_lengths(draw):
    rank, maxlen = draw(st.sampled_from(RANKS_AND_LENGTHS))
    symbols = draw(st.permutations("abcdefghijklmnopqrstuvwxyz"))[:rank]
    return Basis(rank, tuple(symbols)), maxlen


@given(bases_and_lengths())
def test_reduced_words_is_the_sorted_nested_loop(case):
    basis, maxlen = case
    assert reduced_words(basis, maxlen) == reference_reduced_words(basis, maxlen)


def every_class(basis, maxlen):
    """Every class representative and its key: no prenecklace is pruned
    when every key of the box is at distance 0."""
    return _keyed_class_representatives(basis, maxlen, _distances_to(basis, maxlen, lambda vec: True)[1])


@given(bases_and_lengths())
def test_class_representatives_are_the_least_rotations(case):
    basis, maxlen = case
    classes = {
        canonical_rotation(w) for w in reduced_words(basis, maxlen) if is_cyclically_reduced(w)
    }
    assert [w for w, _ in every_class(basis, maxlen)] == sorted(classes, key=lambda w: (len(w), w))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(1, 6),
    st.sampled_from(["1,2,3", "1,sqrt:2,1/3", "sqrt:2,sqrt:3,sqrt:5", "3,-5,7/2"]),
    st.sampled_from([0, 1e-6, Fr(1, 5), 0.3, Fr(3, 2), 4, math.inf]),
)
@example(2, 6, "1,sqrt:2,1/3", Fr(1, 5))
@example(3, 6, "sqrt:2,sqrt:3,sqrt:5", 0.3)
@example(2, 3, "1,2,3", 0)
def test_key_distances_are_the_least_l1_distances_to_a_short_vector(rank, maxlen, weights, epsilon):
    """Over the box |v|_1 <= maxlen, built here from the product of the
    coordinate ranges, each key's distance is the brute-force minimum of
    |v - s|_1 over the short vectors s of the box."""
    action = line_action_from_weights(weights.split(",")[:rank])
    short = action.shorter_than(epsilon)
    base = 2 * maxlen + 1
    box = {
        sum(n * base**k for k, n in enumerate(vec)): vec
        for vec in itertools.product(range(-maxlen, maxlen + 1), repeat=rank)
        if sum(map(abs, vec)) <= maxlen
    }
    targets = [vec for vec in box.values() if short(vec)]
    expected = {
        key: min(sum(abs(n - m) for n, m in zip(vec, s)) for s in targets) for key, vec in box.items()
    } if targets else {}
    got_box, distance = _distances_to(action.basis, maxlen, short)
    assert got_box == box
    assert distance == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6))
@example(4, 6)
@example(2, 1)
def test_two_words_share_a_key_exactly_when_their_abelianizations_agree(rank, maxlen):
    """Over every class representative, key and abelianization determine
    each other.  The words include each generator's powers, whose letter
    count reaches +-maxlen, and words such as A^(maxlen-1)b beside them."""
    basis = Basis(rank)
    by_key, by_vector = {}, {}
    for w, key in every_class(basis, maxlen):
        vector = abelianization(w, basis)
        assert by_key.setdefault(key, vector) == vector, (w, key)
        assert by_vector.setdefault(vector, key) == key, (w, vector)
    extremes = {tuple(n * (i == k) for i in range(rank)) for k in range(rank) for n in (maxlen, -maxlen)}
    assert extremes <= by_vector.keys()
    assert (1 - maxlen, 1) + (0,) * (rank - 2) in by_vector


@st.composite
def tied_vector_sets(draw):
    """A rank of 2-3, a maxlen of 1-6 and a set of vectors of the box
    |v|_1 <= maxlen: empty, a few, or most of the box."""
    rank, maxlen = draw(st.integers(2, 3)), draw(st.integers(1, 6))
    box = sorted(enumerate_integer_vectors(rank, maxlen))
    size = draw(st.sampled_from([0, 1, 2, 5, len(box) // 2, len(box)]))
    return rank, maxlen, set(draw(st.lists(st.sampled_from(box), min_size=size, max_size=size)))


@settings(max_examples=120, deadline=None)
@given(tied_vector_sets())
# the zero vector alone: abAB-type words exist from maxlen 4 on, none below
@example((2, 3, {(0, 0)}))
@example((2, 6, {(0, 0)}))
# dead ends after bb: key (0, -1) at maxlen 5 needs BBB, which cannot follow b,
# and key (1, 0) at maxlen 6 reaches bbaBB, which ends in the inverse of b
@example((2, 5, {(0, -1)}))
@example((2, 6, {(1, 0)}))
@example((3, 6, {(1, -2, 1), (0, 0, 6)}))
@example((3, 2, set()))
def test_largest_cyclic_word_is_the_largest_enumerated_word_of_a_tied_vector(case):
    """The witness search returns the string-largest cyclically reduced word
    of length 1..maxlen whose abelianization lies in the set, as the filter
    over the enumeration finds it, and None when no such word exists."""
    rank, maxlen, tied = case
    basis = Basis(rank)
    words = (w for w in cyclically_reduced_words(basis, maxlen) if abelianization(w, basis) in tied)
    assert _largest_cyclic_word(basis, maxlen, tied) == max(words, default=None)


def test_cyclically_reduced_enumeration_matches_filter():
    words = cyclically_reduced_words(B2, 4)
    assert all(is_cyclically_reduced(w) for w in words)
    assert "abAB" in words
    assert "abA" not in words


@pytest.mark.parametrize("rank", [2, 3])
def test_cyclically_reduced_enumeration_is_the_rescanned_filter(rank):
    basis = Basis(rank)
    for maxlen in range(1, 7):
        expected = [w for w in reduced_words(basis, maxlen) if is_cyclically_reduced(w)]
        assert cyclically_reduced_words(basis, maxlen) == expected


def test_basis_takes_ascii_lowercase_letters_only():
    # the word functions invert by ASCII case: 'é' would pass as reduced
    # against 'É', and 'ß'.upper() is the two letters 'SS'
    for symbols in (("é", "ü"), ("ß", "a"), ("a", "ü")):
        with pytest.raises(ValueError, match="a-z"):
            Basis(2, symbols)
    assert Basis(2, ("x", "y")).letters == ("x", "y", "X", "Y")


def test_basis_requires_rank_at_least_two():
    with pytest.raises(ValueError):
        Basis(1)
