import random
from fractions import Fraction as Fr
from functools import lru_cache, partial
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rtreelab.blend import (
    AxiomWitness,
    BlendRangeError,
    CompatibleMetricPair,
    IncompatiblePairError,
    LengthFunction,
    MarkingError,
    apply_marking,
    blend_length_functions,
    blend_metric,
    certify_rtree,
    convex_combination_length_check,
    length_axiom_check,
    length_function_from_line_action,
    length_function_from_marked_graph,
    length_function_from_table,
    marked_graph_length,
    nielsen_generates,
    _axiom_scan,
    rose_blend_axiom_scan,
)
from rtreelab.hyperbolicity import MetricTable
from rtreelab.qmap import DenseLineAction, line_action_from_weights
from rtreelab.surds import Surd
from rtreelab.tree import Location, MetricTree, path_tree
from rtreelab.words import (
    Basis,
    cyclic_reduce,
    cyclically_reduced_words,
    invert_word,
    reduce_word,
    reduced_product,
    reduced_words,
)

from helpers import (
    brute_force_axiom_check,
    brute_force_four_point,
    random_compatible_pair,
    reference_rose_product_length,
    unit_square_table,
)

B2 = Basis(2)


def simple_pair():
    t0 = path_tree([1, 2], names=["A", "B", "C"])
    t1 = path_tree([3, 1], names=["A", "B", "C"])
    return CompatibleMetricPair(t0, t1)


# -- blending -------------------------------------------------------------------


def test_blend_endpoints_reproduce_inputs():
    pair = simple_pair()
    assert blend_metric(pair, 0).edges == pair.tree0.edges
    assert blend_metric(pair, 1).edges == pair.tree1.edges


def test_blend_midpoint_lengths():
    pair = simple_pair()
    blended = blend_metric(pair, Fr(1, 2))
    assert blended.edge_length("A", "B") == 2
    assert blended.edge_length("B", "C") == Fr(3, 2)


def test_blend_rejects_lambda_outside_unit_interval():
    pair = simple_pair()
    for lam in (-1, Fr(11, 10), 2):
        with pytest.raises(BlendRangeError):
            blend_metric(pair, lam)
        with pytest.raises(BlendRangeError):
            rose_blend_axiom_scan({"a": "a", "b": "ba"}, [Fr(1, 2), lam], maxlen=2)
        rose = length_function_from_marked_graph({"a": "a", "b": "b"}, {"a": 1, "b": 1})
        with pytest.raises(BlendRangeError):
            blend_length_functions(rose, rose, lam)


def test_random_blend_passes_certification_and_brute_force():
    rng = random.Random(1)
    for _ in range(8):
        pair = random_compatible_pair(rng)
        blended = blend_metric(pair, Fr(1, 3))
        table = MetricTable.from_tree(blended)
        result = certify_rtree(table)
        assert result.passes
        ok, _, _ = brute_force_four_point(table, Fr(0))
        assert ok


def test_blend_distances_affine_in_lambda():
    rng = random.Random(9)
    for _ in range(6):
        pair = random_compatible_pair(rng)
        names = pair.tree0.point_names
        for lam in (Fr(0), Fr(1, 4), Fr(2, 5), Fr(1)):
            blended = blend_metric(pair, lam)
            for a, b in combinations(names, 2):
                expected = lam * pair.tree1.distance(a, b) + (1 - lam) * pair.tree0.distance(a, b)
                assert blended.distance(a, b) == expected


def test_blend_centers_are_lambda_invariant():
    rng = random.Random(14)
    for _ in range(6):
        pair = random_compatible_pair(rng)
        names = pair.tree0.point_names
        for lam in (Fr(1, 4), Fr(7, 10)):
            blended = blend_metric(pair, lam)
            for trip in combinations(names, 3):
                c0 = pair.tree0.resolve(pair.tree0.center(*trip))
                c1 = pair.tree1.resolve(pair.tree1.center(*trip))
                cb = blended.resolve(blended.center(*trip))
                if isinstance(c0, str):
                    assert cb == c0 == c1
                else:
                    assert isinstance(cb, Location) and isinstance(c1, Location)
                    assert cb.edge == c0.edge == c1.edge
                    assert cb.offset == lam * c1.offset + (1 - lam) * c0.offset


def gromov_rank(table, quad):
    """(all-equal?, index of the strict max) of the three products at w."""
    p, q, r, w = quad
    vals = [
        table.gromov_product(p, q, w),
        table.gromov_product(p, r, w),
        table.gromov_product(q, r, w),
    ]
    if vals[0] == vals[1] == vals[2]:
        return (True, None)
    return (False, vals.index(max(vals)))


def test_gromov_product_dichotomy_holds_for_pair_and_blend():
    rng = random.Random(23)
    for _ in range(5):
        pair = random_compatible_pair(rng)
        names = pair.tree0.point_names
        if len(names) < 4:
            continue
        blended = blend_metric(pair, Fr(3, 7))
        tables = [MetricTable.from_tree(t) for t in (pair.tree0, pair.tree1, blended)]
        for quad in permutations(names, 4):
            ranks = [gromov_rank(t, quad) for t in tables]
            all_equal = [r[0] for r in ranks]
            if all_equal[0] and all_equal[1]:
                assert all_equal[2]
            elif not all_equal[0] and not all_equal[1]:
                assert ranks[0][1] == ranks[1][1]
                if not all_equal[2]:
                    assert ranks[2][1] == ranks[0][1]


def test_certify_rejects_square_and_accepts_single_edge():
    bad = certify_rtree(unit_square_table())
    assert not bad.passes and bad.verdict.witness is not None
    good = certify_rtree(MetricTable({("a", "b"): 5}))
    assert good.passes and good.realizable


def test_incompatible_pairs_rejected():
    t0 = path_tree([1, 2], names=["A", "B", "C"])
    t1 = path_tree([1, 2], names=["A", "B", "D"])
    with pytest.raises(IncompatiblePairError):
        CompatibleMetricPair(t0, t1)
    t2 = MetricTree([("A", "B", 1), ("B", "C", 2)], [("M", "A", "B", Fr(1, 2))])
    t3 = MetricTree([("A", "B", 1), ("B", "C", 2)], [("M", "B", "C", Fr(1, 2))])
    with pytest.raises(IncompatiblePairError):
        CompatibleMetricPair(t2, t3)


# -- marked roses ------------------------------------------------------------------


def test_marked_graph_length_identity_marking():
    identity = {"a": "a", "b": "b"}
    unit = {"a": 1, "b": 1}
    assert marked_graph_length(identity, unit, "abab") == 4
    assert marked_graph_length(identity, unit, "abA") == 1  # conjugate of b


def test_marked_graph_length_nontrivial_marking():
    marking = {"a": "a", "b": "ba"}
    unit = {"a": 1, "b": 1}
    assert apply_marking(marking, "b") == "ba"
    assert marked_graph_length(marking, unit, "b") == 2


def test_marked_graph_respects_edge_weights():
    identity = {"a": "a", "b": "b"}
    assert marked_graph_length(identity, {"a": Fr(1, 2), "b": 3}, "ab") == Fr(7, 2)


@pytest.mark.parametrize(
    "marking, lengths, message",
    [
        ({"a": "a"}, {"a": 1, "b": 1}, "marking keys ['a'] are not the generators ['a', 'b']"),
        ({"a": "a", "b": "b"}, {"a": 1}, "edge length keys ['a'] are not the generators ['a', 'b']"),
        ({"a": "a", "b": "b"}, {"a": 1, "b": 1, "c": 1}, "edge length keys ['a', 'b', 'c'] are"),
        ({"a": "a", "b": "b"}, {"a": 1, "b": float("nan")}, "edge length of b must be an int, a"),
        ({"a": "a", "b": "b"}, {"a": Surd.sqrt(2), "b": 1}, "edge length of a must be an int, a"),
        # a weight must be positive, or lengths go negative and the norm
        # no longer bounds them
        ({"a": "a", "b": "b"}, {"a": 0, "b": 1}, "edge length of a must be positive, got 0"),
        ({"a": "a", "b": "b"}, {"a": 1, "b": -1}, "edge length of b must be positive, got -1"),
        ({"a": "a", "b": "b"}, {"a": Fr(-1, 2), "b": 1}, "edge length of a must be positive, got -1/2"),
        ({"a": "a", "b": "b"}, {"a": 1, "b": 0.0}, "edge length of b must be positive, got 0.0"),
    ],
)
def test_a_rose_needs_one_exact_weight_and_image_per_generator(marking, lengths, message):
    for build in (length_function_from_marked_graph, partial(marked_graph_length, word="ab")):
        with pytest.raises(MarkingError) as caught:
            build(marking, lengths, basis=B2)
        assert str(caught.value).startswith(message)


def test_nielsen_generation_check():
    assert nielsen_generates({"a": "a", "b": "ba"}, B2)
    assert nielsen_generates({"a": "ab", "b": "b"}, B2)
    assert not nielsen_generates({"a": "ab", "b": "ab"}, B2)
    assert not nielsen_generates({"a": "a", "b": "a"}, B2)
    assert not nielsen_generates({"a": "abAB", "b": "b"}, B2)
    with pytest.raises(MarkingError):
        marked_graph_length({"a": "ab", "b": "ab"}, {"a": 1, "b": 1}, "a")


# -- length functions -----------------------------------------------------------------


def test_convex_combination_zero_when_functions_equal():
    lf = length_function_from_marked_graph({"a": "a", "b": "b"}, {"a": 1, "b": 1})
    words = cyclically_reduced_words(B2, 4)
    for lam in (Fr(0), Fr(1, 3), Fr(1)):
        blend = blend_length_functions(lf, lf, lam)
        assert convex_combination_length_check(lf, lf, blend, lam, words) == 0


def test_proportional_line_actions_blend_exactly():
    mu = DenseLineAction({"a": Fr(1), "b": Fr(3)}, B2)
    mu2 = DenseLineAction({"a": Fr(2), "b": Fr(6)}, B2)
    lf0 = length_function_from_line_action(mu)
    lf1 = length_function_from_line_action(mu2)
    words = cyclically_reduced_words(B2, 6)
    for lam in (Fr(0), Fr(1, 10), Fr(1, 2), Fr(9, 10), Fr(1)):
        blend_action = DenseLineAction(
            {s: lam * mu2.weights[s] + (1 - lam) * mu.weights[s] for s in B2.symbols}, B2
        )
        lf_blend = length_function_from_line_action(blend_action)
        assert convex_combination_length_check(lf0, lf1, lf_blend, lam, words) == 0


def test_length_axioms_pass_for_tree_realized_functions():
    rose = length_function_from_marked_graph({"a": "a", "b": "b"}, {"a": 1, "b": 1})
    verdict = length_axiom_check(rose, reduced_words(B2, 4), B2)
    assert verdict.ok
    line = length_function_from_line_action(DenseLineAction({"a": Fr(1), "b": Fr(3)}, B2))
    assert length_axiom_check(line, reduced_words(B2, 4), B2).ok


def test_squared_length_fails_axioms_with_witness():
    cyclen = length_function_from_marked_graph({"a": "a", "b": "b"}, {"a": 1, "b": 1})
    square = blend_length_functions(cyclen, cyclen, 0)
    squared = type(square)(lambda w: cyclen(w) ** 2, "squared cyclic length")
    verdict = length_axiom_check(squared, reduced_words(B2, 2), B2)
    assert not verdict.ok
    w = verdict.witness
    assert w.kind == "product"
    assert len(w.u) == 1 and w.u == w.v  # a power pair: |u^2| = 4 > 2|u|
    assert w.violates()


def test_axiom_witness_violates_is_replayable():
    witness = AxiomWitness("product", "a", "a", {"uv": 4, "uv_inv": 0, "u": 1, "v": 1})
    assert witness.violates()
    ok = AxiomWitness("product", "a", "b", {"uv": 2, "uv_inv": 2, "u": 1, "v": 1})
    assert not ok.violates()


def test_rose_blend_scan_deterministic_and_endpoint_clean():
    lambdas = [Fr(k, 10) for k in range(11)]
    scan1 = rose_blend_axiom_scan({"a": "a", "b": "ba"}, lambdas, maxlen=3)
    scan2 = rose_blend_axiom_scan({"a": "a", "b": "ba"}, lambdas, maxlen=3)
    assert scan1 == scan2
    assert scan1[0].ok  # lambda=0 is the identity rose: a genuine tree length
    assert scan1[-1].ok  # lambda=1 is the marked rose: a genuine tree length


def test_rose_blend_scan_locates_interior_violations():
    # blend of the identity rose with the a->abb rose: a violation at every
    # interior grid lambda, none at the endpoints.  Hand check of the found
    # witness u=A, v=BAb: blended values are |u| = |v| = 1+2L, |uv| = 4+2L,
    # |uv^-1| = 4, so max > sum reads 4+2L > 2+4L, true exactly for L < 1,
    # and at L = 0 both products are equal (the disjoint-axes escape).
    grid = [Fr(k, 10) for k in range(11)]
    entries = rose_blend_axiom_scan({"a": "abb", "b": "b"}, grid, maxlen=5)
    assert entries[0].ok and entries[-1].ok
    interior = entries[1:-1]
    assert all(not e.ok for e in interior)
    for e in interior:
        assert e.witness.violates()
    assert (interior[0].witness.u, interior[0].witness.v) == ("A", "BAb")
    lam = interior[0].lam
    assert interior[0].witness.values["uv"] == 4 + 2 * lam
    assert interior[0].witness.values["u"] == 1 + 2 * lam


def test_rose_blend_scan_agrees_with_generic_checker():
    lambdas = [Fr(1, 2), Fr(1, 5)]
    scan = rose_blend_axiom_scan({"a": "a", "b": "ba"}, lambdas, maxlen=3)
    lf0 = length_function_from_marked_graph({"a": "a", "b": "b"}, {"a": 1, "b": 1})
    lf1 = length_function_from_marked_graph({"a": "a", "b": "ba"}, {"a": 1, "b": 1})
    words = reduced_words(B2, 3)
    for entry in scan:
        blend = blend_length_functions(lf0, lf1, entry.lam)
        generic = length_axiom_check(blend, words, B2)
        assert generic.ok == entry.ok
        if not entry.ok:
            assert (generic.witness.u, generic.witness.v) == (entry.witness.u, entry.witness.v)


@pytest.mark.parametrize(
    "marking1, lengths0, lengths1, lam, maxlen",
    [
        ({"a": "a", "b": "ba"}, {"a": 1, "b": 1}, {"a": 1, "b": 1}, Fr(1, 3), 4),
        ({"a": "abb", "b": "b"}, {"a": 1, "b": 1}, {"a": 1, "b": 1}, Fr(1, 10), 4),
        ({"a": "abb", "b": "b"}, {"a": 1, "b": 1}, {"a": 1, "b": 1}, Fr(1, 2), 3),
        ({"a": "ab", "b": "b"}, {"a": 2, "b": 1}, {"a": Fr(1, 2), "b": 3}, Fr(9, 10), 4),
        ({"a": "ba", "b": "b"}, {"a": 1, "b": 1}, {"a": 0.1, "b": 0.3}, 0.75, 3),
        ({"a": "a", "b": "ba"}, {"a": 1, "b": 2}, {"a": 1, "b": 1}, Fr(0), 3),
        ({"a": "a", "b": "ba"}, {"a": 1, "b": 2}, {"a": 1, "b": 1}, Fr(1), 3),
    ],
)
def test_a_blend_of_roses_checks_as_its_pairless_evaluator(marking1, lengths0, lengths1, lam, maxlen):
    """A blend of two roses has a norm and a pair kernel, so the axiom check
    skips tight pairs and builds no product word; its verdict and witness
    must be those of the same evaluator with the default word rule."""
    lf0 = length_function_from_marked_graph({"a": "a", "b": "b"}, lengths0, B2)
    lf1 = length_function_from_marked_graph(marking1, lengths1, B2)
    blend = blend_length_functions(lf0, lf1, lam)
    assert blend.norm is not None
    pairless = LengthFunction(blend.evaluator, "pairless")
    assert pairless.norm is None
    words = reduced_words(B2, maxlen)
    assert length_axiom_check(blend, words, B2) == length_axiom_check(pairless, words, B2)
    line = length_function_from_line_action(line_action_from_weights(["1", "3/2"], B2))
    assert blend_length_functions(lf0, line, lam).norm is None


def _cached(evaluator, provenance):
    return LengthFunction(lru_cache(maxsize=None)(evaluator), provenance)


def _rose(marking, lengths=None):
    lf = length_function_from_marked_graph(marking, lengths or {"a": 1, "b": 1}, B2)
    return _cached(lf.evaluator, lf.provenance)


_IDENTITY = _rose({"a": "a", "b": "b"})
AXIOM_FUNCTIONS = {
    "identity rose": _IDENTITY,
    "rose a->abb": _rose({"a": "abb", "b": "b"}),
    "rose b->ba": _rose({"a": "a", "b": "ba"}),
    "rose a->ab, weights 1/2, 3": _rose({"a": "ab", "b": "b"}, {"a": Fr(1, 2), "b": 3}),
    "squared length": _cached(lambda w: _IDENTITY(w) ** 2, "squared"),
    # a counts twice and A once: |a| = 2 but |A| = 1
    "not inversion-invariant": _cached(
        lambda w: _IDENTITY(w) + cyclic_reduce(w).count("a"), "lowercase a weighted"
    ),
    # reduced (not cyclically reduced) length: |aba^-1| = 3 but |b| = 1
    "not conjugation-invariant": _cached(lambda w: Fr(len(reduce_word(w))), "word length"),
}
AXIOM_LAMBDAS = [
    *(Fr(0), Fr(1, 10), Fr(1, 3), Fr(1, 2), Fr(9, 10), Fr(1)),
    *(0.0, 0.1, 0.3, 1 / 3, 0.75, 1.0),
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(AXIOM_FUNCTIONS)),
    st.sampled_from(sorted(AXIOM_FUNCTIONS)),
    st.lists(st.sampled_from(AXIOM_LAMBDAS), min_size=1, max_size=4),
    st.integers(1, 3),
)
@example("identity rose", "not inversion-invariant", [Fr(0), 0.1, Fr(1, 2), 1.0], 3)
@example("identity rose", "not conjugation-invariant", [Fr(1, 3), 0.3], 2)
@example("identity rose", "rose a->abb", [Fr(1, 10), 0.1, Fr(1)], 4)
@example("rose b->ba", "rose a->ab, weights 1/2, 3", [Fr(0), Fr(9, 10), 0.75], 4)
@example("squared length", "rose b->ba", [0.75, Fr(0)], 3)
# lam = 0.3 is taken at its binary value: |AB| = 0.3*2 + 0.7*4 equals
# |A| + |B| = (0.3*1 + 0.7*3) + (0.3*1 + 0.7*1); in floats the sum rounds below
@example("rose a->abb", "identity rose", [Fr(1, 3), 0.3], 1)
def test_axiom_scan_agrees_with_the_slow_reference(name0, name1, grid, maxlen):
    """The integer grid kernel, run on lf0 and lf1, against the literal
    scan of each blend lam*lf1 + (1-lam)*lf0 on raw values, and
    length_axiom_check on that blend against the same reference."""
    lf0, lf1 = AXIOM_FUNCTIONS[name0], AXIOM_FUNCTIONS[name1]
    words = reduced_words(B2, maxlen)
    entries = _axiom_scan(lf0, lf1, grid, words, B2, None)
    assert len(entries) == len(grid)
    for lam, entry in zip(grid, entries):
        blend = blend_length_functions(lf0, lf1, lam)
        expected = brute_force_axiom_check(blend, words, B2)
        assert entry.lam == lam
        assert (entry.ok, entry.witness) == (expected.ok, expected.witness)
        assert length_axiom_check(blend, words, B2) == expected
        if not entry.ok:
            assert entry.witness.violates()


def test_float_lambda_blend_of_roses_passes():
    # in floats |AB| = 0.3*2 + 0.7*4 = 3.4 reads above |A| + |B| =
    # 2.3999999999999995 + 1.0; at the binary value of 0.3 the two are equal
    identity, abb = AXIOM_FUNCTIONS["identity rose"], AXIOM_FUNCTIONS["rose a->abb"]
    blend = blend_length_functions(abb, identity, 0.3)
    assert length_axiom_check(blend, reduced_words(B2, 1), B2).ok
    scan = rose_blend_axiom_scan({"a": "abb", "b": "b"}, [0.3, 0.7], maxlen=1)
    assert [entry.ok for entry in scan] == [True, True]


def test_axiom_scan_reports_inversion_and_conjugation_witnesses():
    # words in (length, lex) order start A, B, a, b; letters conjugate in
    # the order a, b, A, B
    words = reduced_words(B2, 2)
    lopsided = AXIOM_FUNCTIONS["not inversion-invariant"]
    verdict = length_axiom_check(lopsided, words, B2)
    assert verdict.witness == AxiomWitness("inversion", "A", None, {"u": 1, "u_inv": 2})
    unconjugated = AXIOM_FUNCTIONS["not conjugation-invariant"]
    verdict = length_axiom_check(unconjugated, words, B2)
    assert verdict.witness == AxiomWitness("conjugation", "A", "b", {"u": 1, "conjugated": 3})
    # per lambda: the blends of the identity rose with the lopsided function
    # break inversion invariance at every lambda but 0
    entries = _axiom_scan(_IDENTITY, lopsided, [Fr(0), Fr(1, 2), 0.25], words, B2, None)
    assert entries[0].ok and entries[0].witness is None
    assert [e.witness.kind for e in entries[1:]] == ["inversion", "inversion"]
    assert entries[1].witness.values == {"u": 1, "u_inv": Fr(3, 2)}
    assert entries[2].witness.values == {"u": 1.0, "u_inv": 1.25}


def test_axiom_check_finds_a_violation_through_uv_inverse_alone():
    # |ab| = |a| + |b| but |aB| exceeds it; with no b^-1 among the words the
    # pair (a, B) is never scanned, so only uv^-1 of the pair (a, b) shows it
    table = {"": 0, "a": 1, "A": 1, "b": 1, "B": 1, "aa": 2, "ab": 2, "aB": 3, "bb": 2}
    lf = length_function_from_table(table)
    verdict = length_axiom_check(lf, ["a", "b"], B2, conjugators=[])
    assert verdict == brute_force_axiom_check(lf, ["a", "b"], B2, conjugators=[])
    values = {"uv": 2, "uv_inv": 3, "u": 1, "v": 1}
    assert verdict.witness == AxiomWitness("product", "a", "b", values)


def test_length_function_from_table():
    lf = length_function_from_table({"a": Fr(2), "b": 1})
    assert lf("a") == 2
    with pytest.raises(KeyError):
        lf("ab")


# -- per-word states -------------------------------------------------------------


def _nielsen_marking(moves) -> dict:
    """The identity marking after Nielsen moves (i, right, inverse): image i
    times image 1-i (or its inverse) on the right, else on the left."""
    images = ["a", "b"]
    for i, right, inverse in moves:
        other = invert_word(images[1 - i]) if inverse else images[1 - i]
        images[i] = reduce_word(images[i] + other if right else other + images[i])
    return dict(zip("ab", images))


_MARKINGS = st.lists(st.tuples(st.integers(0, 1), st.booleans(), st.booleans()), max_size=4).map(
    _nielsen_marking
)
_ROSE_WEIGHTS = st.one_of(
    st.integers(1, 3).map(lambda w: {"a": w, "b": w}),
    st.fixed_dictionaries({s: st.integers(1, 5) for s in "ab"}),
    st.fixed_dictionaries(
        {s: st.fractions(Fr(1, 5), 4, max_denominator=6).filter(bool) for s in "ab"}
    ),
    # floats are taken at their binary value
    st.fixed_dictionaries({s: st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 2.5, 1]) for s in "ab"}),
)
_LINE_WEIGHT = st.one_of(
    st.integers(-5, 5).map(str),
    st.fractions(-4, 4, max_denominator=7).map(str),
    st.integers(2, 12).map(lambda n: f"sqrt:{n}"),
)
_WORDS = st.lists(st.sampled_from("abAB"), max_size=9).map(lambda cs: reduce_word("".join(cs)))


def _rose_from(marking, weights):
    assume(nielsen_generates(marking, B2))
    return length_function_from_marked_graph(marking, weights, B2)


_CLASS_FUNCTIONS = st.deferred(
    lambda: st.one_of(
        st.builds(_rose_from, _MARKINGS, _ROSE_WEIGHTS),
        st.lists(_LINE_WEIGHT, min_size=2, max_size=2).map(
            lambda texts: length_function_from_line_action(line_action_from_weights(texts, B2))
        ),
        st.builds(
            blend_length_functions,
            _CLASS_FUNCTIONS,
            _CLASS_FUNCTIONS,
            st.sampled_from([Fr(0), Fr(2, 7), Fr(1, 2), 0.3, Fr(1)]),
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(_CLASS_FUNCTIONS, _WORDS, _WORDS)
@example(length_function_from_marked_graph({"a": "a", "b": "b"}, {"a": 1, "b": 1}), "ab", "BA")
@example(
    length_function_from_marked_graph({"a": "abb", "b": "b"}, {"a": Fr(1, 2), "b": 3}), "A", "BAb"
)
@example(
    length_function_from_line_action(line_action_from_weights(["1", "sqrt:2"], B2)), "abb", "Ba"
)
def test_state_products_agree_with_evaluating_the_product_word(lf, u, v):
    """For roses, line actions and their blends, the length of a product of
    states over the unit is the evaluator's value at the reduced product
    word."""
    assert lf.class_function
    su = lf.state(u)
    assert lf.length(su) / Fr(lf.unit) == lf(u)
    for w in (v, invert_word(v)):
        product = lf.length(lf.product(su, lf.state(w))) / Fr(lf.unit)
        assert product == lf(reduced_product(u, w))


@settings(max_examples=200, deadline=None)
@given(_MARKINGS, _ROSE_WEIGHTS, _WORDS)
@example({"a": "a", "b": "b"}, {"a": 0.1, "b": 0.2}, "ab")
def test_rose_length_is_the_weighted_length_of_the_cyclic_core(marking, weights, word):
    """The rose length is the weighted letter count of the cyclically
    reduced marking image, each weight taken at its exact value (a float
    at its binary value)."""
    assume(nielsen_generates(marking, B2))
    image = cyclic_reduce(apply_marking(marking, word))
    as_fractions = {s: Fr(w) for s, w in weights.items()}
    expected = sum((as_fractions[c.lower()] for c in image), Fr(0))
    assert marked_graph_length(marking, weights, word, B2) == expected
    assert marked_graph_length(marking, as_fractions, word, B2) == expected


_KERNEL_WEIGHTS = {
    "int": st.integers(1, 5),
    "fraction": st.fractions(Fr(1, 5), 4, max_denominator=6).filter(bool),
    "float": st.sampled_from([0.1, 0.3, 1 / 3, 2.5, 1.0]),
}


@st.composite
def _kernel_cases(draw):
    """A basis of rank 2 or 3, equal or unequal weights of one kind, and two
    reduced words x and y.  y is a word z between two parts drawn from the
    inverses of x, of a suffix of x and of a prefix of x, so x*y often
    cancels at the junction, at the outer ends or completely."""
    basis = Basis(draw(st.sampled_from([2, 3])))
    weight = _KERNEL_WEIGHTS[draw(st.sampled_from(sorted(_KERNEL_WEIGHTS)))]
    if draw(st.booleans()):
        weights = dict.fromkeys(basis.symbols, draw(weight))
    else:
        weights = {s: draw(weight) for s in basis.symbols}
    word = st.lists(st.sampled_from(basis.letters), max_size=8).map(lambda cs: reduce_word("".join(cs)))
    x, z = draw(word), draw(word)
    k = draw(st.integers(0, len(x)))
    parts = st.sampled_from(["", invert_word(x), invert_word(x[k:]), invert_word(x[:k])])
    return basis, weights, x, reduce_word(draw(parts) + z + draw(parts))


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
@example((B2, {"a": 1, "b": 1}, "", ""))
@example((B2, {"a": 1, "b": 2}, "aB", "bA"))  # cancels completely at the junction
@example((B2, {"a": 0.1, "b": 0.3}, "ab", "aBA"))  # the outer ends cancel to the core a
# Ab cancels at the junction, then c at the outer ends: the core is b
@example((Basis(3), {"a": Fr(1, 2), "b": 3, "c": 1}, "cAb", "BabC"))
def test_rose_pair_kernel_agrees_with_the_slow_reference(case):
    """The rose's pair of two states is the weighted length of the cyclic
    reduction of the product word, and so is the length of their product;
    the length of a state is the pair with the empty word."""
    basis, weights, x, y = case
    identity = {s: s for s in basis.symbols}
    lf = length_function_from_marked_graph(identity, weights, basis)
    sx, sy = lf.state(x), lf.state(y)
    assert Fr(lf.pair(sx, sy), lf.unit) == reference_rose_product_length(x, y, weights)
    assert lf.pair(sx, sy) == lf.length(lf.product(sx, sy))
    assert Fr(lf.length(sx), lf.unit) == reference_rose_product_length(x, "", weights)


def test_a_float_weight_rose_is_its_exact_twin():
    # each weight is taken at its binary value: summed in floats, |ab| was
    # 0.30000000000000004 and the scan at lambda 1/3 found a false violation
    floats = {"a": 0.1, "b": 0.2}
    exact = {s: Fr(w) for s, w in floats.items()}
    identity = {"a": "a", "b": "b"}
    assert marked_graph_length(identity, floats, "ab", B2) == Fr(0.1) + Fr(0.2)
    marking, words, grid = {"a": "a", "b": "ba"}, reduced_words(B2, 3), [Fr(1, 3), 0.3, Fr(1, 2)]
    for lam in grid:
        blends = [
            blend_length_functions(
                length_function_from_marked_graph(identity, lengths, B2),
                length_function_from_marked_graph(marking, lengths, B2),
                lam,
            )
            for lengths in (floats, exact)
        ]
        assert [blends[0](w) for w in words] == [blends[1](w) for w in words]
    scans = [
        rose_blend_axiom_scan(marking, grid, 3, B2, lengths0=lengths, lengths1=lengths)
        for lengths in ({"a": 0.1, "b": 0.1}, {"a": Fr(0.1), "b": Fr(0.1)})
    ]
    assert scans[0] == scans[1] and all(entry.ok for entry in scans[1])


def test_only_constructed_functions_are_class_functions():
    table = length_function_from_table({"a": 1, "A": 1})
    callable_lf = LengthFunction(lambda w: len(w), "word length")
    rose = length_function_from_marked_graph({"a": "a", "b": "ba"}, {"a": 1, "b": 1})
    assert not table.class_function and not callable_lf.class_function
    assert not blend_length_functions(rose, callable_lf, Fr(1, 2)).class_function
    assert blend_length_functions(rose, rose, Fr(1, 2)).class_function
    assert callable_lf.state("ab") == "ab" and callable_lf.unit == 1
    assert callable_lf.length("ab") == callable_lf("ab")


def test_a_table_that_is_no_class_function_gets_every_pair():
    # inversion-invariant on a, A, b, B, but |ab| = 3 while its conjugate
    # |ba| = 2: only the pair (a, b) violates, and a scan that took only the
    # words before their inverses (A, B) would miss it
    table = dict.fromkeys(["AA", "aa", "BB", "bb", "AB", "Ab", "BA", "Ba", "aB", "ba", "bA"], 2)
    table |= {"": 0, "a": 1, "A": 1, "b": 1, "B": 1, "ab": 3}
    lf = length_function_from_table(table)
    words = ["a", "A", "b", "B"]
    verdict = length_axiom_check(lf, words, B2, conjugators=[])
    assert verdict == brute_force_axiom_check(lf, words, B2, conjugators=[])
    values = {"uv": 3, "uv_inv": 2, "u": 1, "v": 1}
    assert verdict.witness == AxiomWitness("product", "a", "b", values)
    # nor does a blend of it with a rose, at any lambda where it counts
    rose = length_function_from_marked_graph({"a": "a", "b": "b"}, {"a": 1, "b": 1}, B2)
    (entry,) = _axiom_scan(rose, lf, [Fr(1)], ["A", "B", "a", "b"], B2, [])
    assert entry.witness == verdict.witness


@settings(max_examples=30, deadline=None)
@given(
    _MARKINGS,
    _MARKINGS,
    _ROSE_WEIGHTS,
    _ROSE_WEIGHTS,
    st.lists(st.sampled_from(AXIOM_LAMBDAS), min_size=1, max_size=3),
    st.integers(1, 3),
)
@example({"a": "abb", "b": "b"}, {"a": "a", "b": "b"}, {"a": 1, "b": 1}, {"a": 1, "b": 1},
         [Fr(0), Fr(1, 10), 0.3, Fr(1)], 4)
@example({"a": "ab", "b": "b"}, {"a": "a", "b": "ba"}, {"a": 2, "b": 1}, {"a": Fr(1, 2), "b": 3},
         [Fr(1, 3), Fr(9, 10)], 4)
# summed in floats, the blend at 1/3 has |uv| = 0.7000000000000002 above |u| + |v| for
# u = AAB, v = ABB; at the weights' binary value the two are equal
@example({"a": "a", "b": "ba"}, {"a": "a", "b": "b"}, {"a": 0.1, "b": 0.1}, {"a": 0.1, "b": 0.1},
         [Fr(1, 3)], 3)
# most pairs are of two tight words, whose images are cyclically reduced
@example({"a": "ba", "b": "b"}, {"a": "a", "b": "b"}, {"a": 1, "b": 1}, {"a": 1, "b": 1},
         [Fr(1, 3), 0.75], 4)
# rank 3: violations at lambda 1/3 and 1/2 (u = A, v = CBc)
@example({"a": "ac", "b": "ba", "c": "c"}, {"a": "a", "b": "b", "c": "c"},
         dict.fromkeys("abc", 1), dict.fromkeys("abc", 1), [Fr(0), Fr(1, 3), Fr(1, 2)], 3)
# rank 3, no violation
@example({"a": "ab", "b": "b", "c": "c"}, {"a": "a", "b": "b", "c": "c"},
         {"a": 2, "b": Fr(1, 2), "c": 1}, {"a": 1, "b": 2, "c": Fr(1, 3)}, [Fr(1, 3), 0.75], 2)
def test_symmetric_rose_scan_agrees_with_the_slow_reference(
    marking1, marking0, lengths1, lengths0, grid, maxlen
):
    """Rose functions are class functions, so the scan skips the invariance
    stage, takes the pairs of words that precede their inverses only and
    skips the pairs of two tight words; per lambda it must still find the
    slow reference's first witness on the blend, and so must
    length_axiom_check on the blend (a class function too) and on the rose
    lf1 alone; and so must the scan of lf0 blended with a rational line
    action, which has no norm, at the first lambda."""
    basis = Basis(len(marking1))
    assume(nielsen_generates(marking1, basis) and nielsen_generates(marking0, basis))
    entries = rose_blend_axiom_scan(
        marking1, grid, maxlen, basis, marking0=marking0, lengths0=lengths0, lengths1=lengths1
    )
    lf0 = length_function_from_marked_graph(marking0, lengths0, basis)
    lf1 = length_function_from_marked_graph(marking1, lengths1, basis)
    words = reduced_words(basis, maxlen)
    for lam, entry in zip(grid, entries):
        blend = blend_length_functions(lf0, lf1, lam)
        expected = brute_force_axiom_check(blend, words, basis)
        assert (entry.ok, entry.witness) == (expected.ok, expected.witness)
        assert length_axiom_check(blend, words, basis) == expected
    assert length_axiom_check(lf1, words, basis) == brute_force_axiom_check(lf1, words, basis)
    line = length_function_from_line_action(line_action_from_weights(["1", "-1/2", "2"][: basis.rank], basis))
    (entry,) = _axiom_scan(lf0, line, grid[:1], words, basis, None)
    expected = brute_force_axiom_check(blend_length_functions(lf0, line, grid[0]), words, basis)
    assert (entry.ok, entry.witness) == (expected.ok, expected.witness)
