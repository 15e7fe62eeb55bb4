import random
from fractions import Fraction as Fr
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

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
from rtreelab.qmap import DenseLineAction
from rtreelab.tree import Location, MetricTree, path_tree
from rtreelab.words import (
    Basis,
    cyclic_reduce,
    cyclically_reduced_words,
    reduce_word,
    reduced_words,
)

from helpers import (
    brute_force_axiom_check,
    brute_force_four_point,
    random_compatible_pair,
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
