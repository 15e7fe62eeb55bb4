"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers.  Exact arithmetic throughout unless a tolerance is
stated.
"""
import math
import random
import time
from fractions import Fraction as Fr
from itertools import combinations, product

from rtreelab.blend import (
    CompatibleMetricPair,
    blend_metric,
    certify_rtree,
    convex_combination_length_check,
    length_axiom_check,
    length_function_from_line_action,
    length_function_from_marked_graph,
    rose_blend_axiom_scan,
)
from rtreelab.boundary import BoundaryPoint, flip
from rtreelab.hyperbolicity import MetricTable, check_hyperbolic, reconstruct_tree, verify_witness
from rtreelab.observers import (
    Direction,
    PointSequence,
    converges_obs,
    liminf_from,
    same_direction,
    subbasis_from_sample,
)
from rtreelab.oracles import FiniteTreeOracle, MultipodOracle
from rtreelab.qmap import (
    DenseLineAction,
    dual_lamination_sample,
    min_positive_translation,
    q_fiber_check,
    small_words_search,
)
from rtreelab.surds import Surd
from rtreelab.tree import Location, MetricTree, path_tree, star_tree
from rtreelab.words import (
    Basis,
    abelianization,
    cyclically_reduced_words,
    invert_word,
    reduced_words,
)

from helpers import (
    random_compatible_pair,
    random_cycle_table,
    random_tree,
    wandering_then_constant,
)

B2 = Basis(2)
SQRT2 = math.sqrt(2)
ROOT2 = Surd.sqrt(2)


def test_criterion_01_four_point_soundness():
    """1000 random trees pass at delta=0 exactly; 100 cycle metrics fail
    with a verified witness; under 10 seconds."""
    start = time.monotonic()
    rng = random.Random(0)
    for _ in range(1000):
        tree = random_tree(rng, 12)
        table = MetricTable.from_tree(tree, tree.vertices)
        assert check_hyperbolic(table, 0).passes
    for _ in range(100):
        table = random_cycle_table(rng)
        verdict = check_hyperbolic(table, 0)
        assert not verdict.passes
        assert verify_witness(table, verdict.witness, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"ACCEPTANCE 1: PASS (1000 trees pass, 100 cycles fail verified, {elapsed:.2f}s)")


def fixture_trees():
    return [
        path_tree([1, 2], names=["A", "B", "C"]),
        star_tree({"x": 1, "y": 2, "z": 3}, hub="H"),
        star_tree({"x": 1, "y": 1, "z": 1}, hub="H"),
        MetricTree(
            [("A", "B", 2), ("B", "C", 1), ("B", "D", 3)],
            [("M", "B", "D", 1), ("N", "A", "B", Fr(1, 2))],
        ),
        MetricTree(
            [("H", "x", 1), ("H", "y", 2), ("H", "z", 3)],
            [("M", "H", "x", Fr(1, 2))],
        ),
        MetricTree(
            [("r", "a", Fr(3, 2)), ("r", "b", Fr(5, 3)), ("a", "c", 1), ("a", "d", 2)],
            [("P", "a", "c", Fr(1, 3))],
        ),
    ]


def test_criterion_02_center_condition_exhaustive():
    """center_condition agrees with the double-center comparison on every
    quadruple of every fixture tree (exact arithmetic)."""
    total = 0
    for tree in fixture_trees():
        names = tree.point_names
        assert len(names) <= 8
        for w, p, q, r in product(names, repeat=4):
            direct = tree.same_point(tree.center(p, q, r), tree.center(w, p, q))
            assert tree.center_condition(w, p, q, r) == direct
            total += 1
    print(f"ACCEPTANCE 2: PASS ({total} quadruples, zero deviation)")


def test_criterion_03_reconstruction_round_trip():
    """reconstruct_tree reproduces all pairwise distances exactly on 500
    random 0-hyperbolic tables with at most 10 points."""
    rng = random.Random(1)
    for _ in range(500):
        source = random_tree(rng, 10)
        table = MetricTable.from_tree(source, source.vertices)
        rebuilt = reconstruct_tree(table)
        for x, y in combinations(table.points, 2):
            assert rebuilt.distance(x, y) == table.distance(x, y)
    print("ACCEPTANCE 3: PASS (500 tables, exact round trip)")


def test_criterion_04_observers_convergence_vs_metric():
    """On the 100-arm multipod the turning sequence converges to the hub in
    the observers' sense (midpoint subbasis, depth 100) while metric
    convergence fails at arm offset 1."""
    pod = MultipodOracle(100)
    depth = 100
    seq = PointSequence([(n, 1) for n in range(depth)])
    sample = ["hub"] + [(i, 1) for i in range(11)]
    probes = subbasis_from_sample(pod, sample, k=12)
    containing_hub = [
        d for d in probes if not pod.points_equal(d.base, "hub") and
        not pod.points_equal(pod.center(d.base, d.representative, "hub"), d.base)
    ]
    assert containing_hub, "the subbasis must actually probe the hub"
    verdict = converges_obs(pod, seq, "hub", probes, depth)
    assert verdict.consistent
    distances = [pod.distance(seq.point(n), "hub") for n in range(depth)]
    assert min(distances[depth // 2 :]) == 1  # stays at distance 1: no metric limit
    # and the same probes refute any tip as a limit
    refuted = converges_obs(pod, seq, (5, 1), probes, depth)
    assert not refuted.consistent
    print(
        f"ACCEPTANCE 4: PASS ({len(probes)} probes, observers-converges to hub,"
        " metric distance stays 1)"
    )


def test_criterion_05_liminf_basepoint_independence():
    """200 certified-convergent sequences in random finite trees: the
    inferior limit is the same point from every named basepoint, exactly."""
    rng = random.Random(2)
    checked = 0
    while checked < 200:
        tree = random_tree(rng, 8)
        oracle = FiniteTreeOracle(tree)
        fn, target = wandering_then_constant(rng, tree, prefix_len=rng.randint(0, 6))
        seq = PointSequence(fn)
        depth = 20
        probes = []
        for p in tree.point_names:
            for q in tree.point_names:
                if not tree.same_point(p, q):
                    d = Direction(p, q)
                    if not any(same_direction(oracle, d, d2) for d2 in probes):
                        probes.append(d)
        verdict = converges_obs(oracle, seq, target, probes, depth)
        assert verdict.consistent
        limits = set()
        for q in tree.point_names:
            res = liminf_from(oracle, q, seq, depth)
            assert res.certificate == 0
            limits.add(tree.resolve(res.point))
        assert limits == {tree.resolve(target)}
        checked += 1
    print("ACCEPTANCE 5: PASS (200 certified sequences, exact basepoint independence)")


def test_criterion_06_blend_certification():
    """200 random compatible pairs, lambda grid 0..1 step 1/10: every blend
    passes full certification, centers are lambda-invariant on all named
    triples, and distances are affine in lambda, all exactly; under 60 s."""
    start = time.monotonic()
    rng = random.Random(3)
    grid = [Fr(k, 10) for k in range(11)]
    for _ in range(200):
        pair = random_compatible_pair(rng)
        names = pair.tree0.point_names
        centers0 = {t: pair.tree0.resolve(pair.tree0.center(*t)) for t in combinations(names, 3)}
        centers1 = {t: pair.tree1.resolve(pair.tree1.center(*t)) for t in combinations(names, 3)}
        for lam in grid:
            blended = blend_metric(pair, lam)
            assert certify_rtree(MetricTable.from_tree(blended, names)).passes
            for a, b in combinations(names, 2):
                expected = lam * pair.tree1.distance(a, b) + (1 - lam) * pair.tree0.distance(a, b)
                assert blended.distance(a, b) == expected
            for t in combinations(names, 3):
                cb = blended.resolve(blended.center(*t))
                c0, c1 = centers0[t], centers1[t]
                if isinstance(c0, str):
                    assert cb == c0 == c1
                else:
                    assert cb.edge == c0.edge == c1.edge
                    assert cb.offset == lam * c1.offset + (1 - lam) * c0.offset
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"ACCEPTANCE 6: PASS (200 pairs x 11 lambdas, exact, {elapsed:.2f}s)")


def test_criterion_07_translation_length_linearity():
    """Proportional line actions mu and 2*mu: the blend's length function is
    exactly the affine combination on every cyclically reduced word of
    length at most 10."""
    from functools import lru_cache

    mu = DenseLineAction({"a": Fr(1), "b": Fr(3)}, B2)
    mu2 = DenseLineAction({"a": Fr(2), "b": Fr(6)}, B2)
    lf0_raw = length_function_from_line_action(mu)
    lf1_raw = length_function_from_line_action(mu2)
    lf0 = type(lf0_raw)(lru_cache(maxsize=None)(lf0_raw.evaluator), lf0_raw.provenance)
    lf1 = type(lf1_raw)(lru_cache(maxsize=None)(lf1_raw.evaluator), lf1_raw.provenance)
    words = cyclically_reduced_words(B2, 10)
    # the affine identity needs sign agreement: |lam*m1 + (1-lam)*m0| splits
    # into lam*|m1| + (1-lam)*|m0| exactly when m0 and m1 share a sign, and
    # proportional actions guarantee it; verified exhaustively
    for w in words:
        assert mu2.mu(w) == 2 * mu.mu(w)
    lambdas = [Fr(0), Fr(1, 10), Fr(1, 2), Fr(9, 10), Fr(1)]
    worst = Fr(0)
    for lam in lambdas:
        blend_action = DenseLineAction(
            {s: lam * mu2.weights[s] + (1 - lam) * mu.weights[s] for s in B2.symbols}, B2
        )
        lf_blend = length_function_from_line_action(blend_action)
        deviation = convex_combination_length_check(lf0, lf1, lf_blend, lam, words)
        worst = max(worst, deviation)
        assert deviation == 0
    print(
        f"ACCEPTANCE 7: PASS ({len(words)} words x {len(lambdas)} lambdas,"
        f" deviation exactly {worst})"
    )


def test_criterion_08_non_convexity_harness():
    """The lambda-grid axiom scan over the identity rose against the
    a->a, b->ba rose terminates, reports one line per lambda, is
    deterministic, and any witness replays from its own numbers."""
    grid = [Fr(k, 10) for k in range(11)]
    entries = rose_blend_axiom_scan({"a": "a", "b": "ba"}, grid, maxlen=6)
    assert [e.lam for e in entries] == grid
    report = []
    for e in entries:
        if e.ok:
            report.append(f"lambda {e.lam}: no violation found (words <= 6)")
        else:
            assert e.witness.violates()
            report.append(f"lambda {e.lam}: witness u={e.witness.u} v={e.witness.v}")
    # endpoints are genuine tree length functions
    assert entries[0].ok and entries[-1].ok
    # deterministic: a second run at smaller budget agrees with itself and
    # with the generic checker
    again = rose_blend_axiom_scan({"a": "a", "b": "ba"}, grid, maxlen=5)
    again2 = rose_blend_axiom_scan({"a": "a", "b": "ba"}, grid, maxlen=5)
    assert again == again2
    lf0 = length_function_from_marked_graph({"a": "a", "b": "b"}, {"a": 1, "b": 1})
    verdict = length_axiom_check(lf0, reduced_words(B2, 6), B2)
    assert verdict.ok  # rose with identity marking passes at words <= 6
    found = sum(not e.ok for e in entries)
    for line in report:
        print("  " + line)
    print(f"ACCEPTANCE 8: PASS (scan of 11 lambdas, {found} violations located, replayable)")


def continued_fraction_best(limit_sum: int):
    """Independent oracle: minimal |p - q*sqrt2| over integers with
    0 < |p| + |q| <= limit_sum, by direct scan, plus the convergent
    recurrence p' = 2p + p_prev, q' = 2q + q_prev for cross-reference."""
    best = None
    for q in range(0, limit_sum + 1):
        for p in range(-(limit_sum - q), limit_sum - q + 1):
            if p == 0 and q == 0:
                continue
            value = abs(p - q * SQRT2)
            if best is None or value < best[0]:
                best = (value, p, q)
    convergents = [(1, 1), (3, 2)]
    while True:
        p = 2 * convergents[-1][0] + convergents[-2][0]
        q = 2 * convergents[-1][1] + convergents[-2][1]
        if p + q > limit_sum:
            break
        convergents.append((p, q))
    return best, convergents


def test_criterion_09_small_word_search():
    """The minimum nonzero translation length over words of length <= 29
    equals |17 - 12*sqrt2| within 1e-9, matching the continued-fraction
    oracle; the lattice search is pinned to the literal word enumeration on
    short words; under 30 s.  (|17 - 12*sqrt2| needs abelianization
    (17, -12), i.e. word length 29; at the literal bound 12 the minimum is
    |7 - 5*sqrt2| and both routes agree on that too.)"""
    start = time.monotonic()
    action = DenseLineAction({"a": 1, "b": ROOT2}, B2)
    value29, vec29, word29 = min_positive_translation(action, 29)
    assert abs(value29 - abs(17 - 12 * SQRT2)) < 1e-9
    assert vec29 in ((17, -12), (-17, 12))
    assert len(word29) == 29
    # the oracle's float scan names the minimizer; its value is exact here
    (oracle_best, oracle_p, oracle_q), convergents = continued_fraction_best(29)
    assert value29 == abs(oracle_p - oracle_q * ROOT2)
    assert abs(value29 - oracle_best) < 1e-14
    assert (17, 12) in convergents
    # the literal length-12 bound cannot reach the 17/12 convergent
    value12, _, _ = min_positive_translation(action, 12)
    assert value12 == abs(7 - 5 * ROOT2)
    (oracle12, p12, q12), _ = continued_fraction_best(12)
    assert value12 == abs(p12 - q12 * ROOT2)
    # lattice route == literal word enumeration wherever the latter is feasible
    for maxlen in (4, 6, 8):
        enum_min = min(
            action.translation_length(w)
            for w in cyclically_reduced_words(B2, maxlen)
            if abelianization(w, B2) != (0, 0)
        )
        lattice_min, _, _ = min_positive_translation(action, maxlen)
        assert lattice_min == enum_min
    # the exhaustive searcher itself surfaces the small classes
    records = small_words_search(action, 0.2, 5)
    assert any(abs(r.translation_length - abs(3 - 2 * SQRT2)) < 1e-12 for r in records)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(
        f"ACCEPTANCE 9: PASS (min at 29 = |17-12*sqrt2| ~ {value29:.6f}, CF oracle"
        f" q={oracle_q}, literal 12 gives |7-5*sqrt2|, {elapsed:.2f}s)"
    )


def test_criterion_10_lamination_audits():
    """Every emitted dual-lamination sample at depth <= 1000 passes its
    closure audit; fiber checks are symmetric and reflexive on a 100-pair
    panel."""
    action = DenseLineAction({"a": 1, "b": ROOT2}, B2)
    for epsilon, maxlen, depth in ((0.2, 4, 100), (0.2, 5, 1000), (0.05, 4, 500)):
        sample = dual_lamination_sample(action, epsilon, maxlen, depth=depth)
        audit = sample.audit()
        assert audit.closed
        for pair in sample.pairs:
            assert sample.contains(flip(pair))
    words = [w for w in cyclically_reduced_words(B2, 4)][:50]
    panel = []
    for w in words:
        panel.append(
            (BoundaryPoint.periodic(B2, "", w), BoundaryPoint.periodic(B2, "", invert_word(w)))
        )
        panel.append(
            (BoundaryPoint.periodic(B2, "", invert_word(w)), BoundaryPoint.periodic(B2, "", w))
        )
    assert len(panel) == 100
    for x, y in panel:
        fwd = q_fiber_check(action, x, y, depth=1000)
        rev = q_fiber_check(action, y, x, depth=1000)
        assert fwd.status == rev.status
        assert fwd.residual == rev.residual
        self_check = q_fiber_check(action, x, x, depth=1000)
        assert self_check.status == "equal" and self_check.residual == 0
    print("ACCEPTANCE 10: PASS (3 samples audited closed, 100-pair panel symmetric/reflexive)")
