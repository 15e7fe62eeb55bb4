"""Exact sums of square roots: signs, rounding, equality and the orbit code."""
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from rtreelab.oracles import LineOracle
from rtreelab.surds import LineCode, Surd, coordinates, sign, squarefree_split, value_of

ROOT2, ROOT3 = Surd.sqrt(2), Surd.sqrt(3)


def pell(n):
    """The first n solutions (p, q) of p*p - 2*q*q = +-1."""
    out = [(1, 1)]
    while len(out) < n:
        p, q = out[-1]
        out.append((p + 2 * q, p + q))
    return out


def decimal_value(coords, radicands, den=1, digits=80):
    with localcontext() as ctx:
        ctx.prec = digits
        total = Decimal(coords[0])
        for c, d in zip(coords[1:], radicands):
            total += Decimal(c) * Decimal(d).sqrt()
        return total / den


def test_pell_near_ties_get_the_exact_sign_where_floats_fail():
    float_wrong = 0
    for p, q in pell(60)[20:]:
        x = p - q * ROOT2  # |x| = 1 / (p + q*sqrt 2): far below a float ulp of p
        assert x.sign() == (1 if p * p > 2 * q * q else -1)
        assert (Fr(p, q) > ROOT2) == (p * p > 2 * q * q)
        assert (x > 0) == (p * p > 2 * q * q) and (x < 0) == (p * p < 2 * q * q)
        diff = float(p) - float(q) * math.sqrt(2)
        float_wrong += diff == 0 or (diff > 0) != (p * p > 2 * q * q)
        # the correctly rounded float of x itself keeps its sign and size
        assert float(x) == float(decimal_value((p, -q), (2,)))
    assert float_wrong > 20  # the float difference is 0 or of the wrong sign


def test_several_radicands_decide_near_ties_by_isqrt_bounds():
    # p/q approximations of sqrt 2 + sqrt 3 from above and below
    for k in (10, 30, 60, 90):
        q = 10**k
        # floor: p/q < sqrt 2 + sqrt 3 < (p + 1)/q
        p = int(decimal_value((0, q, q), (2, 3), digits=150))
        below, above = Fr(p, q), Fr(p + 1, q)
        total = ROOT2 + ROOT3
        assert below < total < above and total > below and above > total
        assert sign((-p, q, q), (2, 3)) == 1 and sign((-p - 1, q, q), (2, 3)) == -1
        assert (total - below).sign() == 1 and (total - above).sign() == -1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-10**12, 10**12), min_size=4, max_size=4),
    st.integers(1, 10**6),
)
def test_sign_and_rounding_agree_with_decimal_arithmetic(coords, den):
    radicands = (2, 3, 5)
    x = value_of(coords, radicands, den)
    exact = decimal_value(coords, radicands, den)
    assert sign(coords, radicands) == (exact > 0) - (exact < 0)
    assert float(x) == float(exact)


def test_square_factors_come_out_and_squares_are_rational():
    assert squarefree_split(72) == (6, 2) and squarefree_split(1) == (1, 1)
    assert squarefree_split(0) == (0, 1)
    assert squarefree_split(2 * 1_000_003**2) == (1_000_003, 2)  # a square factor past the cube root
    assert Surd.sqrt(8) == 2 * ROOT2 and hash(Surd.sqrt(8)) == hash(2 * ROOT2)
    assert Surd.sqrt(9) == 3 and type(Surd.sqrt(9)) is Fr
    assert Surd.sqrt(0) == 0 and type(Surd.sqrt(0)) is Fr
    with pytest.raises(ValueError):
        Surd.sqrt(-2)


def test_arithmetic_is_exact_and_rational_results_are_fractions():
    assert ROOT2 - ROOT2 == 0 and type(ROOT2 - ROOT2) is Fr
    assert Surd.sqrt(8) - 2 * ROOT2 == 0
    assert (ROOT2 + 1) - 1 == ROOT2
    assert (ROOT2 + ROOT3) - ROOT3 == ROOT2
    assert ROOT2 / 2 * 4 == 2 * ROOT2
    assert -(-ROOT2) == ROOT2 and abs(1 - ROOT2) == ROOT2 - 1
    # a float is taken at its exact binary value
    assert ROOT2 != math.sqrt(2) and ROOT2 - math.sqrt(2) == ROOT2 - Fr(math.sqrt(2))
    assert ROOT2 < math.inf and ROOT2 > -math.inf and not ROOT2 < math.nan
    assert ROOT2 != Fr(1414, 1000) and ROOT2 != 1
    with pytest.raises(TypeError):
        ROOT2 * ROOT3


def test_coordinates_put_numbers_on_one_basis():
    radicands, den, rows = coordinates([Fr(1, 2), ROOT2 / 3, Surd.sqrt(12), 0.25])
    assert radicands == (2, 3) and den == 12
    assert rows == [(6, 0, 0), (0, 4, 0), (0, 0, 24), (3, 0, 0)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_line_code_round_trips_and_orders_outside_its_window(data):
    radicands = data.draw(st.sampled_from([(2,), (3,), (2, 3), (2, 5, 7), (2, 3, 5, 7, 11)]))
    bound = data.draw(st.integers(1, 10**6))
    code = LineCode(radicands, 1, [10**9] + [bound] * len(radicands))
    assert (code.window == 0) == (len(radicands) <= 3)
    point = st.tuples(
        st.integers(-10**9, 10**9),
        *(st.integers(-bound, bound) for _ in radicands),
    )
    a, b = data.draw(point), data.draw(point)
    na, nb = code.encode(a), code.encode(b)
    assert code.decode(na) == list(a) and code.decode(nb) == list(b)
    diff = [x - y for x, y in zip(a, b)]
    assert code.decode(na - nb) == diff
    assert code.sign(na - nb) == sign(diff, radicands)
    if abs(na - nb) > code.window:
        assert (na > nb) == (sign(diff, radicands) > 0)
    assert (na == nb) == (a == b)


@pytest.mark.parametrize("extra", [(), (3, 5, 7, 11)])
def test_the_coded_fold_settles_pell_near_ties_exactly(extra):
    # the orbit's values differ by Pell numbers p - q*sqrt 2, below 1e-20;
    # with one radicand the ints are ordered exactly, with five they fall in
    # one window and the fold decides them exactly
    shift = sum((Surd.sqrt(d) for d in extra), Fr(1, 3))
    pairs = pell(40)[30:]
    values = [shift + (p - q * ROOT2) * (-1) ** i for i, (p, q) in enumerate(pairs)]
    high = max(values) + 1
    radicands, den, rows = coordinates([0, high, *values])
    bounds = [max(abs(row[j]) for row in rows) for j in range(len(radicands) + 1)]
    code = LineCode(radicands, den, bounds)
    assert (code.window == 0) == (not extra)
    low, high_code, *points = (code.encode(row) for row in rows)
    line = LineOracle(code)
    rng = random.Random(5)
    for _ in range(20):
        order = rng.sample(range(len(points)), len(points))
        tail = [points[i] for i in order]
        ends = [values[i] for i in order]
        # every value lies above 0 and below high: the fold from 0 ends at the
        # least value, and from high at the greatest
        assert code.value(line.common_segment_end(low, tail)) == min(ends)
        assert code.value(line.common_segment_end(high_code, tail)) == max(ends)
        assert code.value(line.distance(tail[0], tail[1])) == abs(ends[0] - ends[1])
        assert code.value(line.center(tail[0], tail[1], low)) == min(ends[0], ends[1])
