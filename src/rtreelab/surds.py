"""Exact real numbers of the line action: sums of square roots.

A line-action number is held as integer coordinates over the Q-basis
{1} and {sqrt(d) : d a squarefree integer > 1}, with one positive common
denominator.  Square roots of distinct squarefree integers are linearly
independent over Q (Besicovitch 1940), so a number is zero exactly when
every coordinate is zero, and two numbers are equal exactly when their
reduced coordinates are.  A sign with a single radicand is one integer
comparison, c0**2 against d * c1**2; with several it comes from
``math.isqrt`` bounds at doubling precision, which ends because the
number is not zero.

Two forms hold such numbers.  :class:`Surd` is a reported value (a point,
certificate, residual, translation length or deviation) with a nonzero
irrational part; rational values stay ints and Fractions.
:class:`LineCode` holds the many numbers of an orbit as single ints whose
integer order is their order outside a small window, so that an orbit
folds in C-level integer passes and only near-ties are decided exactly.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

# sqrt:<n> literals are reduced to a squarefree radicand by trial division
# up to the cube root of n, so n is bounded to keep that quick
MAX_RADICAND = 10**18


def squarefree_split(n: int) -> tuple[int, int]:
    """(s, d) with n = s*s*d and d squarefree; n = 0 gives (0, 1)."""
    if n < 0:
        raise ValueError("sqrt of a negative integer")
    if n > MAX_RADICAND:
        raise ValueError(f"sqrt radicand above {MAX_RADICAND}")
    if n == 0:
        return 0, 1
    s, d, m, p = 1, 1, n, 2
    while p * p * p <= m:
        while m % p == 0:
            m //= p
            if m % p == 0:
                m //= p
                s *= p
            else:
                d *= p
        p += 1
    # every prime factor of m is above the cube root of m: m is 1, a prime,
    # a product of two primes or the square of one
    r = math.isqrt(m)
    if r * r == m:
        return s * r, d
    return s, d * m


def _bounds(coords, radicands, p: int) -> tuple[int, int]:
    """Ints lo < x * 2**p < hi for x = c0 + sum(c_j * sqrt(d_j)) with a
    nonzero irrational coordinate (sqrt(d_j) is irrational, so each term's
    floor is strict)."""
    lo = hi = coords[0] << p
    for c, d in zip(coords[1:], radicands):
        if c:
            t = math.isqrt(c * c * d << 2 * p)
            if c > 0:
                lo, hi = lo + t, hi + t + 1
            else:
                lo, hi = lo - t - 1, hi - t
    return lo, hi


def sign(coords, radicands) -> int:
    """The exact sign of c0 + sum(c_j * sqrt(d_j)), squarefree d_j > 1."""
    c0 = coords[0]
    terms = [(c, d) for c, d in zip(coords[1:], radicands) if c]
    if not terms:
        return (c0 > 0) - (c0 < 0)
    if len(terms) == 1:
        ((c, d),) = terms
        s = 1 if c > 0 else -1
        if c0 * s >= 0 or c0 * c0 < d * c * c:
            return s
        return -s
    p = 64
    while True:
        lo, hi = _bounds(coords, radicands, p)
        if lo >= 0:
            return 1
        if hi <= 0:
            return -1
        p *= 2


def value_of(coords, radicands, den: int):
    """(c0 + sum(c_j * sqrt(d_j))) / den as a Surd, or as a Fraction when
    every irrational coordinate is zero."""
    if not any(coords[1:]):
        return Fraction(coords[0], den)
    return Surd._make(coords, radicands, den)


def _parts(x):
    """(coordinates by radicand, 1 for the rational one; denominator) of an
    int, Fraction, finite float (its exact binary value) or Surd; None for
    anything else."""
    if isinstance(x, Surd):
        return dict(zip((1, *x.radicands), x.coords)), x.den
    if isinstance(x, float):
        if not math.isfinite(x):
            return None
        x = Fraction(x)
    if isinstance(x, (int, Fraction)):
        return {1: x.numerator}, x.denominator
    return None


def coordinates(values) -> tuple[tuple[int, ...], int, list[tuple[int, ...]]]:
    """(radicands, den, rows): every value (int, Fraction, finite float or
    Surd) as integer coordinates over one basis {1} and {sqrt(d) : d in
    radicands}, ascending, and one denominator; row i is (c0, c1, ..., ck)
    of values[i]."""
    parts = []
    for v in values:
        part = _parts(v)
        if part is None:
            raise TypeError(f"not an exact real number: {v!r}")
        parts.append(part)
    radicands = tuple(sorted({d for coefs, _ in parts for d in coefs} - {1}))
    den = math.lcm(*(d for _, d in parts))
    rows = [
        tuple(coefs.get(d, 0) * (den // q) for d in (1, *radicands)) for coefs, q in parts
    ]
    return radicands, den, rows


class Surd:
    """An exact real (c0 + c1*sqrt(d1) + ... + ck*sqrt(dk)) / den with a
    nonzero irrational part: radicands squarefree and ascending, every
    ck != 0, den > 0 and the coordinates coprime to it.

    Sums, differences, negation, abs, products and quotients by rationals,
    and comparisons with ints, Fractions, floats (a finite float at its
    exact binary value) and other Surds are exact; ``float`` rounds
    correctly.  A Surd never equals a rational number.
    """

    __slots__ = ("coords", "radicands", "den")

    @classmethod
    def _make(cls, coords, radicands, den: int):
        keep = [j for j in range(1, len(coords)) if coords[j]]
        coords = (coords[0], *(coords[j] for j in keep))
        radicands = tuple(radicands[j - 1] for j in keep)
        g = math.gcd(den, *coords)
        if den < 0:
            g = -g
        self = object.__new__(cls)
        self.coords = tuple(c // g for c in coords)
        self.radicands = radicands
        self.den = den // g
        return self

    @classmethod
    def sqrt(cls, n: int):
        """sqrt(n) for an integer n >= 0, with the square factor taken out;
        a Fraction when n is a perfect square."""
        s, d = squarefree_split(n)
        return Fraction(s) if d == 1 else cls._make((0, s), (d,), 1)

    def sign(self) -> int:
        return sign(self.coords, self.radicands)

    def _combine(self, other, k: int):
        """self + k * other, k = 1 or -1."""
        try:
            radicands, den, (a, b) = coordinates([self, other])
        except TypeError:
            return NotImplemented
        return value_of([x + k * y for x, y in zip(a, b)], radicands, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        result = self._combine(other, -1)
        return result if result is NotImplemented else -result

    def __neg__(self):
        neg = object.__new__(Surd)
        neg.coords, neg.radicands, neg.den = tuple(-c for c in self.coords), self.radicands, self.den
        return neg

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __mul__(self, other):
        b = _parts(other)
        if b is None or len(b[0]) != 1:
            return NotImplemented  # only rational factors
        n, q = b[0][1], b[1]
        if n == 0:
            return Fraction(0)
        return Surd._make(tuple(c * n for c in self.coords), self.radicands, self.den * q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _parts(other)
        if b is None or len(b[0]) != 1 or b[0][1] == 0:
            return NotImplemented
        n, q = b[0][1], b[1]
        return Surd._make(tuple(c * q for c in self.coords), self.radicands, self.den * n)

    def _compare(self, other):
        """The sign of self - other, None against a NaN, NotImplemented
        against a non-number."""
        if isinstance(other, (int, Fraction)):
            # a rational moves the rational coordinate only
            n, q = other.numerator, other.denominator
            c0, *rest = self.coords
            return sign((c0 * q - n * self.den, *(c * q for c in rest)), self.radicands)
        if isinstance(other, float) and not math.isfinite(other):
            return None if other != other else (-1 if other > 0 else 1)
        diff = self._combine(other, -1)
        if diff is NotImplemented:
            return diff
        return diff.sign() if isinstance(diff, Surd) else (diff > 0) - (diff < 0)

    def __lt__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s is not None and s < 0

    def __le__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s is not None and s <= 0

    def __gt__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s is not None and s > 0

    def __ge__(self, other):
        s = self._compare(other)
        return s if s is NotImplemented else s is not None and s >= 0

    def __eq__(self, other):
        if isinstance(other, Surd):
            return (self.coords, self.radicands, self.den) == (
                other.coords,
                other.radicands,
                other.den,
            )
        if isinstance(other, (int, float, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((Surd, self.coords, self.radicands, self.den))

    def __float__(self):
        """The correctly rounded float: both ends of a bracket round to it."""
        p = 64
        while True:
            lo, hi = _bounds(self.coords, self.radicands, p)
            scale = self.den << p
            a = lo / scale
            if a == hi / scale:
                return a
            p *= 2

    def __format__(self, spec: str) -> str:
        return format(float(self), spec)

    def __repr__(self):
        terms = [str(self.coords[0])] if self.coords[0] else []
        for c, d in zip(self.coords[1:], self.radicands):
            terms.append(f"sqrt({d})" if c == 1 else f"-sqrt({d})" if c == -1 else f"{c}*sqrt({d})")
        text = " + ".join(terms).replace("+ -", "- ")
        return f"Surd({text})" if self.den == 1 else f"Surd(({text})/{self.den})"


# the largest precision, in bits, at which an orbit's ints are ordered
# exactly as its numbers; past it the code keeps a window of near-ties
EXACT_ORDER_BITS = 256


class LineCode:
    """Numbers (c0 + c1*sqrt(d1) + ... + ck*sqrt(dk)) / scale of one orbit,
    each held as the single int sum(c_j * gens[j]).

    The code is linear, so sums and differences of codes are codes.  Every
    |c_j| of an orbit point is at most ``bounds[j]``.  Each irrational
    coordinate has a slot of ``width`` bits in the low ``k * width`` bits,
    wide enough for the coordinates of a difference of two points, and the
    rational coordinate sits above them at 2**(prec + low).  Each
    irrational generator also adds floor(sqrt(d_j) * 2**prec) above the
    slots.  An orbit point's int is then 2**(prec + low) * scale * x up to
    less than 2**low * (2*k*bound + 1) / 2, with ``bound`` the largest
    irrational bound, so equal ints are equal numbers and two ints further
    apart than ``window`` are ordered as their numbers are.

    A nonzero difference x of two orbit points is at least a**-(2**k - 1)
    in absolute value, a the bound on its conjugates: its norm is a nonzero
    integer.  So at that precision (while it is at most EXACT_ORDER_BITS)
    the ints are ordered exactly as the numbers, and the window is 0;
    otherwise only ints within the window are decoded and compared
    exactly.  With no radicands the code is the identity: the ints are
    scale * x, as the orbit of rational weights has always been held.

    ``value`` turns an int back into the reported number: an int when
    ``int_valued`` (every input an int), else a Fraction or a Surd.
    """

    def __init__(self, radicands, scale: int, bounds, int_valued: bool = False):
        self.radicands = tuple(radicands)
        self.scale = scale
        self.int_valued = int_valued
        k = len(self.radicands)
        if not k:
            self.width = self.low = self.window = 0
            self.gens = (1,)
            return
        bound = max(bounds[1:])
        # coordinates of a difference of two points stay below 2**(width - 2)
        self.width = bound.bit_length() + 3
        self.low = k * self.width
        err = 2 * k * bound + 1
        a = 2 * bounds[0] + 2 * bound * sum(math.isqrt(d) + 1 for d in self.radicands) + 1
        prec = err.bit_length() + (2**k - 1) * a.bit_length()
        if prec <= EXACT_ORDER_BITS:
            self.window = 0
        else:
            prec, self.window = self.width + 32, err << self.low
        self.gens = (1 << (prec + self.low),) + tuple(
            (math.isqrt(d << 2 * prec) << self.low) + (1 << (j * self.width))
            for j, d in enumerate(self.radicands)
        )

    def encode(self, coords) -> int:
        return sum(c * g for c, g in zip(coords, self.gens))

    def decode(self, n: int) -> list[int]:
        if not self.low:
            return [n]
        half = 1 << (self.low - 1)
        rest = ((n + half) & ((1 << self.low) - 1)) - half
        digits, top, full = [], 1 << (self.width - 1), 1 << self.width
        for _ in self.radicands:
            c = ((rest + top) & (full - 1)) - top
            digits.append(c)
            rest = (rest - c) >> self.width
        c0 = (n - sum(c * g for c, g in zip(digits, self.gens[1:]))) // self.gens[0]
        return [c0, *digits]

    def sign(self, n) -> int:
        """The exact sign of the number a code (or a difference of two
        orbit points' codes) stands for; an infinite float is its own
        sign."""
        if n > self.window:
            return 1
        if n < -self.window:
            return -1
        return sign(self.decode(n), self.radicands)

    def extreme(self, points, guess, upper: bool):
        """The point of greatest (upper) or least number, given the point of
        greatest or least int: only the points within the window of it can
        beat it, and distinct ints there are distinct numbers."""
        if not self.window:
            return guess
        if upper:
            near = {p for p in points if p >= guess - self.window}
        else:
            near = {p for p in points if p <= guess + self.window}
        if len(near) == 1:
            return guess
        s = 1 if upper else -1
        return reduce(lambda a, b: b if self.sign(b - a) == s else a, sorted(near))

    def value(self, n):
        """The number an int stands for; the line's ends, inf and -inf, pass through."""
        if not isinstance(n, int):
            return n
        if self.int_valued:
            return n
        if not self.low:
            return Fraction(n, self.scale)
        return value_of(self.decode(n), self.radicands, self.scale)
