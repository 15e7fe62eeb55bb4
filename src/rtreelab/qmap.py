"""The boundary-to-tree limit map for the line action.

For an action of the free group on a tree and a boundary point X, the
orbit of a basepoint along the prefixes of X has an inferior limit from
that basepoint; this module estimates it at finite depth, compares
estimates across boundary points (fiber checks), searches for conjugacy
classes of small translation length, and assembles finite dual-lamination
samples from them.

The one action is the line action: each generator translates the real
line by its weight.  It is computable and realizes every example here,
but it does NOT satisfy the dense-orbit/very-small hypotheses the theory
needs for basepoint independence and continuity (arc stabilizers contain
the whole kernel of the weight homomorphism); results on it are
estimates with certificates, never unconditional claims.

Its numbers are exact for every weight, ``sqrt:`` weights (the dense-orbit
case) included: they live in the span of 1 and square roots of squarefree
integers (:mod:`rtreelab.surds`).  An orbit is one signed int step per
letter in a code whose integer order is the order of its numbers, the
liminf fold runs on those ints, and only reported values are decoded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul
from typing import Callable, Iterable

from .boundary import BoundaryPoint, BoundaryPair, LaminationSample
from .formats import FormatError, parse_number
from .oracles import LINE_MINUS, LINE_PLUS, LineOracle, _infinite
from .observers import PointSequence, liminf_from
from .surds import LineCode, Surd, coordinates, sign, value_of
from .words import (
    Basis,
    _distances_to,
    _keyed_class_representatives,
    abelianization,
    cyclic_reduce,
    enumerate_integer_vectors,
    invert_word,
    word_from_vector,
)


class EmptyWordError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class DenseLineAction:
    """Translation action on the line: a generator g moves every point by
    weight(g); a word moves by the signed sum of its letters' weights.

    ``dense_image`` says whether the orbits are dense in the line, computed
    from the weights: it holds exactly when they have rank >= 2 over Q.
    The action is never very small (the kernel of the weight map fixes the
    line pointwise).

    Weights are exact: ints, Fractions and Surds (a float is taken at its
    exact binary value).  They are also held as integer coordinates over
    the basis {1} and {sqrt(d) : d in ``radicands``} with the common
    denominator ``scale``: ``columns[j]`` holds coordinate j of every
    generator's weight, so rational weights are the one-column case.
    """

    weights: dict
    basis: Basis
    basepoint: object = 0
    radicands: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    scale: int = field(default=1, init=False, repr=False, compare=False)
    columns: tuple[tuple[int, ...], ...] = field(default=(), init=False, repr=False, compare=False)
    # exact results are ints when every weight is one, else Fractions or Surds
    _fraction_valued: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [s for s in self.basis.symbols if s not in self.weights]
        if missing:
            raise ValueError(f"weights missing for generators {missing}")
        values = [self.weights[s] for s in self.basis.symbols]
        radicands, scale, rows = coordinates(values)
        object.__setattr__(self, "radicands", radicands)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "columns", tuple(zip(*rows)))
        object.__setattr__(self, "_fraction_valued", any(type(w) is not int for w in values))

    @property
    def dense_image(self) -> bool:
        """Whether the weights generate a dense subgroup of the line: two
        generators' coordinate rows are not proportional."""
        rows = list(zip(*self.columns))
        pairs = list(combinations(range(len(self.columns)), 2))
        return any(u[i] * v[j] != u[j] * v[i] for u, v in combinations(rows, 2) for i, j in pairs)

    def mu(self, word: str) -> object:
        """Signed weight sum, computed through the integer abelianization so
        that zero-sum words come out exactly zero.  (Free reduction cannot
        change the letter counts, so none is performed.)"""
        return self.mu_of_vector(abelianization(word, self.basis))

    def mu_of_vector(self, vec: tuple[int, ...]) -> object:
        """mu of any word with abelianization ``vec``.  The vector is the
        line action's per-word state: the vector of a product is the sum of
        the factors' vectors."""
        if not self._fraction_valued:
            return sum(map(mul, vec, self.columns[0]))
        # a word with no letter count left sums to the int 0, as term by term
        if not any(vec):
            return 0
        return value_of([sum(map(mul, vec, col)) for col in self.columns], self.radicands, self.scale)

    def int_length(self, vec: tuple[int, ...]) -> int:
        """|mu| of ``vec`` times ``scale``, for rational weights."""
        return abs(sum(map(mul, vec, self.columns[0])))

    def shorter_than(self, bound) -> Callable[[tuple[int, ...]], bool]:
        """The test |mu(vec)| < bound for abelianization vectors, with bound
        a rational, a float at its binary value, or inf: -bound < mu < bound
        on the integer coordinates, without building the value."""
        if bound == math.inf:
            return lambda vec: True
        n, q = Fraction(bound).as_integer_ratio()
        n *= self.scale
        columns, radicands = self.columns, self.radicands
        if not radicands:
            (col,) = columns
            return lambda vec: abs(sum(map(mul, vec, col))) * q < n

        def test(vec):
            c0, *rest = [sum(map(mul, vec, col)) * q for col in columns]
            return sign((c0 - n, *rest), radicands) < 0 < sign((c0 + n, *rest), radicands)

        return test

    def translation_length(self, word: str):
        w = cyclic_reduce(word)
        if not w:
            raise EmptyWordError("translation length of the empty word")
        return abs(self.mu(w))


@dataclass(frozen=True)
class QEstimate:
    """Estimated limit of the orbit along a boundary word.

    ``point`` is a finite line point or a line end, inf or -inf; ``method``
    is "drift" when an eventually periodic word with nonzero per-block drift
    certifies escape to an end exactly, else "liminf" with the truncated
    inferior-limit certificate.
    """

    point: object
    certificate: object
    method: str
    depth: int

    def stabilized(self, tol=0) -> bool:
        return self.certificate <= tol


def qmap_estimate(action: DenseLineAction, x: BoundaryPoint, basepoint=None, depth: int = 10_000) -> QEstimate:
    """Inferior limit, from the basepoint, of the orbit (prefix_i(X)) . P:
    the fold of :func:`liminf_from` over ``depth`` orbit points.

    X = prefix . block^inf escapes to a line end when the block drifts.  With
    zero drift, past the first p + b points (p = |prefix|, b = |block|) point
    i is point p + (i - p) mod b, so only those are walked: O(p + b) at any
    depth.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if basepoint is None:
        basepoint = action.basepoint
    prefix, block = x.periodic_form
    drift = action.mu(block)
    if drift != 0:
        return QEstimate(LINE_PLUS if drift > 0 else LINE_MINUS, 0, "drift", depth)
    p, b = len(prefix), len(block)
    m = min(depth, p + b)
    orbit, start, code = _orbit_sequence(action, x, basepoint, m)
    # the fold reads the point before the head and the points from the head on
    h = depth // 2

    def at(i):  # the walked point that orbit point i equals (i when m = depth)
        return i if i < m else p + (i - p) % b

    window = sorted({at(i) for i in range(h, min(depth, max(h, m) + b))})
    walked = orbit.take(m)
    pts = [walked[at(i)] for i in [h - 1] * (h > 0) + window]
    # the fold takes maxima, minima and differences of the orbit's ints on
    # the line of their code, and only the results are decoded
    res = liminf_from(LineOracle(code), start, PointSequence(pts), len(pts), head=min(h, 1))
    return QEstimate(code.value(res.point), code.value(res.certificate), "liminf", depth)


def _orbit_sequence(action: DenseLineAction, x: BoundaryPoint, basepoint, depth: int):
    """Orbit points prefix_i(X) . P for i = 1..depth, linear in depth: the
    weights and the basepoint as integer coordinates over one basis and one
    denominator, each point the int of a LineCode for them, one signed
    weight added per letter.  Returns the points, the basepoint's int and
    the code, whose bounds cover these points only.  For rational weights
    and basepoint the code is the identity, so the points are the numbers
    times the common denominator.  :func:`qmap_estimate` asks a zero-drift
    periodic point for at most one prefix and one block of points.
    """
    letters = x.prefix(depth)
    symbols = action.basis.symbols
    values = [action.weights[s] for s in symbols]
    radicands, scale, rows = coordinates([*values, basepoint])
    *steps, base = rows
    bounds = [abs(b) + depth * max(abs(w[j]) for w in steps) for j, b in enumerate(base)]
    int_valued = all(type(v) is int for v in values) and type(basepoint) is int
    code = LineCode(radicands, scale, bounds, int_valued)
    step = {}
    for s, w in zip(symbols, steps):
        step[s] = code.encode(w)
        step[s.upper()] = -step[s]
    start = code.encode(base)
    pts = list(accumulate(map(step.__getitem__, letters), initial=start))[1:]
    return PointSequence(pts), start, code


@dataclass(frozen=True)
class FiberCheck:
    """Comparison of the limits of two boundary points.

    ``status`` is "equal", "different", or "inconclusive" (an unstabilized
    finite estimate decides nothing).
    """

    status: str
    residual: object
    first: QEstimate
    second: QEstimate


def q_fiber_check(
    action: DenseLineAction, x: BoundaryPoint, y: BoundaryPoint, depth: int = 10_000, tol: float = 1e-6
) -> FiberCheck:
    e1 = qmap_estimate(action, x, depth=depth)
    e2 = qmap_estimate(action, y, depth=depth)
    residual = LineOracle().distance(e1.point, e2.point)
    # two ends are settled exactly, whatever the tolerance
    if _infinite(e1.point) and _infinite(e2.point):
        return FiberCheck("equal" if residual == 0 else "different", residual, e1, e2)
    if not (e1.stabilized(tol) and e2.stabilized(tol)):
        return FiberCheck("inconclusive", residual, e1, e2)
    return FiberCheck("equal" if residual <= tol else "different", residual, e1, e2)


@dataclass(frozen=True)
class ConjugacyClassRecord:
    word: str  # lexicographically least rotation: the class representative
    translation_length: object
    vector: tuple[int, ...]  # abelianization


def small_words_search(action: DenseLineAction, epsilon, maxlen: int) -> list[ConjugacyClassRecord]:
    """Every conjugacy class of cyclically reduced words of length <= maxlen
    with translation length < epsilon, one canonical representative each,
    sorted by (translation length, word length, lexicographic)."""
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    # a representative's translation length is |mu| of its letter counts:
    # one test per key of the box, and |mu| once per short key
    box, distance = _distances_to(action.basis, maxlen, action.shorter_than(epsilon))
    lengths = {key: abs(action.mu_of_vector(box[key])) for key, d in distance.items() if d == 0}
    records = [
        ConjugacyClassRecord(w, lengths[key], box[key])
        for w, key in _keyed_class_representatives(action.basis, maxlen, distance)
        if key in lengths
    ]
    rank = {tl: i for i, tl in enumerate(sorted({r.translation_length for r in records}))}
    # the representatives come in (length, lex) order, and the sort is stable
    return sorted(records, key=lambda r: rank[r.translation_length])


def min_positive_translation(action: DenseLineAction, maxlen: int):
    """Minimum of |mu| over cyclically reduced words of length <= maxlen with
    nonzero abelianization.

    For a line action the translation length factors through the integer
    abelianization, and every vector with |n|_1 <= maxlen is realized by a
    cyclically reduced word of that length, so the lattice enumeration is
    an exact reformulation of the word search.
    """
    nonzero = (vec for vec in enumerate_integer_vectors(action.basis.rank, maxlen) if any(vec))
    # the first least value, in enumeration order
    best = min(((abs(action.mu_of_vector(vec)), vec) for vec in nonzero), key=lambda pair: pair[0], default=None)
    if best is None:
        raise ValueError("maxlen admits no nonzero vector")
    value, vec = best
    return value, vec, word_from_vector(vec, action.basis)


def dual_lamination_sample(
    action: DenseLineAction, epsilon, maxlen: int, depth: int = 1000, tol: float = 1e-6
) -> LaminationSample:
    """Pairs (w^inf, w^-inf) for every small-translation-length class, with
    per-pair fiber residuals; flip-closed by construction."""
    records = small_words_search(action, epsilon, maxlen)
    annotations = {}
    for rec in records:
        w = rec.word
        forward = BoundaryPoint.periodic(action.basis, "", w)
        backward = BoundaryPoint.periodic(action.basis, "", invert_word(w))
        pair = BoundaryPair(forward, backward)
        # a power or the inverse of a class met before adds nothing
        if pair in annotations:
            continue
        # the flip's check swaps the two estimates, and status and residual
        # are symmetric: each point is estimated once
        check = q_fiber_check(action, forward, backward, depth=depth, tol=tol)
        annotations[pair] = annotations[BoundaryPair(backward, forward)] = {
            "word": w,
            "translation_length": rec.translation_length,
            "fiber_status": check.status,
            "fiber_residual": check.residual,
        }
    return LaminationSample(
        tuple(annotations),
        depth,
        provenance={
            "operation": "dual_lamination_sample",
            "epsilon": epsilon,
            "maxlen": maxlen,
            "source_words": tuple(r.word for r in records),
        },
        annotations=annotations,
    )


def parse_weight(text: str):
    """Weight literal: decimal/rational, or ``sqrt:<n>`` for an integer
    0 <= n <= 10**18, exact with the square factor taken out (``sqrt:8`` is
    2*sqrt(2), ``sqrt:9`` is 3).  A malformed literal is a FormatError.
    """
    text = text.strip()
    try:
        if text.startswith("sqrt:"):
            return Surd.sqrt(int(text[5:]))
        return parse_number(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad weight {text!r}: {exc}") from exc


def line_action_from_weights(
    weight_texts: Iterable[str], basis: Basis | None = None, basepoint=0
) -> DenseLineAction:
    values = [parse_weight(t) for t in weight_texts]
    if basis is None:
        basis = Basis(len(values))
    if len(values) != basis.rank:
        raise ValueError("one weight per generator required")
    weights = dict(zip(basis.symbols, values))
    return DenseLineAction(weights, basis, basepoint=basepoint)
