"""The boundary-to-tree limit map for pluggable isometric actions.

For an action of the free group on a tree oracle and a boundary point X,
the orbit of a basepoint along the prefixes of X has an inferior limit
from that basepoint; this module estimates it at finite depth, compares
estimates across boundary points (fiber checks), searches for conjugacy
classes of small translation length, and assembles finite dual-lamination
samples from them.

The bundled sandbox action is the line action: each generator translates
the real line by its weight.  It is computable and realizes every example
here, but it does NOT satisfy the dense-orbit/very-small hypotheses the
theory needs for basepoint independence and continuity (arc stabilizers
contain the whole kernel of the weight homomorphism); results on it are
estimates with certificates, never unconditional claims.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, Protocol, runtime_checkable

from .boundary import BoundaryPoint, BoundaryPair, LaminationSample, act
from .oracles import LINE_MINUS, LINE_PLUS, LineOracle, Ray, TreeOracle
from .observers import LiminfResult, PointSequence, liminf_from
from .words import (
    Basis,
    abelianization,
    canonical_rotation,
    cyclic_reduce,
    cyclically_reduced_words,
    enumerate_integer_vectors,
    invert_word,
    reduce_word,
    word_from_vector,
)


class EmptyWordError(ValueError):
    pass


@runtime_checkable
class IsometricAction(Protocol):
    oracle: TreeOracle
    basepoint: object
    basis: Basis

    def apply(self, word: str, point): ...


@dataclass(frozen=True, eq=False)
class DenseLineAction:
    """Translation action on the line: a generator g moves every point by
    weight(g); a word moves by the signed sum of its letters' weights.

    ``dense_image`` records whether some weight ratio is irrational (dense
    orbit closure); it is a recorded hypothesis flag, not a checked one.
    The action is never very small (the kernel of the weight map fixes the
    line pointwise).

    Exact weights (ints and Fractions) are also held as ``int_weights``,
    integers over ``scale``, the lcm of their denominators; ``scale`` is
    None when some weight is a float, and then every sum runs on the
    weights themselves.
    """

    weights: dict
    basis: Basis
    basepoint: object = 0
    dense_image: bool = False
    oracle: LineOracle = field(default_factory=LineOracle, compare=False)
    very_small: bool = field(default=False, init=False)
    scale: int | None = field(default=None, init=False, repr=False, compare=False)
    int_weights: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    # exact results are Fractions when some weight is one, else ints
    _fraction_valued: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [s for s in self.basis.symbols if s not in self.weights]
        if missing:
            raise ValueError(f"weights missing for generators {missing}")
        values = [self.weights[s] for s in self.basis.symbols]
        if all(isinstance(w, (int, Fraction)) for w in values):
            scale = math.lcm(*(w.denominator for w in values))
            object.__setattr__(self, "scale", scale)
            object.__setattr__(
                self, "int_weights", tuple(w.numerator * (scale // w.denominator) for w in values)
            )
            object.__setattr__(
                self, "_fraction_valued", any(isinstance(w, Fraction) for w in values)
            )

    def mu(self, word: str) -> object:
        """Signed weight sum, computed through the integer abelianization so
        that zero-sum words come out exactly zero.  (Free reduction cannot
        change the letter counts, so none is performed.)"""
        return self.mu_of_vector(abelianization(word, self.basis))

    def mu_of_vector(self, vec: tuple[int, ...]) -> object:
        """mu of any word with abelianization ``vec``.  The vector is the
        line action's per-word state: the vector of a product is the sum of
        the factors' vectors."""
        if self.scale is None:
            total = 0
            for n, s in zip(vec, self.basis.symbols):
                if n:
                    total += n * self.weights[s]
            return total
        total = sum(map(mul, vec, self.int_weights))
        # a word with no letter count left sums to the int 0, as term by term
        return Fraction(total, self.scale) if self._fraction_valued and any(vec) else total

    def apply(self, word: str, point):
        if isinstance(point, Ray):
            return point  # translations fix both ends
        return point + self.mu(word)

    def translation_length(self, word: str):
        w = cyclic_reduce(word)
        if not w:
            raise EmptyWordError("translation length of the empty word")
        return abs(self.mu(w))


@dataclass(frozen=True)
class TranslationLength:
    value: object
    method: str  # "exact" or "sampled"
    sample_size: int | None = None


def translation_length(action, word: str, sample_size: int = 64) -> TranslationLength:
    """Translation length of a conjugacy class under an action.

    Exact for actions that provide their own ``translation_length``
    (e.g. the line action); marked-rose length functions live in
    ``rtreelab.blend.marked_graph_length``.  Other oracle actions get a
    lower-bound estimate: the infimum of d(P, w P) over the first
    ``sample_size`` sample points, with the sample size recorded.
    """
    w = cyclic_reduce(word)
    if not w:
        raise EmptyWordError("translation length of the empty word")
    own = getattr(action, "translation_length", None)
    if own is not None:
        return TranslationLength(own(w), "exact")
    best = None
    count = 0
    for p in action.oracle.sample_stream():
        d = action.oracle.distance(p, action.apply(w, p))
        best = d if best is None else min(best, d)
        count += 1
        if count >= sample_size:
            break
    return TranslationLength(best, "sampled", count)


@dataclass(frozen=True)
class QEstimate:
    """Estimated limit of the orbit along a boundary word.

    ``point`` is a finite oracle point or a boundary Ray; ``method`` is
    "drift" when an eventually periodic word with nonzero per-block drift
    certifies escape to an end exactly, else "liminf" with the truncated
    inferior-limit certificate.
    """

    point: object
    certificate: object
    method: str
    depth: int

    def stabilized(self, tol=0) -> bool:
        return self.certificate <= tol


def qmap_estimate(action, x: BoundaryPoint, basepoint=None, depth: int = 10_000) -> QEstimate:
    """Inferior limit, from the basepoint, of the orbit (prefix_i(X)) . P."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if basepoint is None:
        basepoint = action.basepoint
    if isinstance(action, DenseLineAction) and x.periodic_form is not None:
        prefix, block = x.periodic_form
        drift = action.mu(block)
        if drift != 0:
            ray = LINE_PLUS if drift > 0 else LINE_MINUS
            return QEstimate(ray, 0, "drift", depth)
    orbit, start, scale = _orbit_sequence(action, x, basepoint, depth)
    # the fold only takes medians and differences, so it runs on scaled
    # points unchanged and its results are divided by the scale once
    res: LiminfResult = liminf_from(action.oracle, start, orbit, depth)
    return QEstimate(
        _unscaled(res.point, scale), _unscaled(res.certificate, scale), "liminf", res.terms_used
    )


def _orbit_sequence(action, x: BoundaryPoint, basepoint, depth: int):
    """Orbit points prefix_i(X) . P for i = 1..depth, with the basepoint in
    the same units and the scale that divides both back (None when they
    are already in the action's units).

    Line actions get an incremental evaluation, linear in depth: with
    exact weights and basepoint the points are integers over
    lcm(scale, basepoint denominator), one signed weight added per letter;
    with float weights each point is summed afresh from the running
    abelianization vector, which keeps zero-sum returns exactly zero.
    Other actions apply each prefix directly.
    """
    if isinstance(action, DenseLineAction):
        letters = x.prefix(depth)
        symbols = action.basis.symbols
        if action.scale is not None and isinstance(basepoint, (int, Fraction)):
            scale = math.lcm(action.scale, basepoint.denominator)
            k = scale // action.scale
            step = {}
            for s, w in zip(symbols, action.int_weights):
                step[s], step[s.upper()] = w * k, -w * k
            start = basepoint.numerator * (scale // basepoint.denominator)
            pts = list(accumulate(map(step.__getitem__, letters), initial=start))[1:]
            # all-int input is already in the action's units (scale 1, ints)
            exact = action._fraction_valued or isinstance(basepoint, Fraction)
            return PointSequence(pts), start, scale if exact else None
        index = {s: i for i, s in enumerate(symbols)}
        weights = [action.weights[s] for s in symbols]
        vec = [0] * len(symbols)
        pts = []
        for c in letters:
            vec[index[c.lower()]] += 1 if c.islower() else -1
            total = basepoint
            for n, w in zip(vec, weights):
                if n:
                    total = total + n * w
            pts.append(total)
        return PointSequence(pts), basepoint, None
    return PointSequence(lambda i: action.apply(x.prefix(i + 1), basepoint)), basepoint, None


def _unscaled(value, scale):
    """A fold result back in the action's units; inf and rays pass through."""
    if scale is None or not isinstance(value, int):
        return value
    return Fraction(value, scale)


def separation(oracle: TreeOracle, a, b):
    """Distance between two estimates; boundary identifiers compare exactly
    (0 when equal, infinite otherwise)."""
    a_ray, b_ray = isinstance(a, Ray), isinstance(b, Ray)
    if a_ray or b_ray:
        return 0 if (a_ray and b_ray and a == b) else math.inf
    return oracle.distance(a, b)


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

    @property
    def equal(self) -> bool | None:
        return None if self.status == "inconclusive" else self.status == "equal"


def q_fiber_check(
    action, x: BoundaryPoint, y: BoundaryPoint, depth: int = 10_000, tol: float = 1e-6
) -> FiberCheck:
    e1 = qmap_estimate(action, x, depth=depth)
    e2 = qmap_estimate(action, y, depth=depth)
    if isinstance(e1.point, Ray) and isinstance(e2.point, Ray):
        same = e1.point == e2.point
        return FiberCheck("equal" if same else "different", 0 if same else math.inf, e1, e2)
    if not (e1.stabilized(tol) and e2.stabilized(tol)):
        return FiberCheck("inconclusive", separation(action.oracle, e1.point, e2.point), e1, e2)
    residual = separation(action.oracle, e1.point, e2.point)
    return FiberCheck("equal" if residual <= tol else "different", residual, e1, e2)


@dataclass(frozen=True)
class ConjugacyClassRecord:
    word: str  # lexicographically least rotation: the class representative
    translation_length: object
    vector: tuple[int, ...]  # abelianization


def small_words_search(action, epsilon, maxlen: int) -> list[ConjugacyClassRecord]:
    """Every conjugacy class of cyclically reduced words of length <= maxlen
    with translation length < epsilon, one canonical representative each,
    sorted by (translation length, word length, lexicographic)."""
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    records = []
    for w in cyclically_reduced_words(action.basis, maxlen):
        # a class representative starts at its least letter; the words
        # are distinct, so each class is met once as its representative
        if w[0] != min(w) or canonical_rotation(w) != w:
            continue
        tl = action.translation_length(w)
        if tl < epsilon:
            records.append(ConjugacyClassRecord(w, tl, abelianization(w, action.basis)))
    records.sort(key=lambda r: (r.translation_length, len(r.word), r.word))
    return records


def min_positive_translation(action: DenseLineAction, maxlen: int):
    """Minimum of |mu| over cyclically reduced words of length <= maxlen with
    nonzero abelianization.

    For a line action the translation length factors through the integer
    abelianization, and every vector with |n|_1 <= maxlen is realized by a
    cyclically reduced word of that length, so the lattice enumeration is
    an exact reformulation of the word search.
    """
    best = None
    for vec in enumerate_integer_vectors(action.basis.rank, maxlen):
        if all(n == 0 for n in vec):
            continue
        value = abs(sum(n * action.weights[s] for n, s in zip(vec, action.basis.symbols) if n))
        if best is None or value < best[0]:
            best = (value, vec)
    if best is None:
        raise ValueError("maxlen admits no nonzero vector")
    value, vec = best
    return value, vec, word_from_vector(vec, action.basis)


def dual_lamination_sample(
    action, epsilon, maxlen: int, depth: int = 1000, tol: float = 1e-6
) -> LaminationSample:
    """Pairs (w^inf, w^-inf) for every small-translation-length class, with
    per-pair fiber residuals; flip-closed by construction.

    The recorded action-word list is empty: closure under even one letter
    at a large truncation depth is exponentially big, so group saturation
    is left to explicit saturate() calls at small depth.  The generating
    words live in the provenance.
    """
    records = small_words_search(action, epsilon, maxlen)
    pairs = []
    annotations = {}
    seen = set()
    for rec in records:
        w = rec.word
        forward = BoundaryPoint.periodic(action.basis, "", w)
        backward = BoundaryPoint.periodic(action.basis, "", invert_word(w))
        for pair in (BoundaryPair(forward, backward), BoundaryPair(backward, forward)):
            key = pair.key(depth)
            if key in seen:
                continue
            seen.add(key)
            check = q_fiber_check(action, pair.x, pair.y, depth=depth, tol=tol)
            pairs.append(pair)
            annotations[key] = {
                "word": w,
                "translation_length": rec.translation_length,
                "fiber_status": check.status,
                "fiber_residual": check.residual,
            }
    return LaminationSample(
        tuple(pairs),
        depth,
        words=(),
        provenance={
            "operation": "dual_lamination_sample",
            "epsilon": epsilon,
            "maxlen": maxlen,
            "source_words": tuple(r.word for r in records),
        },
        annotations=annotations,
    )


@dataclass(frozen=True)
class ContinuityProbe:
    prefix_length: int
    base_estimate: QEstimate
    separations: tuple  # (continuation block, separation) pairs
    max_separation: object


def q_continuity_probe(
    action, x: BoundaryPoint, k: int, depth: int = 10_000, continuations: Iterable[str] | None = None
) -> ContinuityProbe:
    """Maximal separation of limit estimates over a deterministic family of
    boundary points sharing prefix(k) with X.

    Default continuations: the rotations of X's periodic block when X is
    eventually periodic (perturbations within the same dynamical cylinder),
    else each basis letter; junctions that cancel are skipped.  For
    hypothesis-satisfying actions the max separation should shrink as k
    grows; the line sandbox can legitimately hold at infinity when an
    explicit continuation flips the escape direction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    prefix = x.prefix(k)
    base = qmap_estimate(action, x, depth=depth)
    if continuations is None:
        if x.periodic_form is not None:
            block = x.periodic_form[1]
            continuations = sorted({block[i:] + block[:i] for i in range(len(block))})
        else:
            continuations = sorted(action.basis.letters)
    results = []
    worst = 0
    for block in continuations:
        if not block:
            continue
        try:
            y = BoundaryPoint.periodic(action.basis, prefix, block)
        except ValueError:
            continue  # junction cancels: not a valid continuation
        est = qmap_estimate(action, y, depth=depth)
        sep = separation(action.oracle, base.point, est.point)
        results.append((block, sep))
        worst = max(worst, sep)
    return ContinuityProbe(k, base, tuple(results), worst)


def equivariance_check(action, word: str, x: BoundaryPoint, depth: int = 10_000):
    """Separation between the limit of w.X and w applied to the limit of X."""
    word = reduce_word(word, action.basis)
    lhs = qmap_estimate(action, act(word, x), depth=depth).point
    rhs = action.apply(word, qmap_estimate(action, x, depth=depth).point)
    return separation(action.oracle, lhs, rhs)


def parse_weight(text: str):
    """Weight literal: decimal/rational (exact) or ``sqrt:<n>`` (float).

    Returns ``(value, irrational)``.
    """
    text = text.strip()
    if text.startswith("sqrt:"):
        n = int(text[5:])
        if n < 0:
            raise ValueError("sqrt of a negative integer")
        root = math.isqrt(n)
        if root * root == n:
            return Fraction(root), False
        return math.sqrt(n), True
    return Fraction(text), False


def line_action_from_weights(
    weight_texts: Iterable[str], basis: Basis | None = None, basepoint=0
) -> DenseLineAction:
    values = []
    any_irrational = False
    for t in weight_texts:
        v, irr = parse_weight(t)
        values.append(v)
        any_irrational = any_irrational or irr
    if basis is None:
        basis = Basis(len(values))
    if len(values) != basis.rank:
        raise ValueError("one weight per generator required")
    weights = dict(zip(basis.symbols, values))
    return DenseLineAction(weights, basis, basepoint=basepoint, dense_image=any_irrational)
