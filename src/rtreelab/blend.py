"""Convex combinations of compatible tree metrics, translation-length
linearity, and necessary-condition checking for tree length functions.

A compatible pair is two metric trees on the identical combinatorial shape
whose identity point map passes the shape verification (centers and
segment memberships agree).  Blending takes the edgewise affine
combination of the two length assignments; the certification route then
realizes the blended table as a tree and replays every distance against
it, which certifies 0-hyperbolicity and realizability at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .hyperbolicity import HyperbolicityVerdict, MetricTable, first_violation
from .observers import verify_shape_map
from .qmap import EmptyWordError
from .surds import Surd
from .tree import Location, MetricTree, Num, _exact
from .words import (
    Basis,
    abelianization,
    enumerate_integer_vectors,
    invert_word,
    reduce_word,
    reduced_product,
    reduced_words,
)

REALIZED = "0-hyperbolic; realized exactly by a finite tree"


class IncompatiblePairError(ValueError):
    pass


class BlendRangeError(ValueError):
    pass


class MarkingError(ValueError):
    pass


@dataclass(frozen=True)
class CompatibleMetricPair:
    """Two positive edge-length assignments on one tree shape.

    Designated points must sit at the same vertex or inside the same edge
    in both trees (offsets may differ), and the identity map must pass
    verify_shape_map: that is the finitely checkable content of the
    identification the blend construction starts from.
    """

    tree0: MetricTree
    tree1: MetricTree

    def __post_init__(self):
        t0, t1 = self.tree0, self.tree1
        if t0.vertices != t1.vertices:
            raise IncompatiblePairError("vertex sets differ")
        if t0._lengths.keys() != t1._lengths.keys():
            raise IncompatiblePairError("edge sets differ")
        d0, d1 = t0.designated, t1.designated  # each call makes the Locations anew
        if sorted(d0) != sorted(d1):
            raise IncompatiblePairError("designated point names differ")
        for name, loc0 in d0.items():
            loc1 = d1[name]
            if isinstance(loc0, str) != isinstance(loc1, str):
                raise IncompatiblePairError(f"point {name!r} changes between vertex and edge")
            if isinstance(loc0, str) and loc0 != loc1:
                raise IncompatiblePairError(f"point {name!r} sits at different vertices")
            if isinstance(loc0, Location) and loc0.edge != loc1.edge:
                raise IncompatiblePairError(f"point {name!r} sits on different edges")
        verdict = verify_shape_map(t0, t1, {n: n for n in t0.point_names})
        if not verdict.passes:
            raise IncompatiblePairError(f"shape verification failed at {verdict.witness}")


def blend_metric(pair: CompatibleMetricPair, lam: Num) -> MetricTree:
    """The tree with edge lengths lam*d1 + (1-lam)*d0 and designated point
    offsets combined the same way (so distances to the edge endpoints blend
    affinely as well), rooted as tree0.  With lam = p/q, each scaled int
    length x blends as (q-p)*s1*x0 + p*s0*x1 over the scale q*s0*s1, for
    each tree's scale s (``MetricTree._blend``)."""
    lam = _exact(lam, BlendRangeError, "lambda")
    if lam < 0 or lam > 1:
        raise BlendRangeError(f"lambda must lie in [0, 1], got {lam}")
    return pair.tree0._blend(pair.tree1, *lam.as_integer_ratio())


@dataclass(frozen=True)
class CertifyResult:
    verdict: HyperbolicityVerdict
    realizable: bool | None
    note: str

    @property
    def passes(self) -> bool:
        return self.verdict.passes


def certify_rtree(space: MetricTable) -> CertifyResult:
    """Full certification at delta 0: a tree that reproduces every distance
    of the table.  Whether the table is a tree metric was settled when it
    was built, so only a table that is not one costs a scan, for the first
    violating quadruple; ``realizable`` is then None."""
    if space.realized:
        verdict = HyperbolicityVerdict(True, Fraction(0))
        return CertifyResult(verdict, True, REALIZED)
    verdict = HyperbolicityVerdict(False, Fraction(0), first_violation(space, 0))
    return CertifyResult(verdict, None, "four-point condition fails at delta=0")


# -- marked roses -------------------------------------------------------------


def _marking_table(marking: Mapping[str, str]) -> dict[int, str]:
    """``str.translate`` table sending each letter to its marking image."""
    return str.maketrans(
        dict(marking) | {g.upper(): invert_word(image) for g, image in marking.items()}
    )


def nielsen_generates(marking: Mapping[str, str], basis: Basis) -> bool:
    """Whether the images of the generators form a basis, by Stallings
    folding: wedge one loop per image at a base vertex, then identify the
    ends of any two edges that leave a vertex with the same label.  The
    images generate the free group exactly when the folded graph is the
    standard rose, one vertex with one loop per generator; as there are
    as many images as generators and F_N is Hopfian, they then form a
    basis."""
    parent: list[int] = [0]
    out: list[dict[str, int]] = [{}]  # out[v][c] = w: an edge v -> w reading c
    edges = []
    for s in basis.symbols:
        image = reduce_word(marking[s], basis)
        # the loop of the image: new vertices between its letters, base at both ends
        inner = list(range(len(out), len(out) + len(image) - 1))
        parent += inner
        out += ({} for _ in inner)
        path = [0, *inner, 0]
        for v, c, w in zip(path, image, path[1:]):
            edges += [(v, c, w), (w, invert_word(c), v)]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    while edges:
        v, c, w = edges.pop()
        v, w = find(v), find(w)
        x = find(out[v].setdefault(c, w))
        if x != w:
            # fold: w joins x, and its edges move to x
            parent[w] = x
            edges += [(x, d, y) for d, y in out[w].items()]
            out[w] = {}
    return sum(parent[v] == v for v in range(len(parent))) == 1 and len(out[find(0)]) == 2 * basis.rank


def _rose(marking: Mapping[str, str], edge_lengths: Mapping[str, Num], basis: Basis | None) -> tuple:
    """(state, product, length, unit, pair) of the rose length function.

    The state of a word is its reduced marking image and the image's norm:
    applying the marking commutes with free reduction, so the word is not
    pre-reduced, and the image of a product of reduced words is the
    reduced product of their images.  The norm is the weighted letter
    count, each weight an int over ``unit``, the lcm of the weights'
    denominators (a float weight is taken at its binary value).  The
    length of a state is the norm of the image's cyclic core, the pair of
    it with the empty word."""
    if basis is None:
        basis = Basis(len(marking))
    for name, keys in (("marking", marking), ("edge length", edge_lengths)):
        if set(keys) != set(basis.symbols):
            raise MarkingError(f"{name} keys {sorted(keys)} are not the generators {list(basis.symbols)}")
    if not nielsen_generates(marking, basis):
        raise MarkingError("marking images do not freely generate")
    table = _marking_table(marking)
    weights = [_exact(edge_lengths[g], MarkingError, "edge length of {}", g) for g in basis.symbols]
    unit = math.lcm(*(w.denominator for w in weights))
    weight_of = {}
    for g, w in zip(basis.symbols, weights):
        if not w > 0:
            raise MarkingError(f"edge length of {g} must be positive, got {edge_lengths[g]}")
        weight_of[g] = weight_of[g.upper()] = w.numerator * (unit // w.denominator)
    inverse = {c: invert_word(c) for c in weight_of}

    def norm(image: str) -> int:
        return sum(map(weight_of.__getitem__, image))

    def state(word: str) -> tuple[str, int]:
        basis.validate(word)
        image = reduce_word(word.translate(table))
        return image, norm(image)

    def product(a: tuple[str, int], b: tuple[str, int]) -> tuple[str, int]:
        image = reduced_product(a[0], b[0])
        return image, norm(image)

    def pair(a: tuple[str, int], b: tuple[str, int]) -> int:
        # one pass over the letters that cancel in x*y, building no word:
        # those at the junction, then matching pairs at the two outer ends
        # of the reduced product x[:i] + y[j:], which leave x[h:i] + y[j:k]
        (x, nx), (y, ny) = a, b
        h, i, j, k = 0, len(x), 0, len(y)
        cut = 0
        while i and j < k and x[i - 1] == inverse[y[j]]:
            cut += weight_of[y[j]]
            i -= 1
            j += 1
        while h < i and j < k and x[h] == inverse[y[k - 1]]:
            cut += weight_of[x[h]]
            h += 1
            k -= 1
        if h == i or j == k:
            # one part is used up; the rest of the other is a reduced word
            # whose own ends may still match
            w, h, i = (y, j, k) if h == i else (x, h, i)
            while i - h >= 2 and w[h] == inverse[w[i - 1]]:
                cut += weight_of[w[h]]
                h += 1
                i -= 1
        return nx + ny - 2 * cut

    return state, product, partial(pair, b=("", 0)), unit, pair


# -- length functions ----------------------------------------------------------


def _word_state(word: str) -> str:
    return word


def _over(n, unit: int) -> Num:
    """The value n / unit, exactly."""
    return Fraction(n, unit) if type(n) is int else n / unit


@dataclass(frozen=True, eq=False)
class LengthFunction:
    """A conjugacy-class length evaluator with a provenance tag.

    It also carries a per-word ``state`` with a ``product`` rule and a
    ``length`` over one ``unit``: for reduced words u and v,
    ``length(product(state(u), state(v))) / unit`` is the evaluator's value
    at uv.  By default the state is the word itself, the product is the
    reduced product, the unit is 1 and the length is the evaluator's value
    exactly (a float at its binary value, an integral Fraction as an int).
    The constructors below give roses, line actions and blends cheaper
    states, and set ``class_function`` when the function is invariant
    under inversion and conjugation by construction.  Their lengths are
    ints whenever every weight is rational.

    ``pair(a, b)`` is ``length(product(a, b))``; a rose computes it
    without building the product.  A rose also has a ``norm`` on states,
    the weighted letter count of the image: at least the length, the same
    at the inverse, and subadditive under products, since every weight
    is positive.  Every other function's norm is None.
    """

    evaluator: Callable[[str], Num]
    provenance: str
    state: Callable[[str], object] = field(init=False, repr=False)
    product: Callable[[object, object], object] = field(init=False, repr=False)
    length: Callable[[object], Num] = field(init=False, repr=False)
    class_function: bool = field(init=False, repr=False)
    unit: int = field(init=False, repr=False)
    pair: Callable[[object, object], Num] = field(init=False, repr=False)
    norm: Callable[[object], Num] | None = field(init=False, repr=False)

    def __post_init__(self):
        evaluator = self.evaluator

        def length(word: str) -> Num:
            # exactly, and integral values as ints, which compare and scale fastest
            x = evaluator(word)
            if type(x) is float:
                x = Fraction(x)
            return x.numerator if type(x) is Fraction and x.denominator == 1 else x

        _set_rule(self, _word_state, reduced_product, length, False)

    def __call__(self, word: str) -> Num:
        return self.evaluator(word)


def _set_rule(
    lf: LengthFunction, state, product, length, class_function: bool, unit=1, pair=None, norm=None
) -> LengthFunction:
    for name, value in (
        ("state", state),
        ("product", product),
        ("length", length),
        ("class_function", class_function),
        ("unit", unit),
        ("pair", pair or (lambda a, b: length(product(a, b)))),
        ("norm", norm),
    ):
        object.__setattr__(lf, name, value)
    return lf


def _vector_sum(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


@lru_cache(maxsize=16)
def _vector_state(basis: Basis) -> Callable[[str], tuple[int, ...]]:
    """The abelianization over the basis, one function for equal bases."""
    return partial(abelianization, basis=basis)


def length_function_from_line_action(action) -> LengthFunction:
    """|mu| on conjugacy classes; the state of a word is its abelianization
    vector, so products add vectors.  With rational weights the length is
    an int over the action's scale."""

    def ev(word: str) -> Num:
        try:
            return action.translation_length(word)  # reduces the word itself
        except EmptyWordError:
            return 0

    state = _vector_state(action.basis)
    lf = LengthFunction(ev, "line action")
    if action.radicands:
        return _set_rule(lf, state, _vector_sum, lambda vec: abs(action.mu_of_vector(vec)), True)
    return _set_rule(lf, state, _vector_sum, action.int_length, True, action.scale)


def length_function_from_marked_graph(
    marking: Mapping[str, str], edge_lengths: Mapping[str, Num], basis: Basis | None = None
) -> LengthFunction:
    state, product, length, unit, pair = _rose(marking, edge_lengths, basis)

    def ev(word: str) -> Fraction:
        return Fraction(length(state(word)), unit)

    lf = LengthFunction(ev, "marked graph")
    return _set_rule(lf, state, product, length, True, unit, pair, itemgetter(1))


def length_function_from_table(table: Mapping[str, Num]) -> LengthFunction:
    # ints and floats (at their exact binary value) become Fractions
    return LengthFunction(lambda w: Fraction(x) if isinstance(x := table[w], (int, float)) else x, "explicit table")


def _grid_slot(lam: Num, u0: int, u1: int) -> tuple:
    """(lam, p*u0, r*u1, q*u0*u1) for lam = p/q and r = q - p: the blend of
    lengths x0 and x1 over units u0 and u1 is p*u0*x1 + r*u1*x0 over
    q*u0*u1, so int lengths stay ints.  A float lam is taken at its exact
    binary value."""
    lam = Fraction(lam)
    if lam < 0 or lam > 1:
        raise BlendRangeError(f"lambda must lie in [0, 1], got {lam}")
    p, q = lam.numerator, lam.denominator
    return lam, p * u0, (q - p) * u1, q * u0 * u1


def blend_length_functions(lf0: LengthFunction, lf1: LengthFunction, lam: Num) -> LengthFunction:
    """lam*lf1 + (1-lam)*lf0 for lam = p/q in [0, 1], taken exactly (a float
    at its binary value).  Its state is the pair of the two states; for
    lengths x0 and x1 over units u0 and u1 its length is p*u0*x1 +
    (q-p)*u1*x0 over the unit q*u0*u1, and so are its pair and, when both
    have one, its norm, which is then again a norm by linearity."""
    lam, p, r, unit = _grid_slot(lam, lf0.unit, lf1.unit)
    state0, state1, len0, len1 = lf0.state, lf1.state, lf0.length, lf1.length

    def ev(word: str) -> Num:
        return _over(p * len1(state1(word)) + r * len0(state0(word)), unit)

    def state(word: str) -> tuple:
        return state0(word), state1(word)

    def product(a: tuple, b: tuple) -> tuple:
        return lf0.product(a[0], b[0]), lf1.product(a[1], b[1])

    def length(pair: tuple) -> Num:
        return p * len1(pair[1]) + r * len0(pair[0])

    def pair(a: tuple, b: tuple) -> Num:
        return p * lf1.pair(a[1], b[1]) + r * lf0.pair(a[0], b[0])

    def norm(a: tuple) -> Num:
        return p * lf1.norm(a[1]) + r * lf0.norm(a[0])

    blend = LengthFunction(ev, f"blend(lambda={lam})")
    class_function = lf0.class_function and lf1.class_function
    normed = lf0.norm is not None and lf1.norm is not None
    return _set_rule(blend, state, product, length, class_function, unit, pair, norm if normed else None)


def _worst_deviation(lam: Num, u0: int, u1: int, ub: int, rows) -> tuple[Num, list]:
    """The largest |xb - (lam*x1 + (1-lam)*x0)| over ``rows`` (item, x0, x1,
    xb), each x over its unit u, and the items attaining it, all exact (a
    float at its binary value).  For lam = p/q it is |q*xb - p*x1 -
    (q-p)*x0| / q, a numerator over a denominator until the result: a
    rational value is its integer ratio over its unit, a Surd its own."""
    p, q = Fraction(lam).as_integer_ratio()
    r = q - p
    # the worst deviation so far is worst_n / worst_d
    worst_n, worst_d, tied = 0, 1, []
    for item, x0, x1, xb in rows:
        if Surd in (type(x0), type(x1), type(xb)):
            n0, d0, n1, d1, nb, db = x0, u0, x1, u1, xb, ub
        else:
            (n0, d0), (n1, d1) = x0.as_integer_ratio(), x1.as_integer_ratio()
            nb, db = xb.as_integer_ratio()
            d0, d1, db = d0 * u0, d1 * u1, db * ub
        n = abs((q * nb * d1 - p * n1 * db) * d0 - r * n0 * d1 * db)
        d = q * d0 * d1 * db
        above, below = n * worst_d, worst_n * d
        if above > below:
            worst_n, worst_d, tied = n, d, [item]
        elif above == below:
            tied.append(item)
    return _over(worst_n, worst_d), tied


def affine_deviation(
    lf0: LengthFunction, lf1: LengthFunction, lf_blend: LengthFunction, lam: Num, words: Iterable[str]
) -> tuple[Num, str | None]:
    """The largest |lf_blend(w) - (lam*lf1(w) + (1-lam)*lf0(w))| over the
    words, exactly (see :func:`_worst_deviation`), and the largest word (in
    string order) attaining it; None when there are no words."""
    s0, s1, sb = lf0.state, lf1.state, lf_blend.state
    l0, l1, lb = lf0.length, lf1.length, lf_blend.length
    rows = ((w, l0(a := s0(w)), l1(a if s1 is s0 else s1(w)), lb(a if sb is s0 else sb(w))) for w in words)
    deviation, tied = _worst_deviation(lam, lf0.unit, lf1.unit, lf_blend.unit, rows)
    return deviation, max(tied, default=None)


def _line_blend_deviation(lf0, lf1, lf_blend, lam: Num, basis: Basis, maxlen: int) -> tuple[int, Num, set]:
    """The number of cyclically reduced words of length 1..maxlen, their
    :func:`affine_deviation` for line actions, and the set of states v (the
    abelianizations) attaining it, over |v|_1 <= maxlen.  The words have
    each such v but 0 below maxlen 4 (abAB); v = 0 deviates by 0 and has no
    shorter word, so it moves neither the maximum nor the largest tied word.
    Rank k has (2k-1)^n + 1 + (k-1)(1 + (-1)^n) words of length n: the trace
    of the n-th power of the letter-follower matrix."""
    k = basis.rank
    count = sum((2 * k - 1) ** n + 1 + (k - 1) * (1 + (-1) ** n) for n in range(1, maxlen + 1))
    rows = ((v, lf0.length(v), lf1.length(v), lf_blend.length(v)) for v in enumerate_integer_vectors(k, maxlen))
    deviation, tied = _worst_deviation(lam, lf0.unit, lf1.unit, lf_blend.unit, rows)
    return count, deviation, set(tied)


def convex_combination_length_check(
    lf0: LengthFunction, lf1: LengthFunction, lf_blend: LengthFunction, lam: Num, words: Iterable[str]
) -> Num:
    """The deviation alone of :func:`affine_deviation`."""
    return affine_deviation(lf0, lf1, lf_blend, lam, words)[0]


# -- axiom checking -------------------------------------------------------------


@dataclass(frozen=True)
class AxiomWitness:
    """A concrete violation, self-contained for replay: ``values`` holds
    every evaluated number the inequality needs."""

    kind: str  # "inversion" | "conjugation" | "product"
    u: str
    v: str | None
    values: dict

    def violates(self) -> bool:
        vals = self.values
        if self.kind == "inversion":
            return vals["u"] != vals["u_inv"]
        if self.kind == "conjugation":
            return vals["u"] != vals["conjugated"]
        return vals["uv"] != vals["uv_inv"] and max(vals["uv"], vals["uv_inv"]) > (
            vals["u"] + vals["v"]
        )


@dataclass(frozen=True)
class AxiomVerdict:
    ok: bool  # "no violation found", never "is a tree length function"
    witness: AxiomWitness | None
    words_checked: int


@dataclass(frozen=True)
class AxiomScanEntry:
    lam: Num
    ok: bool
    witness: AxiomWitness | None


def _axiom_scan(
    lf0: LengthFunction,
    lf1: LengthFunction,
    grid: Sequence[Num],
    words: Sequence[str],
    basis: Basis,
    conjugators: Sequence[str] | None,
    trees: bool = False,
) -> list[AxiomScanEntry]:
    """Axiom scan of every blend lam*lf1 + (1-lam)*lf0 on the grid, in one
    pass over ``words`` (reduced, distinct, in scan order).

    Per lambda, in scan order: inversion invariance, then conjugation
    invariance by each conjugator (default: every letter), then the
    pairing bound over unordered pairs u <= v (whenever |uv| and |uv^-1|
    differ, the larger is at most |u| + |v|).  Each lambda keeps its first
    witness; the scan stops once every lambda has one.

    Each word's state is computed once per function; the values at
    conjugates are lengths of products of states, and those at uv and
    uv^-1 the functions' pairs of states.  Nothing else is kept.  Every lambda is exact (a float at its binary value) and
    the functions' units go into the grid slots, so int lengths blend as
    ints, values compare exactly and Fractions appear only in witnesses.

    When both functions are class functions, no blend can break inversion
    or conjugation invariance, so that stage is skipped; and the pairs
    {u, v}, {u, v^-1}, {u^-1, v} and {u^-1, v^-1} have the same values and
    so violate together.  One of the last three comes earlier in scan
    order exactly when u^-1 precedes u or v^-1 precedes v, so pairs are
    then taken only over the words that precede their inverse (or whose
    inverse is not among the words), and the first witness per lambda is
    unchanged.

    A word is tight when its length equals its norm in both functions.
    For two tight words, |uv| and |uv^-1| are at most the norm sum |u| +
    |v| in both functions, so no lambda can violate and the pair is
    skipped.  A function without a norm has no tight words.  A pair whose
    |uv| and |uv^-1| are equal in both functions has them equal in every
    blend, so its lambdas are not tested one by one.

    ``trees`` says that both functions are translation-length functions of
    trees by construction (the two roses of ``rose_blend_axiom_scan``), so
    the Culler-Morgan axioms hold in each, and the scan uses two of their
    consequences.  (i) The slots lambda = 0 and 1 are lf0 and lf1
    themselves and cannot violate, so they are never pending.  (ii) In a
    tree, |uv| > |u| + |v| holds exactly when the axes of u and v are
    disjoint (for an elliptic element, its fixed set), and then |uv| =
    |uv^-1| = |u| + |v| + 2d for the distance d between them; when they
    meet, neither exceeds the sum.  So a pair whose |uv| exceeds its sum
    in both functions has |uv| = |uv^-1| in every blend, one that exceeds
    it in neither has both at most the sum in every blend, and |uv^-1| is
    computed only for the pairs in between.
    """
    slots = [_grid_slot(lam, lf0.unit, lf1.unit) for lam in grid]
    found: dict[int, AxiomWitness] = {}
    same = lf1 is lf0
    class_functions = lf0.class_function and lf1.class_function
    prod0, len0, pair0 = lf0.product, lf0.length, lf0.pair
    prod1, len1, pair1 = lf1.product, lf1.length, lf1.pair
    index = {w: i for i, w in enumerate(words)}
    inverses = [invert_word(w) for w in words]
    inverse_at = [index.get(w) for w in inverses]

    def states(lf: LengthFunction) -> tuple[list, list]:
        """The states of the words and of their inverses."""
        own = [lf.state(w) for w in words]
        return own, [own[k] if k is not None else lf.state(w) for k, w in zip(inverse_at, inverses)]

    s0, t0 = states(lf0)
    s1, t1 = (s0, t0) if same else states(lf1)

    def values(a0, a1) -> tuple:
        x0 = len0(a0)
        return x0, x0 if same else len1(a1)

    def record(s: int, kind: str, u: str, v: str | None, scaled: dict) -> None:
        q = slots[s][3]
        found[s] = AxiomWitness(kind, u, v, {k: _over(n, q) for k, n in scaled.items()})

    singles = [values(a0, a1) for a0, a1 in zip(s0, s1)]
    rows = range(len(words))
    if class_functions:
        rows = [i for i in rows if inverse_at[i] is None or inverse_at[i] > i]
    else:
        conj = []
        for v in basis.letters if conjugators is None else conjugators:
            c = reduce_word(v)
            conj.append((v, *(lf.state(w) for lf in (lf0, lf1) for w in (c, invert_word(c)))))

        def invariances():
            for i in range(len(words)):
                yield "inversion", i, None, "u_inv", t0[i], t1[i]
            for i in range(len(words)):
                for v, c0, ci0, c1, ci1 in conj:
                    o1 = None if same else prod1(prod1(c1, s1[i]), ci1)
                    yield "conjugation", i, v, "conjugated", prod0(prod0(c0, s0[i]), ci0), o1

        for kind, i, v, key, a0, a1 in invariances():
            if len(found) == len(slots):
                break
            (u0, u1), (o0, o1) = singles[i], values(a0, a1)
            if u0 == o0 and u1 == o1:
                continue
            for s, (_, p, r, _) in enumerate(slots):
                nu, no = p * u1 + r * u0, p * o1 + r * o0
                if s not in found and nu != no:
                    record(s, kind, words[i], v, {"u": nu, key: no})

    norm0, norm1 = lf0.norm, lf1.norm
    normed = norm0 is not None and norm1 is not None
    tight = [normed and norm0(a0) == x0 and norm1(a1) == x1 for a0, a1, (x0, x1) in zip(s0, s1, singles)]
    pending = [s for s in range(len(slots)) if s not in found and not (trees and 0 in slots[s][1:3])]
    for a, i in enumerate(rows):
        if not pending:
            break
        u0, u1 = singles[i]
        su0, su1, tight_u = s0[i], s1[i], tight[i]
        for j in rows[a:]:
            if tight_u and tight[j]:
                continue
            v0, v1 = singles[j]
            b0, b1 = u0 + v0, u1 + v1
            uv0 = pair0(su0, s0[j])
            uv1 = uv0 if same else pair1(su1, s1[j])
            if trees and (uv0 > b0) == (uv1 > b1):
                continue
            ui0 = pair0(su0, t0[j])
            ui1 = ui0 if same else pair1(su1, t1[j])
            # no lambda in [0, 1] can violate when neither function has a
            # positive margin against the sum bound, or when |uv| = |uv^-1|
            # in both (the disjoint-axes case), as then in every blend
            if uv0 <= b0 and uv1 <= b1 and ui0 <= b0 and ui1 <= b1 or uv0 == ui0 and uv1 == ui1:
                continue
            hits = len(found)
            for s in pending:
                _, p, r, _ = slots[s]
                nuv, nui = p * uv1 + r * uv0, p * ui1 + r * ui0
                nu, nv = p * u1 + r * u0, p * v1 + r * v0
                if nuv != nui and (nuv > nu + nv or nui > nu + nv):
                    scaled = {"uv": nuv, "uv_inv": nui, "u": nu, "v": nv}
                    record(s, "product", words[i], words[j], scaled)
            if len(found) > hits:
                pending = [s for s in pending if s not in found]
                if not pending:
                    break
    return [AxiomScanEntry(slot[0], s not in found, found.get(s)) for s, slot in enumerate(slots)]


def length_axiom_check(
    lf: LengthFunction,
    words: Sequence[str],
    basis: Basis | None = None,
    conjugators: Sequence[str] | None = None,
) -> AxiomVerdict:
    """Necessary conditions for coming from a tree: inversion invariance,
    conjugation invariance (by the given conjugators; letter conjugation
    composes to all of it for class functions), and the pairing bound over
    unordered pairs: whenever |uv| and |uv^-1| differ, the larger is at
    most |u| + |v|.  (Equal values are the disjoint-axes case, where both
    legitimately exceed the sum by twice the gap between the axes.)

    First witness in scan order wins; a pass means no violation found.
    (Words are freely reduced up front: a length function is a class
    function on group elements, so reduction cannot change any value.)
    This is the axiom scan on the one-point grid lambda = 1.
    """
    words = sorted({reduce_word(w) for w in words}, key=lambda w: (len(w), w))
    (entry,) = _axiom_scan(lf, lf, [1], words, basis or Basis(2), conjugators)
    return AxiomVerdict(entry.ok, entry.witness, len(words))


def rose_blend_axiom_scan(
    marking1: Mapping[str, str],
    lambdas: Sequence[Num],
    maxlen: int,
    basis: Basis | None = None,
    marking0: Mapping[str, str] | None = None,
    lengths0: Mapping[str, Num] | None = None,
    lengths1: Mapping[str, Num] | None = None,
) -> list[AxiomScanEntry]:
    """Axiom scan of the lambda-blends of two rose length functions (marking0
    defaults to the identity, lengths to 1) over all reduced words of
    length <= maxlen, sharing the word computations across the whole
    lambda grid.  The first witness per lambda is reported; blends of
    class functions keep inversion and conjugation invariance, so the
    witnesses found are product violations.  Both roses are tree length
    functions, so the scan leaves out what the tree axioms imply (see
    ``_axiom_scan``).

    In rank 2, a pair one theta graph apart (``_one_theta_apart``) passes at
    every lambda and word length, so the scan is skipped with the same entries.
    """
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    if basis is None:
        basis = Basis(2)
    marking0 = {s: s for s in basis.symbols} if marking0 is None else marking0
    unit = {s: 1 for s in basis.symbols}
    lf0 = length_function_from_marked_graph(marking0, unit if lengths0 is None else lengths0, basis)
    lf1 = length_function_from_marked_graph(marking1, unit if lengths1 is None else lengths1, basis)
    if basis.rank == 2 and _one_theta_apart(marking0, marking1, basis):
        return [AxiomScanEntry(_grid_slot(lam, 1, 1)[0], True, None) for lam in lambdas]
    return _axiom_scan(lf0, lf1, lambdas, reduced_words(basis, maxlen), basis, None, trees=True)


def _one_theta_apart(marking0: Mapping[str, str], marking1: Mapping[str, str], basis: Basis) -> bool:
    """Whether two rank-2 markings (both bases) collapse from one theta graph:
    M = A1 adj(A0) = +-A1 A0^-1, for A the images' abelianizations as
    columns, has every entry in {-1, 0, 1}.  Such an invertible M has a zero
    entry (else det M is even), so it is a signed permutation, or one times
    [[1, 1], [0, 1]] times another; as Out(F_2) -> GL(2, Z) is an isomorphism
    (Nielsen), the markings differ by a rose symmetry or b -> ab, up to inner
    automorphisms and rose symmetries.  Each blend is then the theta graph's
    length function at the interpolated edge lengths (Culler-Vogtmann 1986).
    With R the rows, adj(R0) R1 is M transposed."""
    (p, q), (r, s) = (abelianization(marking0[g], basis) for g in basis.symbols)
    rows = [abelianization(marking1[g], basis) for g in basis.symbols]
    return all(abs(x * c0 + y * c1) <= 1 for x, y in ((s, -q), (-r, p)) for c0, c1 in zip(*rows))
