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
from .tree import Location, MetricTree, Num, _exact, _exactify
from .words import (
    Basis,
    abelianization,
    invert_word,
    reduce_word,
    reduced_product,
    reduced_words,
)


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
        if {e[:2] for e in t0.edges} != {e[:2] for e in t1.edges}:
            raise IncompatiblePairError("edge sets differ")
        if sorted(t0.designated) != sorted(t1.designated):
            raise IncompatiblePairError("designated point names differ")
        for name, loc0 in t0.designated.items():
            loc1 = t1.designated[name]
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
    affinely as well)."""
    lam = _exactify(lam)
    if lam < 0 or lam > 1:
        raise BlendRangeError(f"lambda must lie in [0, 1], got {lam}")
    t0, t1 = pair.tree0, pair.tree1
    lengths1 = {e[:2]: e[2] for e in t1.edges}
    edges = [
        (u, v, lam * lengths1[(u, v)] + (1 - lam) * l0) for u, v, l0 in t0.edges
    ]
    points = []
    for name, loc0 in sorted(t0.designated.items()):
        loc1 = t1.designated[name]
        if isinstance(loc0, str):
            points.append((name, loc0))
        else:
            off = lam * loc1.offset + (1 - lam) * loc0.offset
            points.append((name, loc0.edge[0], loc0.edge[1], off))
    return MetricTree(edges, points, open_ends=t0.open_ends)


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
    of the table.  The table was realized and replayed when it was built,
    so only a failed replay costs a scan, for the first violating
    quadruple; ``realizable`` is then None."""
    if space.realized:
        verdict = HyperbolicityVerdict(True, Fraction(0))
        return CertifyResult(verdict, True, "0-hyperbolic; realized exactly by a finite tree")
    verdict = HyperbolicityVerdict(False, Fraction(0), first_violation(space, 0))
    return CertifyResult(verdict, None, "four-point condition fails at delta=0")


# -- marked roses -------------------------------------------------------------


def _marking_table(marking: Mapping[str, str]) -> dict[int, str]:
    """``str.translate`` table sending each letter to its marking image."""
    return str.maketrans(
        dict(marking) | {g.upper(): invert_word(image) for g, image in marking.items()}
    )


def apply_marking(marking: Mapping[str, str], word: str) -> str:
    """Image of a word under the endomorphism sending each generator to its
    marking image."""
    return reduce_word(word.translate(_marking_table(marking)))


def nielsen_generates(marking: Mapping[str, str], basis: Basis) -> bool:
    """Greedy Nielsen reduction of the image multiset: replace any image by
    a strictly shorter product with another (or its inverse) until no move
    shrinks the total length; the images generate freely iff the reduced
    multiset is the standard basis up to inversion and order.  Complete at
    desk scale for rank 2; a documented heuristic beyond."""
    images = [reduce_word(marking[s], basis) for s in basis.symbols]
    if any(not w for w in images):
        return False
    changed = True
    while changed:
        changed = False
        for i in range(len(images)):
            for j in range(len(images)):
                if i == j:
                    continue
                for other in (images[j], invert_word(images[j])):
                    for cand in (
                        reduce_word(images[i] + other),
                        reduce_word(other + images[i]),
                    ):
                        if cand and len(cand) < len(images[i]):
                            images[i] = cand
                            changed = True
    letters = sorted(w.lower() for w in images)
    return all(len(w) == 1 for w in images) and letters == sorted(basis.symbols)


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


def marked_graph_length(
    marking: Mapping[str, str],
    edge_lengths: Mapping[str, Num],
    word: str,
    basis: Basis | None = None,
) -> Fraction:
    """Translation length on the rose: the weighted cyclically reduced
    length of the marking image, weights given per generator."""
    return length_function_from_marked_graph(marking, edge_lengths, basis)(word)


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
    return LengthFunction(lambda w: _exactify(table[w]), "explicit table")


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


def affine_deviation(
    lf0: LengthFunction,
    lf1: LengthFunction,
    lf_blend: LengthFunction,
    lam: Num,
    words: Iterable[str],
) -> tuple[Num, str | None]:
    """The largest |lf_blend(w) - (lam*lf1(w) + (1-lam)*lf0(w))| over the
    words, and the largest word (in string order) attaining it; None when
    there are no words.  The deviation is Fraction(0) when every word's is
    0, else the value at the first word attaining the maximum.

    lam is taken exactly (a float at its binary value), and so is every
    value.  For lam = p/q and values x0, x1, xb the deviation is
    |q*xb - p*x1 - (q-p)*x0| / q, held as a numerator over a denominator:
    a rational value is its integer ratio over its function's unit, a
    Surd its own numerator.  A Fraction is made only for the result.
    """
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    r = q - p
    s0, l0, u0 = lf0.state, lf0.length, lf0.unit
    s1, l1, u1 = lf1.state, lf1.length, lf1.unit
    sb, lb, ub = lf_blend.state, lf_blend.length, lf_blend.unit
    # the worst deviation so far is worst_n / worst_d
    worst_n, worst_d, worst_word = 0, 1, None
    for w in words:
        a0 = s0(w)
        x0, x1, xb = l0(a0), l1(a0 if s1 is s0 else s1(w)), lb(a0 if sb is s0 else sb(w))
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
            worst_n, worst_d, worst_word = n, d, w
        elif above == below and (worst_word is None or w > worst_word):
            worst_word = w
    return _over(worst_n, worst_d), worst_word


def convex_combination_length_check(
    lf0: LengthFunction,
    lf1: LengthFunction,
    lf_blend: LengthFunction,
    lam: Num,
    words: Iterable[str],
) -> Num:
    """Max over the words of |lf_blend(w) - (lam*lf1(w) + (1-lam)*lf0(w))|,
    with lam taken exactly (a float at its binary value)."""
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
    pending = [s for s in range(len(slots)) if s not in found]
    for a, i in enumerate(rows):
        if not pending:
            break
        u0, u1 = singles[i]
        su0, su1, tight_u = s0[i], s1[i], tight[i]
        for j in rows[a:]:
            if tight_u and tight[j]:
                continue
            v0, v1 = singles[j]
            uv0, ui0 = pair0(su0, s0[j]), pair0(su0, t0[j])
            if same:
                uv1, ui1 = uv0, ui0
            else:
                uv1, ui1 = pair1(su1, s1[j]), pair1(su1, t1[j])
            b0, b1 = u0 + v0, u1 + v1
            # no lambda in [0, 1] can violate when neither function has a
            # positive margin against the sum bound, or when |uv| = |uv^-1|
            # in both (the disjoint-axes case), as then in every blend
            if uv0 <= b0 and uv1 <= b1 and ui0 <= b0 and ui1 <= b1 or uv0 == ui0 and uv1 == ui1:
                continue
            for s in pending:
                _, p, r, _ = slots[s]
                nuv, nui = p * uv1 + r * uv0, p * ui1 + r * ui0
                nu, nv = p * u1 + r * u0, p * v1 + r * v0
                if nuv != nui and (nuv > nu + nv or nui > nu + nv):
                    scaled = {"uv": nuv, "uv_inv": nui, "u": nu, "v": nv}
                    record(s, "product", words[i], words[j], scaled)
            if len(found) + len(pending) > len(slots):
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
    witnesses found are product violations.
    """
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    if basis is None:
        basis = Basis(2)
    identity = {s: s for s in basis.symbols}
    unit = {s: 1 for s in basis.symbols}
    lf0 = length_function_from_marked_graph(
        identity if marking0 is None else marking0, unit if lengths0 is None else lengths0, basis
    )
    lf1 = length_function_from_marked_graph(
        marking1, unit if lengths1 is None else lengths1, basis
    )
    return _axiom_scan(lf0, lf1, lambdas, reduced_words(basis, maxlen), basis, None)
