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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import add
from typing import Callable, Iterable, Mapping, Sequence

from .hyperbolicity import HyperbolicityVerdict, MetricTable, first_violation
from .observers import verify_shape_map
from .qmap import EmptyWordError
from .surds import Surd
from .tree import Location, MetricTree, Num, _exactify
from .words import (
    Basis,
    abelianization,
    cyclic_core,
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


def _rose_rule(
    marking: Mapping[str, str], edge_lengths: Mapping[str, Num], basis: Basis
) -> tuple[Callable[[str], str], Callable[[str], Num]]:
    """(state, length) of the rose length function.  The state of a word is
    its reduced marking image: applying the marking commutes with free
    reduction, so the word is not pre-reduced, and the image of a product
    of reduced words is the reduced product of their images.  The length of
    an image is the weighted length of its cyclic core, summed per
    generator (an int when the weights are ints)."""
    table = _marking_table(marking)
    symbols = [(g, g.upper()) for g in basis.symbols]

    def state(word: str) -> str:
        basis.validate(word)
        return reduce_word(word.translate(table))

    values = [edge_lengths.get(g) for g in basis.symbols]
    if all(type(w) is int for w in values) and len(set(values)) == 1:
        weight = values[0]

        def length(image: str) -> Num:
            # one int weight on every edge (every rose of the CLI): the sum
            # below as one product, which saves about a third of the time of
            # `blend axioms` at maxlen 6
            return weight * len(cyclic_core(image))

    else:

        def length(image: str) -> Num:
            core = cyclic_core(image)
            total = 0
            for g, inverse in symbols:
                n = core.count(g) + core.count(inverse)
                if n:
                    total += n * edge_lengths[g]
            return total

    return state, length


def marked_graph_length(
    marking: Mapping[str, str],
    edge_lengths: Mapping[str, Num],
    word: str,
    basis: Basis | None = None,
) -> Num:
    """Translation length on the rose: the weighted cyclically reduced
    length of the marking image, weights given per generator."""
    if basis is None:
        basis = Basis(len(marking))
    if not nielsen_generates(marking, basis):
        raise MarkingError("marking images do not freely generate")
    state, length = _rose_rule(marking, edge_lengths, basis)
    return _exactify(length(state(word)))


# -- length functions ----------------------------------------------------------


def _word_state(word: str) -> str:
    return word


@dataclass(frozen=True, eq=False)
class LengthFunction:
    """A conjugacy-class length evaluator with a provenance tag.

    It also carries a per-word ``state`` with a ``product`` rule: for
    reduced words u and v, ``length(product(state(u), state(v)))`` is the
    evaluator's value at uv.  By default the state is the word itself, the
    product is the reduced product and the length is the evaluator.  The
    constructors below give roses, line actions and blends cheaper states,
    and set ``class_function`` when the function is invariant under
    inversion and conjugation by construction.
    """

    evaluator: Callable[[str], Num]
    provenance: str
    state: Callable[[str], object] = field(init=False, repr=False)
    product: Callable[[object, object], object] = field(init=False, repr=False)
    length: Callable[[object], Num] = field(init=False, repr=False)
    class_function: bool = field(init=False, repr=False)
    # when set, int_length(state) is length(state) * unit, an int
    int_length: Callable[[object], int] | None = field(default=None, init=False, repr=False)
    unit: int = field(default=1, init=False, repr=False)

    def __post_init__(self):
        _set_rule(self, _word_state, reduced_product, self.evaluator, False)

    def __call__(self, word: str) -> Num:
        return self.evaluator(word)


def _set_rule(
    lf: LengthFunction, state, product, length, class_function: bool, int_length=None, unit=1
) -> LengthFunction:
    for name, value in (
        ("state", state),
        ("product", product),
        ("length", length),
        ("class_function", class_function),
        ("int_length", int_length),
        ("unit", unit),
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
    vector, so products add vectors.  With rational weights a length is
    also an int over the action's scale."""

    def ev(word: str) -> Num:
        try:
            return action.translation_length(word)  # reduces the word itself
        except EmptyWordError:
            return 0

    state = _vector_state(action.basis)

    def length(vec: tuple[int, ...]) -> Num:
        return abs(action.mu_of_vector(vec))

    lf = LengthFunction(ev, "line action")
    if action.radicands:
        return _set_rule(lf, state, _vector_sum, length, True)
    return _set_rule(lf, state, _vector_sum, length, True, action.int_length, action.scale)


def length_function_from_marked_graph(
    marking: Mapping[str, str], edge_lengths: Mapping[str, Num], basis: Basis | None = None
) -> LengthFunction:
    if basis is None:
        basis = Basis(len(marking))
    if not nielsen_generates(marking, basis):
        raise MarkingError("marking images do not freely generate")
    state, length = _rose_rule(marking, edge_lengths, basis)

    def ev(word: str) -> Num:
        return _exactify(length(state(word)))

    return _set_rule(LengthFunction(ev, "marked graph"), state, reduced_product, length, True)


def length_function_from_table(table: Mapping[str, Num]) -> LengthFunction:
    return LengthFunction(lambda w: _exactify(table[w]), "explicit table")


def blend_length_functions(lf0: LengthFunction, lf1: LengthFunction, lam: Num) -> LengthFunction:
    """lam*lf1 + (1-lam)*lf0, with lam taken exactly (a float at its binary
    value).  Its state is the pair of the two states."""
    lam = Fraction(lam)

    def ev(word: str) -> Num:
        return lam * lf1(word) + (1 - lam) * lf0(word)

    def state(word: str) -> tuple:
        return lf0.state(word), lf1.state(word)

    def product(a: tuple, b: tuple) -> tuple:
        return lf0.product(a[0], b[0]), lf1.product(a[1], b[1])

    def length(pair: tuple) -> Num:
        return lam * lf1.length(pair[1]) + (1 - lam) * lf0.length(pair[0])

    blend = LengthFunction(ev, f"blend(lambda={lam})")
    return _set_rule(blend, state, product, length, lf0.class_function and lf1.class_function)


_RATIONAL = frozenset((int, Fraction))


def _exact(x, unit: int):
    """A length as an exact number: an int over its unit, a float at its
    binary value, ints, Fractions and Surds as they are."""
    if unit:
        return Fraction(x, unit)
    return Fraction(x) if isinstance(x, float) else x


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
    value.  For lam = p/q and rational values x0, x1, xb the deviation is
    |q*xb - p*x1 - (q-p)*x0| / q, compared across words in integers over
    the values' denominators (a function with an ``int_length`` gives its
    numerator over its fixed ``unit``); a Fraction is made only for the
    result.  A word with an irrational value is measured in Surds.
    """
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    r = q - p

    def rule(lf):
        if lf.int_length is not None:
            return lf.state, lf.int_length, lf.unit
        return lf.state, lf.length, 0

    (s0, l0, u0), (s1, l1, u1), (sb, lb, ub) = map(rule, (lf0, lf1, lf_blend))
    # the worst deviation so far is worst_n / worst_d, or the Surd worst_surd
    worst_n, worst_d, worst_surd, worst_word = 0, 1, None, None
    for w in words:
        a0 = s0(w)
        x0, x1, xb = l0(a0), l1(a0 if s1 is s0 else s1(w)), lb(a0 if sb is s0 else sb(w))
        if not (type(x0) in _RATIONAL and type(x1) in _RATIONAL and type(xb) in _RATIONAL):
            v0, v1, vb = (_exact(x, u) for x, u in ((x0, u0), (x1, u1), (xb, ub)))
            dev = abs(vb - (lam * v1 + (1 - lam) * v0))
            worst = worst_surd if worst_surd is not None else Fraction(worst_n, worst_d)
            if dev > worst:
                worst_word = w
                if isinstance(dev, Surd):
                    worst_surd = dev
                else:
                    worst_n, worst_d, worst_surd = dev.numerator, dev.denominator, None
            elif dev == worst and (worst_word is None or w > worst_word):
                worst_word = w
            continue
        n0, d0 = (x0, u0) if u0 else (x0.numerator, x0.denominator)
        n1, d1 = (x1, u1) if u1 else (x1.numerator, x1.denominator)
        nb, db = (xb, ub) if ub else (xb.numerator, xb.denominator)
        n = abs((q * nb * d1 - p * n1 * db) * d0 - r * n0 * d1 * db)
        d = q * d0 * d1 * db
        if worst_surd is not None:
            above = Fraction(n, d) > worst_surd
            tie = False
        else:
            above, tie = n * worst_d > worst_n * d, n * worst_d == worst_n * d
        if above:
            worst_n, worst_d, worst_surd, worst_word = n, d, None, w
        elif tie and (worst_word is None or w > worst_word):
            worst_word = w
    if worst_surd is not None:
        return worst_surd, worst_word
    return Fraction(worst_n, worst_d), worst_word


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


def _grid_slot(lam: Num) -> tuple:
    """(lam, p, r, q): the blend lam*x1 + (1-lam)*x0 is held as p*x1 + r*x0
    in units of 1/q, so lam = p/q keeps integral values integral.  A float
    lam is taken at its exact binary value, as blend_length_functions does."""
    lam = Fraction(lam)
    if lam < 0 or lam > 1:
        raise BlendRangeError(f"lambda must lie in [0, 1], got {lam}")
    return lam, lam.numerator, lam.denominator - lam.numerator, lam.denominator


def _integral(x):
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


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

    Each word's state is computed once per function, and the values at
    conjugates, uv and uv^-1 are lengths of products of states; nothing
    else is kept.  Every lambda is exact (a float at its binary value) and
    integral values are held as ints, so values compare exactly and
    Fractions appear only in witnesses.

    When both functions are class functions, the pairs {u, v}, {u, v^-1},
    {u^-1, v} and {u^-1, v^-1} have the same values and so violate
    together.  One of the last three comes earlier in scan order exactly
    when u^-1 precedes u or v^-1 precedes v, so pairs are then taken only
    over the words that precede their inverse (or whose inverse is not
    among the words), and the first witness per lambda is unchanged.
    """
    slots = [_grid_slot(lam) for lam in grid]
    found: dict[int, AxiomWitness] = {}
    same = lf1 is lf0
    prod0, len0, prod1, len1 = lf0.product, lf0.length, lf1.product, lf1.length
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
        x0 = _integral(len0(a0))
        return x0, x0 if same else _integral(len1(a1))

    def record(s: int, kind: str, u: str, v: str | None, scaled: dict) -> None:
        q = slots[s][3]
        found[s] = AxiomWitness(
            kind, u, v, {k: Fraction(n, q) if isinstance(n, int) else n / q for k, n in scaled.items()}
        )

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

    singles = [values(a0, a1) for a0, a1 in zip(s0, s1)]
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

    pending = [s for s in range(len(slots)) if s not in found]
    rows = range(len(words))
    if lf0.class_function and lf1.class_function:
        rows = [i for i in rows if inverse_at[i] is None or inverse_at[i] > i]
    integral = _integral
    for a, i in enumerate(rows):
        if not pending:
            break
        u0, u1 = singles[i]
        su0, su1 = s0[i], s1[i]
        for j in rows[a:]:
            v0, v1 = singles[j]
            uv0, ui0 = integral(len0(prod0(su0, s0[j]))), integral(len0(prod0(su0, t0[j])))
            if same:
                uv1, ui1 = uv0, ui0
            else:
                uv1, ui1 = integral(len1(prod1(su1, s1[j]))), integral(len1(prod1(su1, t1[j])))
            b0, b1 = u0 + v0, u1 + v1
            # no positive margin against the sum bound in either function:
            # no lambda in [0, 1] can violate
            if uv0 <= b0 and uv1 <= b1 and ui0 <= b0 and ui1 <= b1:
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
