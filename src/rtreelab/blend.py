"""Convex combinations of compatible tree metrics, translation-length
linearity, and necessary-condition checking for tree length functions.

A compatible pair is two metric trees on the identical combinatorial shape
whose identity point map passes the shape verification (centers and
segment memberships agree).  Blending takes the edgewise affine
combination of the two length assignments; the certification route then
rebuilds a tree from the blended table and replays every distance through
it, which certifies 0-hyperbolicity and realizability at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .hyperbolicity import (
    HyperbolicityVerdict,
    MetricTable,
    NotZeroHyperbolicError,
    realization_mismatch,
    reconstruct_tree,
)
from .observers import verify_shape_map
from .tree import Location, MetricTree, Num, _exactify
from .words import (
    Basis,
    cyclic_reduce,
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
        return self.verdict.passes and bool(self.realizable)


def certify_rtree(space: MetricTable) -> CertifyResult:
    """Full certification at delta 0: rebuild a tree from the table and
    replay every distance through it.  reconstruct_tree replays an exact
    table itself and raises the first violating quadruple on a mismatch; a
    float table passes its four-point scan there and is replayed here."""
    try:
        rebuilt = reconstruct_tree(space)
    except NotZeroHyperbolicError as exc:
        verdict = HyperbolicityVerdict(False, Fraction(0), exc.witness)
        return CertifyResult(verdict, None, "four-point condition fails at delta=0")
    verdict = HyperbolicityVerdict(True, Fraction(0))
    mismatch = None if space.exact else realization_mismatch(space, rebuilt)
    if mismatch is not None:
        return CertifyResult(verdict, False, "realization mismatch at ({},{})".format(*mismatch))
    return CertifyResult(verdict, True, "0-hyperbolic; realized exactly by a finite tree")


# -- marked roses -------------------------------------------------------------


_MARKING_TABLES: dict[tuple, dict[int, str]] = {}


def _marking_table(marking: Mapping[str, str]) -> dict[int, str]:
    key = tuple(sorted(marking.items()))
    table = _MARKING_TABLES.get(key)
    if table is None:
        expanded = dict(marking) | {
            g.upper(): invert_word(image) for g, image in marking.items()
        }
        table = str.maketrans(expanded)
        _MARKING_TABLES[key] = table
    return table


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


def marked_graph_length(
    marking: Mapping[str, str],
    edge_lengths: Mapping[str, Num],
    word: str,
    basis: Basis | None = None,
    check_marking: bool = True,
) -> Num:
    """Translation length on the rose: the weighted cyclically reduced
    length of the marking image, weights given per generator."""
    if basis is None:
        basis = Basis(len(marking))
    if check_marking and not nielsen_generates(marking, basis):
        raise MarkingError("marking images do not freely generate")
    basis.validate(word)
    # applying the marking commutes with free reduction, so the input is
    # not pre-reduced; one reduction of the image suffices
    image = cyclic_reduce(apply_marking(marking, word))
    total = Fraction(0)
    for g in basis.symbols:
        n = image.count(g) + image.count(g.upper())
        if n:
            total += n * _exactify(edge_lengths[g])
    return total


# -- length functions ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LengthFunction:
    """A conjugacy-class length evaluator with a provenance tag."""

    evaluator: Callable[[str], Num]
    provenance: str

    def __call__(self, word: str) -> Num:
        return self.evaluator(word)


def length_function_from_line_action(action) -> LengthFunction:
    def ev(word: str) -> Num:
        w = cyclic_reduce(word)
        return 0 if not w else action.translation_length(w)

    return LengthFunction(ev, "line action")


def length_function_from_marked_graph(
    marking: Mapping[str, str], edge_lengths: Mapping[str, Num], basis: Basis | None = None
) -> LengthFunction:
    if basis is None:
        basis = Basis(len(marking))
    if not nielsen_generates(marking, basis):
        raise MarkingError("marking images do not freely generate")

    def ev(word: str) -> Num:
        return marked_graph_length(marking, edge_lengths, word, basis, check_marking=False)

    return LengthFunction(ev, "marked graph")


def length_function_from_table(table: Mapping[str, Num]) -> LengthFunction:
    return LengthFunction(lambda w: _exactify(table[w]), "explicit table")


def blend_length_functions(lf0: LengthFunction, lf1: LengthFunction, lam: Num) -> LengthFunction:
    lam = _exactify(lam)

    def ev(word: str) -> Num:
        return lam * lf1(word) + (1 - lam) * lf0(word)

    return LengthFunction(ev, f"blend(lambda={lam})")


def convex_combination_length_check(
    lf0: LengthFunction,
    lf1: LengthFunction,
    lf_blend: LengthFunction,
    lam: Num,
    words: Iterable[str],
) -> Num:
    """Max over the words of |lf_blend(w) - (lam*lf1(w) + (1-lam)*lf0(w))|."""
    lam = _exactify(lam)
    worst = Fraction(0)
    for w in words:
        deviation = abs(lf_blend(w) - (lam * lf1(w) + (1 - lam) * lf0(w)))
        worst = max(worst, deviation)
    return worst


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
    """
    words = sorted({reduce_word(w) for w in words}, key=lambda w: (len(w), w))
    if basis is None:
        basis = Basis(2)
    if conjugators is None:
        conjugators = list(basis.letters)
    values = {w: lf(w) for w in words}
    for u in words:
        inv = lf(invert_word(u))
        if inv != values[u]:
            return AxiomVerdict(
                False,
                AxiomWitness("inversion", u, None, {"u": values[u], "u_inv": inv}),
                len(words),
            )
    for u in words:
        for v in conjugators:
            conj = lf(reduce_word(v + u + invert_word(v)))
            if conj != values[u]:
                return AxiomVerdict(
                    False,
                    AxiomWitness(
                        "conjugation", u, v, {"u": values[u], "conjugated": conj}
                    ),
                    len(words),
                )
    for i, u in enumerate(words):
        for v in words[i:]:
            uv = lf(reduced_product(u, v))
            uv_inv = lf(reduced_product(u, invert_word(v)))
            if uv != uv_inv and max(uv, uv_inv) > values[u] + values[v]:
                return AxiomVerdict(
                    False,
                    AxiomWitness(
                        "product",
                        u,
                        v,
                        {"uv": uv, "uv_inv": uv_inv, "u": values[u], "v": values[v]},
                    ),
                    len(words),
                )
    return AxiomVerdict(True, None, len(words))


@dataclass(frozen=True)
class AxiomScanEntry:
    lam: Num
    ok: bool
    witness: AxiomWitness | None


def rose_blend_axiom_scan(
    marking1: Mapping[str, str],
    lambdas: Sequence[Num],
    maxlen: int,
    basis: Basis | None = None,
    marking0: Mapping[str, str] | None = None,
    lengths0: Mapping[str, Num] | None = None,
    lengths1: Mapping[str, Num] | None = None,
) -> list[AxiomScanEntry]:
    """Axiom scan of the lambda-blends of two rose length functions over all
    reduced words of length <= maxlen, sharing the word computations across
    the whole lambda grid.

    Inversion and conjugation invariance hold for any pointwise blend of
    class functions, so the scan searches the product condition; the first
    violating unordered pair (by (length, lex) of u then v) is reported per
    lambda.
    """
    if basis is None:
        basis = Basis(2)
    if marking0 is None:
        marking0 = {s: s for s in basis.symbols}
    if lengths0 is None:
        lengths0 = {s: 1 for s in basis.symbols}
    if lengths1 is None:
        lengths1 = {s: 1 for s in basis.symbols}
    for marking in (marking0, marking1):
        if not nielsen_generates(marking, basis):
            raise MarkingError("marking images do not freely generate")

    def make_length(marking: Mapping[str, str], lengths: Mapping[str, Num]):
        identity = all(marking[s] == s for s in basis.symbols)
        unit = all(lengths[s] == 1 for s in basis.symbols)
        if unit:
            if identity:
                return lambda cyc: len(cyc)
            return lambda cyc: len(cyclic_reduce(apply_marking(marking, cyc)))

        def value(cyc: str) -> Num:
            image = cyc if identity else cyclic_reduce(apply_marking(marking, cyc))
            total = 0
            for c in image:
                total += lengths[c.lower()]
            return total

        return value

    len0 = make_length(marking0, lengths0)
    len1 = make_length(marking1, lengths1)
    words = reduced_words(basis, maxlen)

    def pair_values(w: str) -> tuple[Num, Num]:
        cyc = cyclic_reduce(w)
        return (len0(cyc), len1(cyc))

    # one lambda = p/q turns each blended value into p*x1 + (q-p)*x0 in
    # 1/q units: integer arithmetic whenever the edge lengths are integral,
    # exact Fractions otherwise, shared across the whole grid in one pass
    grid = []
    for lam in lambdas:
        lam = _exactify(lam)
        if lam < 0 or lam > 1:
            raise BlendRangeError(f"lambda must lie in [0, 1], got {lam}")
        if isinstance(lam, Fraction):
            grid.append((lam, lam.numerator, lam.denominator - lam.numerator))
        else:
            grid.append((lam, lam, 1 - lam))
    found: list[AxiomWitness | None] = [None] * len(grid)
    single = {w: pair_values(w) for w in words}
    open_slots = len(grid)
    for i, u in enumerate(words):
        if open_slots == 0:
            break
        su0, su1 = single[u]
        for v in words[i:]:
            sv0, sv1 = single[v]
            suv0, suv1 = pair_values(reduced_product(u, v))
            sui0, sui1 = pair_values(reduced_product(u, invert_word(v)))
            # margins against the sum bound, per side; if neither side has a
            # positive margin in either metric, no lambda in [0,1] can
            # violate and the grid loop is skipped
            b0, b1 = su0 + sv0, su1 + sv1
            d0, d1 = suv0 - b0, suv1 - b1
            e0, e1 = sui0 - b0, sui1 - b1
            if d0 <= 0 and d1 <= 0 and e0 <= 0 and e1 <= 0:
                continue
            for slot, (lam, p, r) in enumerate(grid):
                if found[slot] is not None:
                    continue
                bound = p * b1 + r * b0
                nuv = p * suv1 + r * suv0
                nui = p * sui1 + r * sui0
                if nuv != nui and (nuv > bound or nui > bound):
                    q = p + r
                    found[slot] = AxiomWitness(
                        "product",
                        u,
                        v,
                        {
                            "uv": Fraction(nuv, q) if isinstance(nuv, int) else nuv / q,
                            "uv_inv": Fraction(nui, q) if isinstance(nui, int) else nui / q,
                            "u": Fraction(p * su1 + r * su0, q)
                            if isinstance(p, int)
                            else (p * su1 + r * su0) / q,
                            "v": Fraction(p * sv1 + r * sv0, q)
                            if isinstance(p, int)
                            else (p * sv1 + r * sv0) / q,
                        },
                    )
                    open_slots -= 1
            if open_slots == 0:
                break
    return [
        AxiomScanEntry(lam, found[slot] is None, found[slot])
        for slot, (lam, _, _) in enumerate(grid)
    ]
