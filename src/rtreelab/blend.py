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
from itertools import chain
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
    total = 0  # integral weights add up as ints
    for g in basis.symbols:
        n = image.count(g) + image.count(g.upper())
        if n:
            total += n * edge_lengths[g]
    return _exactify(total)


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
    """lam*lf1 + (1-lam)*lf0, with lam taken exactly (a float at its binary value)."""
    lam = Fraction(lam)

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
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


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
    witness; the scan stops once every lambda has one.  Each word is
    evaluated once per function and the pair of values cached, integral
    values as ints: every lambda is exact (a float at its binary value), so
    int and Fraction values are compared exactly (integers for integral
    values), and Fractions appear only in witnesses.
    """
    slots = [_grid_slot(lam) for lam in grid]
    found: dict[int, AxiomWitness] = {}
    cache: dict[str, tuple] = {}

    def values(w: str) -> tuple:
        pair = cache.get(w)
        if pair is None:
            x0 = _integral(lf0(w))
            pair = cache[w] = (x0, x0 if lf1 is lf0 else _integral(lf1(w)))
        return pair

    def record(s: int, kind: str, u: str, v: str | None, scaled: dict) -> None:
        q = slots[s][3]
        found[s] = AxiomWitness(
            kind, u, v, {k: Fraction(n, q) if isinstance(n, int) else n / q for k, n in scaled.items()}
        )

    invariances = chain(
        (("inversion", u, None, "u_inv", invert_word(u)) for u in words),
        (
            ("conjugation", u, v, "conjugated", reduce_word(v + u + invert_word(v)))
            for u in words
            for v in (basis.letters if conjugators is None else conjugators)
        ),
    )
    for kind, u, v, key, other in invariances:
        if len(found) == len(slots):
            break
        (u0, u1), (o0, o1) = values(u), values(other)
        if u0 == o0 and u1 == o1:
            continue
        for s, (_, p, r, _) in enumerate(slots):
            nu, no = p * u1 + r * u0, p * o1 + r * o0
            if s not in found and nu != no:
                record(s, kind, u, v, {"u": nu, key: no})

    pending = [s for s in range(len(slots)) if s not in found]
    singles = [values(w) for w in words]
    inverses = [invert_word(w) for w in words]
    for i, u in enumerate(words):
        if not pending:
            break
        u0, u1 = singles[i]
        for j in range(i, len(words)):
            v0, v1 = singles[j]
            uv, ui = reduced_product(u, words[j]), reduced_product(u, inverses[j])
            uv0, uv1 = cache.get(uv) or values(uv)
            ui0, ui1 = cache.get(ui) or values(ui)
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
                    record(s, "product", u, words[j], scaled)
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
