"""Directions, the observers' topology, and convergence machinery.

The topology in play is generated by *directions*: for a point ``P`` and a
second point ``Q``, the direction of ``Q`` at ``P`` is the connected
component of the tree-minus-``P`` containing ``Q``.  Membership reduces to
the oracle's ``germs`` query (R lies in the direction of Q at P iff the
germs of R and Q at P are equal and not None), so everything here runs
over any :class:`~rtreelab.oracles.TreeOracle`, finite or lazy-infinite.

Convergence statements about infinite sequences are finitely probed:
verdicts are explicitly relative to a probe family and a truncation depth,
and carry stabilization certificates instead of unconditional claims.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Iterable, Sequence, Union

from .oracles import TreeOracle
from .tree import MetricTree, Num


class EmptySequenceError(ValueError):
    pass


class DegenerateSampleError(ValueError):
    pass


class ShapeMapError(ValueError):
    pass


@dataclass(frozen=True)
class Direction:
    """The component of the tree minus ``base`` containing ``representative``."""

    base: object
    representative: object

    def __repr__(self) -> str:
        return f"dir_{self.base}({self.representative})"


def _contains(oracle: TreeOracle, d: Direction, r) -> bool:
    # membership with the base itself counted as outside
    g, rep = oracle.germs(d.base, (r, d.representative))
    return g is not None and g == rep


def _slots(points) -> tuple[list, list[int]]:
    """The distinct points in order of first appearance, and the index of
    each point among them."""
    index: dict = {}
    slots = [index.setdefault(p, len(index)) for p in points]
    return list(index), slots


def _member_flags(oracle: TreeOracle, d: Direction, distinct: list, slots) -> list[bool]:
    """Whether the point in each slot lies in d (the base itself counted as
    outside): one ``germs`` query at the base, over the representative and
    the distinct points the slots name, in order of first appearance."""
    named = list(dict.fromkeys(slots))
    rep, *germs = oracle.germs(d.base, [d.representative, *map(distinct.__getitem__, named)])
    hits = [False] * len(distinct)
    for s, g in zip(named, germs):
        hits[s] = g is not None and g == rep
    return [hits[s] for s in slots]


def same_direction(oracle: TreeOracle, d1: Direction, d2: Direction) -> bool:
    """Same base point and same component."""
    return oracle.points_equal(d1.base, d2.base) and _contains(oracle, d1, d2.representative)


class PointSequence:
    """An indexed stream of oracle points, optionally of finite length."""

    def __init__(self, source: Union[Sequence, Callable[[int], object]], length: int | None = None):
        if callable(source):
            self._fn = source
            self.length = length
            self._items = None
        else:
            items = list(source)
            if length is not None:
                del items[max(length, 0):]
            self._items = items
            self._fn = items.__getitem__
            self.length = len(items)

    def point(self, i: int):
        if self.length is not None and i >= self.length:
            raise IndexError(i)
        return self._fn(i)

    def take(self, n: int) -> list:
        if self._items is not None:
            return self._items[: max(n, 0)]
        stop = n if self.length is None else min(n, self.length)
        return [self._fn(i) for i in range(stop)]

    def __iter__(self):
        i = 0
        while self.length is None or i < self.length:
            yield self._fn(i)
            i += 1


@dataclass(frozen=True)
class LiminfResult:
    """Endpoint estimate of the nested segment intersections from a basepoint.

    ``point`` is the endpoint of the intersection of the segments
    [basepoint, P_n] over the tail n = head..terms_used-1; ``certificate``
    is the distance between the endpoints for head-1 and head (0 means the
    estimate did not move when the last prefix term was dropped; inf at
    head 0, where no two endpoints were compared).
    """

    point: object
    certificate: Num
    terms_used: int
    head: int

    def stabilized(self, tol: Num = 0) -> bool:
        return self.certificate <= tol


def liminf_from(
    oracle: TreeOracle,
    basepoint,
    seq: PointSequence,
    depth: int,
    head: int | None = None,
) -> LiminfResult:
    """Inferior limit from a basepoint, truncated at ``depth`` sequence terms.

    R_m is the endpoint of the intersection of the segments [Q, P_n] over
    n = m..depth-1.  The reported point is R_m at m = ``head`` (default
    depth // 2: half the window is spent discarding the prefix, half
    certifying the tail), with the movement from R_{head-1} as certificate
    (inf at head 0).  Only those two endpoints are computed: the oracle's
    ``common_segment_end`` gives R_head, and one center query gives
    R_{head-1} = center(P_{head-1}, R_head, Q).  The terms before head-1
    are not visited.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if oracle.is_boundary(basepoint):
        raise ValueError("basepoint must not be a boundary point")
    terms = seq.take(depth)
    n = len(terms)
    if n == 0:
        raise EmptySequenceError("cannot take a limit of an empty sequence")
    h = n // 2 if head is None else head
    h = max(0, min(h, n - 1))
    oracle.canonical(basepoint)  # a bad basepoint raises, though the fold may not reach it
    point = oracle.common_segment_end(basepoint, terms[h:])
    # at head 0 nothing was compared: the estimate is uncertified
    if h == 0:
        return LiminfResult(point, math.inf, n, h)
    before = oracle.center(terms[h - 1], point, basepoint)
    return LiminfResult(point, oracle.distance(before, point), n, h)


@dataclass(frozen=True)
class ProbeReport:
    direction: Direction
    contains_limit: bool
    last_outside: int  # -1 when every term lies inside


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Consistency of a truncated sequence with convergence to a point,
    relative to a probe family: every probe direction containing the point
    must contain a nonempty tail of the sequence."""

    consistent: bool
    limit: object
    depth: int
    refuting: ProbeReport | None
    reports: tuple[ProbeReport, ...] = field(repr=False, default=())


def converges_obs(
    oracle: TreeOracle,
    seq: PointSequence,
    limit,
    probes: Iterable[Direction],
    depth: int,
) -> ConvergenceVerdict:
    probes = list(probes)
    if not probes:
        raise ValueError("need a nonempty probe family")
    terms = seq.take(depth)
    if not terms:
        raise EmptySequenceError("empty sequence")
    distinct, slots = _slots(terms)
    reports = []
    refuting = None
    for d in probes:
        if not _contains(oracle, d, limit):
            reports.append(ProbeReport(d, False, -1))
            continue
        flags = _member_flags(oracle, d, distinct, slots)
        last_out = max((i for i, hit in enumerate(flags) if not hit), default=-1)
        report = ProbeReport(d, True, last_out)
        reports.append(report)
        if last_out == len(terms) - 1 and refuting is None:
            refuting = report
    return ConvergenceVerdict(refuting is None, limit, len(terms), refuting, tuple(reports))


def subbasis_from_sample(oracle: TreeOracle, sample, k: int) -> list[Direction]:
    """Directions based at all pairwise midpoints of the first k distinct
    sample points, toward each sample point; duplicates (same base, same
    component) are dropped.  A countable neighborhood-basis approximation.
    Points and midpoints go by their canonical forms, each kept as first met.
    """
    if k < 2:
        raise DegenerateSampleError("need k >= 2 sample points")
    pts: dict = {}
    budget = max(1000, 50 * k)  # guard against low-diversity infinite streams
    for p in sample:
        budget -= 1
        if not oracle.is_boundary(p):
            pts.setdefault(oracle.canonical(p), p)
        if len(pts) == k or budget == 0:
            break
    if len(pts) < 2:
        raise DegenerateSampleError("sample yields fewer than 2 distinct points")
    mids: dict = {}
    for a, b in combinations(pts.values(), 2):
        m = oracle.midpoint(a, b)
        mids.setdefault(oracle.canonical(m), m)
    out: list[Direction] = []
    # the midpoints are distinct, so directions can only repeat at one midpoint
    for m in mids.values():
        seen = {None}
        for q, g in zip(pts.values(), oracle.germs(m, pts.values())):
            if g not in seen:
                seen.add(g)
                out.append(Direction(m, q))
    return out


@dataclass(frozen=True)
class ExtractionResult:
    indices: tuple[int, ...]
    limit: LiminfResult
    exhausted_at: int | None  # index into dirs where extraction ran dry


def extract_convergent_subsequence(
    oracle: TreeOracle,
    seq: PointSequence,
    dirs: Sequence[Direction],
    depth: int,
    basepoint=None,
) -> ExtractionResult:
    """Greedy diagonal extraction: for each direction in order, keep the
    majority side of the current index window (ties go to the side holding
    the latest index, the finite-depth proxy for the infinite side).  The
    limit is the liminf of the kept terms from the basepoint, by default
    the first kept term that is not a boundary point."""
    terms = seq.take(depth)
    if not terms:
        raise EmptySequenceError("empty sequence")
    distinct, slots = _slots(terms)
    indices = list(range(len(terms)))
    exhausted_at = None
    for j, d in enumerate(dirs):
        flags = _member_flags(oracle, d, distinct, [slots[i] for i in indices])
        inside = [i for i, hit in zip(indices, flags) if hit]
        outside = [i for i, hit in zip(indices, flags) if not hit]
        if len(inside) > len(outside):
            chosen = inside
        elif len(outside) > len(inside):
            chosen = outside
        else:
            chosen = inside if (inside and indices[-1] == inside[-1]) else outside
        if len(chosen) < 2:
            exhausted_at = j
            break
        indices = chosen
    if basepoint is None:
        basepoint = next((terms[i] for i in indices if not oracle.is_boundary(terms[i])), None)
        if basepoint is None:
            raise ValueError("every kept term is a boundary point; give a basepoint")
    sub = PointSequence([terms[i] for i in indices])
    limit = liminf_from(oracle, basepoint, sub, len(indices))
    return ExtractionResult(tuple(indices), limit, exhausted_at)


@dataclass(frozen=True)
class ShapeMapVerdict:
    passes: bool
    # ("segment", r, p, q): r lies on [p, q] on one side only; ("center",
    # x, y, z): the center of x, y, z is a named point on both sides, and
    # its name does not map to the name of its image
    witness: tuple | None = None


def verify_shape_map(tree_a: MetricTree, tree_b: MetricTree, bijection: dict) -> ShapeMapVerdict:
    """Whether a point bijection preserves centers and segment membership.

    Membership of r in [p, q] must agree on every ordered named triple, and
    the center of every named triple must correspond through the map (a
    center that is a named point on one side must be the image/preimage
    name on the other).  Both are read from one row of direction classes
    per named point (2n ``germs`` calls): r lies on [p, q] unless p and q
    share one germ at r.  The first triple (r, p, q) in sorted order whose
    membership differs is a segment witness.  With every row equal, the
    named centers are the names p that lie between two other names, and
    each maps to the center of the images; the witness is then the first
    such p whose name does not map to the name of its image, with the
    first pair of other names it lies between.
    """
    names_a = tree_a.point_names
    if sorted(bijection) != sorted(names_a):
        raise ShapeMapError("map must be defined exactly on the tree's named points")
    if len(set(bijection.values())) != len(bijection):
        raise ShapeMapError("map is not injective")
    for v in bijection.values():
        tree_b.resolve(v)
    names = sorted(names_a)
    images = [bijection[p] for p in names]
    rows_a = [_germ_classes(tree_a, r, names) for r in names]
    rows_b = [_germ_classes(tree_b, r, images) for r in images]
    for r, ca, cb in zip(names, rows_a, rows_b):
        if ca == cb:
            continue
        for i, j in product(range(len(names)), repeat=2):
            if (ca[i] < 0 or ca[i] != ca[j]) != (cb[i] < 0 or cb[i] != cb[j]):
                return ShapeMapVerdict(False, ("segment", r, names[i], names[j]))
    for k, (p, q, row) in enumerate(zip(names, images, rows_a)):
        if bijection[tree_a.name_of(p)] == tree_b.name_of(q):
            continue
        # p is a center when another name is an alias at p or two other
        # names sit in different directions at p
        others = [i for i in range(len(names)) if i != k]
        classes = {row[i] for i in others}
        if len(others) > 1 and (len(classes) > 1 or -1 in classes):
            i, j = next((i, j) for i, j in combinations(others, 2) if row[i] < 0 or row[i] != row[j])
            return ShapeMapVerdict(False, ("center", *sorted((p, names[i], names[j]))))
    return ShapeMapVerdict(True)


def _germ_classes(tree: MetricTree, r, points) -> list[int]:
    """Per point, -1 where it is r, else the index of the first point in
    the same direction at r."""
    first: dict = {}
    return [-1 if g is None else first.setdefault(g, i) for i, g in enumerate(tree.germs(r, points))]

