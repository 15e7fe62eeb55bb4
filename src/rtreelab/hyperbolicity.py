"""Metric tables, Gromov products, four-point hyperbolicity certification,
and realization of 0-hyperbolic tables as metric trees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .tree import MetricTree, Num, UnknownPointError, _exactify


class InvalidTableError(ValueError):
    pass


class NotZeroHyperbolicError(ValueError):
    def __init__(self, witness: "FourPointWitness"):
        super().__init__(f"metric is not 0-hyperbolic: {witness}")
        self.witness = witness


@dataclass(frozen=True)
class FourPointWitness:
    """An ordered quadruple (x, y, z, w) violating
    (x,z)_w >= min{(x,y)_w, (y,z)_w} - delta, with the violation margin."""

    quadruple: tuple[str, str, str, str]
    margin: Num

    def __str__(self) -> str:
        x, y, z, w = self.quadruple
        return f"({x},{y},{z};{w}) violates the four-point inequality by {self.margin}"


@dataclass(frozen=True)
class HyperbolicityVerdict:
    passes: bool
    delta: Num
    witness: FourPointWitness | None = None


class MetricTable:
    """Finite symmetric metric (zero diagonal, triangle inequality checked).

    Besides the distances as given, the table keeps one index-addressed
    matrix that every scan runs on: for ``exact`` tables (all distances
    ``int`` or ``Fraction``) the distances times their common denominator
    ``scale``, as integers; for float tables the floats themselves, with
    scale 1.  Points are indexed in sorted name order.
    """

    def __init__(self, distances: Mapping[tuple[str, str], Num]):
        pts: set[str] = set()
        self._d: dict[tuple[str, str], Num] = {}
        for (x, y), raw in distances.items():
            pts.update((x, y))
            val = _exactify(raw)
            key = (x, y) if x <= y else (y, x)
            if key in self._d and self._d[key] != val:
                raise InvalidTableError(f"conflicting distances for {x},{y}")
            self._d[key] = val
        self.points = tuple(sorted(pts))
        self._validate()

    @classmethod
    def from_tree(cls, tree: MetricTree, points=None) -> "MetricTable":
        names = list(points) if points is not None else list(tree.point_names)
        return cls(
            {(a, b): tree.distance(a, b) for a, b in combinations(names, 2)}
            | {(n, n): 0 for n in names}
        )

    def _validate(self) -> None:
        for x, y in combinations(self.points, 2):
            if (x, y) not in self._d:
                raise InvalidTableError(f"missing distance {x},{y}")
            if not self._d[(x, y)] > 0:
                raise InvalidTableError(f"d({x},{y}) must be positive")
        for x in self.points:
            if self._d.get((x, x), 0) != 0:
                raise InvalidTableError(f"d({x},{x}) must be zero")
        self._build_matrix()
        m, n = self._m, len(self.points)
        for i in range(n - 2):
            mi = m[i]
            for j in range(i + 1, n - 1):
                mj, dij = m[j], mi[j]
                for k in range(j + 1, n):
                    dik, djk = mi[k], mj[k]
                    if dij > dik + djk or dik > dij + djk or djk > dij + dik:
                        x, y, z = self.points[i], self.points[j], self.points[k]
                        raise InvalidTableError(f"triangle inequality fails on ({x},{y},{z})")

    def _build_matrix(self) -> None:
        off_diagonal = list(combinations(self.points, 2))
        values = [self._d[key] for key in off_diagonal]
        self.exact = all(isinstance(v, Fraction) for v in values)
        if self.exact:
            self.scale = math.lcm(*(v.denominator for v in values)) if values else 1
            entries = [v.numerator * (self.scale // v.denominator) for v in values]
        else:
            self.scale = 1
            entries = [float(v) for v in values]
        index = {name: i for i, name in enumerate(self.points)}
        n = len(self.points)
        self._m = m = [[0] * n for _ in range(n)]
        for (x, y), v in zip(off_diagonal, entries):
            i, j = index[x], index[y]
            m[i][j] = m[j][i] = v

    def _unscale(self, v) -> Num:
        """A matrix value back in distance units."""
        return Fraction(v, self.scale) if self.exact else v

    def _threshold(self, delta: Num):
        """2*delta in matrix units: a quadruple violates the four-point
        inequality at delta exactly when its gap (twice the margin at
        delta 0, in matrix units) exceeds this."""
        if self.exact:
            return math.floor(2 * Fraction(delta) * self.scale)
        return 2 * delta

    def distance(self, x: str, y: str) -> Num:
        if x == y:
            if x not in self.points:
                raise UnknownPointError(x)
            return Fraction(0)
        key = (x, y) if x <= y else (y, x)
        if key not in self._d:
            raise UnknownPointError(f"{x} or {y}")
        return self._d[key]

    def gromov_product(self, x: str, z: str, w: str) -> Num:
        return (self.distance(w, x) + self.distance(w, z) - self.distance(x, z)) / 2

    def __repr__(self) -> str:
        return f"MetricTable({len(self.points)} points)"


def gromov_product(space: MetricTable, x: str, z: str, w: str) -> Num:
    return space.gromov_product(x, z, w)


def _max_gap(space: MetricTable, stop_above=None):
    """Largest gap between the largest and second-largest pairing sums over
    the 4-subsets of the table, in matrix units; returns the first gap above
    ``stop_above`` as soon as one is found."""
    m, n = space._m, len(space.points)
    worst = 0
    for i in range(n - 3):
        mi = m[i]
        for j in range(i + 1, n - 2):
            mj, dij = m[j], mi[j]
            for k in range(j + 1, n - 1):
                mk, dik, djk = m[k], mi[k], mj[k]
                for l in range(k + 1, n):
                    s1, s2, s3 = dij + mk[l], dik + mj[l], mi[l] + djk
                    hi, lo = (s1, s2) if s1 >= s2 else (s2, s1)
                    if s3 > hi:
                        gap = s3 - hi
                    elif s3 > lo:
                        gap = hi - s3
                    else:
                        gap = hi - lo
                    if gap > worst:
                        worst = gap
                        if stop_above is not None and gap > stop_above:
                            return gap
    return worst


def max_four_point_defect(space: MetricTable) -> Num:
    """The least delta for which check_hyperbolic passes: half the maximal
    gap between the largest and second-largest pairing sums over 4-subsets."""
    worst = _max_gap(space)
    return space._unscale(worst) / 2 if worst else Fraction(0)


def check_hyperbolic(space: MetricTable, delta: Num = 0) -> HyperbolicityVerdict:
    """Whether (x,z)_w >= min{(x,y)_w, (y,z)_w} - delta for every ordered
    quadruple of table points.

    Quadruples with a repeated point satisfy the inequality automatically
    (triangle inequality, validated at table construction), so the decision
    scans 4-subsets; a failing table is rescanned in lexicographic order of
    ordered quadruples so the reported witness is the first one.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    delta = _exactify(delta)
    limit = space._threshold(delta)
    if _max_gap(space, limit) <= limit:
        return HyperbolicityVerdict(True, delta)
    witness = first_violation(space, delta)
    assert witness is not None
    return HyperbolicityVerdict(False, delta, witness)


def first_violation(space: MetricTable, delta: Num = 0) -> FourPointWitness | None:
    """First ordered quadruple (lexicographic in point names) violating the
    four-point inequality, with its margin."""
    m, n, limit = space._m, len(space.points), space._threshold(delta)
    for x in range(n):
        mx = m[x]
        for y in range(n):
            my, dxy = m[y], mx[y]
            for z in range(n):
                mz, dxz, dyz = m[z], mx[z], my[z]
                for w in range(n):
                    # twice the Gromov products (x,y)_w, (y,z)_w, (x,z)_w
                    a = mx[w] + my[w] - dxy
                    b = my[w] + mz[w] - dyz
                    gap = (a if a < b else b) - (mx[w] + mz[w] - dxz)
                    if gap > limit:
                        quad = tuple(space.points[i] for i in (x, y, z, w))
                        return FourPointWitness(quad, space._unscale(gap) / 2 - delta)
    return None


def verify_witness(space: MetricTable, witness: FourPointWitness, delta: Num = 0) -> bool:
    """Re-evaluate a witness from the table: does it violate by exactly the
    reported margin?"""
    x, y, z, w = witness.quadruple
    gp = space.gromov_product
    margin = min(gp(x, y, w), gp(y, z, w)) - gp(x, z, w) - delta
    return margin == witness.margin and margin > 0


def reconstruct_tree(space: MetricTable) -> MetricTree:
    """Realize a 0-hyperbolic table as a MetricTree whose named points
    reproduce the table distances exactly.

    The tree grows rooted at the anchor ``space.points[0]``; the other
    points are inserted in sorted name order.  A new point x attaches at
    distance t = max over placed p of (x|p)_anchor from the anchor, on the
    path to a maximizing p, with a pendant edge of length d(anchor, x) - t,
    splitting an edge with a fresh Steiner vertex (".s1", ".s2", ..., skipping
    table point names) if needed.

    An exact table is realized first and then every distance is replayed
    through the tree; a table that a tree reproduces is a tree metric, hence
    0-hyperbolic, so no four-point scan runs unless the replay fails, and then
    the first violating quadruple is raised.  Exact equality proves nothing
    for floats, so a float table is scanned first and built without replay.
    """
    if not space.exact:
        verdict = check_hyperbolic(space, 0)
        if not verdict.passes:
            raise NotZeroHyperbolicError(verdict.witness)
        return _realize(space)
    tree = _realize(space)
    if realization_mismatch(space, tree) is not None:
        witness = first_violation(space, 0)
        assert witness is not None
        raise NotZeroHyperbolicError(witness)
    return tree


def realization_mismatch(space: MetricTable, tree: MetricTree) -> tuple[str, str] | None:
    """The first pair of table points (in sorted order) whose distance in
    the tree differs from the table, or None when the tree reproduces it."""
    points = space.points
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            if tree.distance(x, y) != space.distance(x, y):
                return x, y
    return None


def _realize(space: MetricTable) -> MetricTree:
    """The anchored realization behind reconstruct_tree, without checks.

    Vertices carry a parent and a root distance.  Every placed table point
    sits at (v, r): root distance r on the edge from vertex v up to its
    parent, or at v itself when r is v's root distance; a point whose
    pendant would be empty stays such a designated point.  Lengths are
    matrix values doubled, so that Gromov products keep the matrix's number
    type.
    """
    names, m = space.points, space._m
    anchor = names[0]
    parent: dict[str, str | None] = {anchor: None}
    root: dict[str, Num] = {anchor: 0}
    at: dict[str, tuple[str, Num]] = {anchor: (anchor, 0)}
    taken, counter = set(names), 0
    for i in range(1, len(names)):
        x, mi = names[i], m[i]
        # t = max over placed p of 2 (x|p)_anchor, attained at best
        t, best = 0, anchor
        for j in range(1, i):
            gp = mi[0] + m[j][0] - mi[j]
            if gp > t:
                t, best = gp, names[j]
        # walk up from best to root distance t (never past best: floats may round)
        vertex, r = at[best]
        t = min(t, r)
        while root[vertex] > t:
            below, vertex = vertex, parent[vertex]
        if 2 * mi[0] - t <= 0:
            at[x] = (vertex, t) if root[vertex] == t else (below, t)
            continue
        if root[vertex] != t:
            counter += 1
            while f".s{counter}" in taken:
                counter += 1
            vertex = f".s{counter}"
            parent[vertex], parent[below], root[vertex] = parent[below], vertex, t
            for p, (lower, r) in at.items():
                if lower == below and r <= t:
                    at[p] = (vertex, r)
        parent[x], root[x] = vertex, 2 * mi[0]
        at[x] = (x, root[x])

    def length(v):
        return space._unscale(v) / 2

    edges = [(v, u, length(root[v] - root[u])) for v, u in parent.items() if u is not None]
    points = []
    for p in names:
        lower, r = at[p]
        if p == lower:
            continue
        if r == root[lower]:
            points.append((p, lower))
        else:
            upper = parent[lower]
            # offsets run from the smaller-named endpoint of the edge
            u, v = sorted((upper, lower))
            points.append((p, u, v, length(r - root[upper] if u == upper else root[lower] - r)))
    return MetricTree(edges, points, vertices=(anchor,))
