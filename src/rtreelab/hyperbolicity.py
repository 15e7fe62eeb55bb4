"""Metric tables, Gromov products, four-point hyperbolicity certification,
and realization of 0-hyperbolic tables as metric trees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .tree import MetricTree, Num, UnknownPointError, _exact


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
    """Finite symmetric metric (zero diagonal, positive off the diagonal,
    triangle inequality).

    Distances are exact: ints and Fractions, and a float is taken at its
    exact binary value, as in ``qmap`` and ``blend``.  They live in one
    index-addressed matrix, points in sorted name order, as integers: the
    distances times their common denominator ``scale``, built from rows
    (``_load``) or from a tree's integer distances (``from_tree``).

    Every constructor validates eagerly.  The table is realized as a tree
    from its first point and every distance is replayed against that tree
    in integers, O(n²).  A row the tree does not reproduce is *off* the
    tree and left out of it; the other rows form a tree metric, hence a
    metric with no four-point defect, so every scan visits only tuples that
    touch ``_off``: the triangle scan costs O(|off|·n² + n²), the defect
    O(|off|·n³).  With no row off, ``realized`` is set and no scan runs.
    """

    def __init__(self, distances: Mapping[tuple[str, str], Num]):
        ratios = [_exact(v, InvalidTableError, "d({},{})", *key).as_integer_ratio() for key, v in distances.items()]
        names = sorted({p for key in distances for p in key})
        index = {name: i for i, name in enumerate(names)}
        xs, ys = [index[x] for x, _ in distances], [index[y] for _, y in distances]
        self._load(names, xs, ys, range(len(ratios)), ratios)

    @classmethod
    def from_tree(cls, tree: MetricTree, points=None) -> "MetricTable":
        table = cls.__new__(cls)
        table.points = tuple(sorted(set(tree.point_names if points is None else points)))
        m = tree._scaled_distances(table.points)
        table._check_entries(m)
        table._adopt(m, tree._scale)
        return table

    def _check_entries(self, m: list[list]) -> None:
        """Missing and nonpositive distances, first pair in sorted order
        first, then nonzero diagonal entries; a missing diagonal becomes 0."""
        points, n = self.points, len(self.points)
        for i in range(n - 1):
            row = m[i]
            for j in range(i + 1, n):
                v = row[j]
                if v is None:
                    raise InvalidTableError(f"missing distance {points[i]},{points[j]}")
                if not v > 0:
                    raise InvalidTableError(f"d({points[i]},{points[j]}) must be positive")
        for i, x in enumerate(points):
            if m[i][i]:
                raise InvalidTableError(f"d({x},{x}) must be zero")
            m[i][i] = 0

    def _load(self, names: list[str], xs, ys, ks, ratios: list[tuple[int, int]]) -> None:
        """The one matrix of the rows d(names[x], names[y]) = p/q, (p, q) =
        ratios[k], per x, y, k of the index columns, checked and adopted.  A
        pair repeated in one order keeps its last value; in both orders it
        must agree, else the first row in its second order is the conflict."""
        n = len(names)
        order = sorted(range(n), key=names.__getitem__)
        self.points = tuple(map(names.__getitem__, order))
        rank = sorted(range(n), key=order.__getitem__)  # the inverse of order
        scale = math.lcm(*{q for _, q in ratios})
        values = [p * (scale // q) for p, q in ratios]

        def rows():
            return zip(map(rank.__getitem__, xs), map(rank.__getitem__, ys), map(values.__getitem__, ks))

        # mirrors first, then the rows as given: a pair given in one order
        # fills both cells, and only a conflict breaks symmetry
        m: list[list] = [[None] * n for _ in range(n)]
        for i, j, v in rows():
            m[j][i] = v
        for i, j, v in rows():
            m[i][j] = v
        if any(tuple(row) != col for row, col in zip(m, zip(*m))):
            seen = set()
            for i, j, _ in rows():
                if (j, i) in seen and (i, j) not in seen and m[i][j] != m[j][i]:
                    raise InvalidTableError(f"conflicting distances for {self.points[i]},{self.points[j]}")
                seen.add((i, j))
        self._check_entries(m)
        self._adopt(m, scale)

    def _adopt(self, m: list[list], scale: int) -> None:
        """Take the checked matrix and prove the triangle inequality: by the
        realization's replay on the rows it reproduces, by the scan on the
        triangles that touch an off row."""
        self._m, self.scale = m, scale
        self._index = {name: i for i, name in enumerate(self.points)}
        self._realization, self._off = _attachments(m)
        if self._off:
            self._triangle_scan()

    @property
    def realized(self) -> bool:
        """Whether the table's realization reproduced every distance in the
        integer replay: a tree metric, 0-hyperbolic."""
        return not self._off

    def _triangle_scan(self) -> None:
        m, n, off = self._m, len(self.points), self._off
        # the off rows after each on-tree j: the k that on-tree i < j need
        later = {j: [k for k in off if k > j] for j in range(n) if j not in off}
        for i in range(n - 2):
            mi, i_off = m[i], i in off
            for j in range(i + 1, n - 1):
                mj, dij = m[j], mi[j]
                for k in later[j] if not i_off and j in later else range(j + 1, n):
                    dik, djk = mi[k], mj[k]
                    if dij > dik + djk or dik > dij + djk or djk > dij + dik:
                        x, y, z = self.points[i], self.points[j], self.points[k]
                        raise InvalidTableError(f"triangle inequality fails on ({x},{y},{z})")

    def _unscale(self, v: int) -> Fraction:
        """A matrix value back in distance units."""
        return Fraction(v, self.scale)

    def distance(self, x: str, y: str) -> Num:
        if x == y:
            if x not in self._index:
                raise UnknownPointError(x)
            return Fraction(0)
        if x not in self._index or y not in self._index:
            raise UnknownPointError(f"{x} or {y}")
        return self._unscale(self._m[self._index[x]][self._index[y]])

    def gromov_product(self, x: str, z: str, w: str) -> Num:
        return (self.distance(w, x) + self.distance(w, z) - self.distance(x, z)) / 2

    def __repr__(self) -> str:
        return f"MetricTable({len(self.points)} points)"


def gromov_product(space: MetricTable, x: str, z: str, w: str) -> Num:
    return space.gromov_product(x, z, w)


def _four_point_scan(space: MetricTable, limit: int | None = None):
    """The four-point scan, in matrix units.  Write S(ab|cd) = d(a,b) +
    d(c,d); a 4-subset's gap is its largest pairing sum less the second.
    Twice min{(x,y)_w, (y,z)_w} - (x,z)_w is S(xz|yw) - max{S(xy|zw),
    S(yz|xw)}: (x, y, z, w) violates at delta exactly when {xz|yw} is the
    strictly largest pairing and the gap exceeds 2*delta, by gap/2 - delta.
    A subset's least such ordering has its smallest point as x, x's
    partner as z and the other pair in order as y and w.

    On-tree rows have gap 0, so each 4-subset with an off row is visited
    once, O(|off|·n³), by smallest point x ascending, then smallest off
    point.  With no ``limit`` it returns the largest gap, else the least
    violating (x, y, z, w, gap) of the first x with a gap above it, or None.
    """
    m, n, off = space._m, len(space.points), set(space._off)
    bar, first = limit or 0, None
    # a subset whose smallest point is after the last off row holds none
    for x in range(max(off, default=-1) + 1):
        mx = m[x]
        if x in off:
            plan = [(j, range(j + 1, n)) for j in range(x + 1, n - 2)]
        else:
            plan = [(o, [v for v in range(x + 1, n) if v > o or v not in off]) for o in off if o > x]
        for s, pool in plan:
            ms, dxs = m[s], mx[s]
            for a, p in enumerate(pool):
                if first and min(s, p) > first[0]:
                    break  # y is at least the least of s, p and q
                mp, dxp, dsp = m[p], mx[p], ms[p]
                for q in pool[a + 1 :]:
                    s1, s2, s3 = dxs + mp[q], dxp + ms[q], mx[q] + dsp
                    hi, lo = (s1, s2) if s1 >= s2 else (s2, s1)
                    if s3 > hi:
                        gap = s3 - hi
                    elif s3 > lo:
                        gap = hi - s3
                    else:
                        gap = hi - lo
                    if gap > bar:
                        if limit is None:
                            bar = gap
                            continue
                        z = q if s3 > hi else s if s1 > s2 else p
                        y, w = sorted({s, p, q} - {z})
                        if first is None or (y, z, w) < first[:3]:
                            first = (y, z, w, gap)
        if first is not None:
            return (x, *first)
    return bar if limit is None else None


def max_four_point_defect(space: MetricTable) -> Num:
    """The least delta for which check_hyperbolic passes: half the maximal
    gap between the largest and second-largest pairing sums over 4-subsets."""
    return space._unscale(_four_point_scan(space)) / 2


def check_hyperbolic(space: MetricTable, delta: Num = 0) -> HyperbolicityVerdict:
    """Whether (x,z)_w >= min{(x,y)_w, (y,z)_w} - delta for every ordered
    quadruple of table points, with the first witness when not.

    Quadruples with a repeated point satisfy the inequality automatically
    (triangle inequality, validated at table construction), and so do the
    on-tree rows, so the decision is one scan of the 4-subsets with an off
    row, O(|off|·n³).
    """
    witness = first_violation(space, delta)
    return HyperbolicityVerdict(witness is None, _exact(delta, ValueError, "delta"), witness)


def first_violation(space: MetricTable, delta: Num = 0) -> FourPointWitness | None:
    """First ordered quadruple (lexicographic in point names) violating the
    four-point inequality, with its margin."""
    delta = _exact(delta, ValueError, "delta")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    found = _four_point_scan(space, math.floor(2 * delta * space.scale))
    if found is None:
        return None
    *quad, gap = found
    return FourPointWitness(tuple(space.points[i] for i in quad), space._unscale(gap) / 2 - delta)


def verify_witness(space: MetricTable, witness: FourPointWitness, delta: Num = 0) -> bool:
    """Re-evaluate a witness from the table: does it violate by exactly the
    reported margin?"""
    x, y, z, w = witness.quadruple
    gp = space.gromov_product
    margin = min(gp(x, y, w), gp(y, z, w)) - gp(x, z, w) - _exact(delta, ValueError, "delta")
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

    The table was realized and replayed when it was built: a table that a
    tree reproduces is a tree metric, hence 0-hyperbolic, so no four-point
    scan runs unless the replay failed, and then the first violating
    quadruple is raised.
    """
    if not space.realized:
        witness = first_violation(space, 0)
        assert witness is not None
        raise NotZeroHyperbolicError(witness)
    return _realize(space, space._realization)


def _attachments(m: list[list]) -> tuple[list[tuple[int, int]], list[int]]:
    """Per point i in matrix order, (t, best): t = max over j < i of
    2 (x_i|x_j)_{x_0} in matrix units, first attained at j = best (0 when
    the max is 0).  The anchored realization hangs x_i at root distance t
    on the root path of x_best.

    Check that this tree reproduces every distance, and return with the
    attachments the rows where it does not, in order: such
    a row is off the tree and left out of the later rows' products, so
    every max runs over the on-tree rows j < i.  While the tree reproduces
    them, twice the Gromov product at the anchor of two of them is the root
    distance where their root paths part.  So the root paths of x_i and
    x_j part at min(t, 2 (x_best|x_j)_{x_0}), which must equal the table's
    2 (x_i|x_j)_{x_0}, and x_i sits at its table distance from the anchor
    unless t exceeds it.  Each row is O(i) integer work, O(n²) in all,
    with no tree built; the anchor is always on the tree.
    """
    if not m:
        return [], []
    anchor = [row[0] for row in m]
    out: list[tuple[int, int]] = [(0, 0)]
    tree, off = [0], []
    for i in range(1, len(m)):
        mi, a = m[i], anchor[i]
        products = [a + anchor[j] - mi[j] for j in tree]
        t = max(products)
        best = tree[products.index(t)]
        out.append((t, best))
        mb, b = m[best], anchor[best]
        t = min(t, 2 * b)
        if t <= 2 * a:
            for j, p in zip(tree, products):
                q = b + anchor[j] - mb[j]
                if (t if t < q else q) != p:
                    break
            else:
                tree.append(i)
                continue
        off.append(i)
    return out, off


def _realize(space: MetricTable, attachments: list[tuple[int, int]]) -> MetricTree:
    """The anchored realization behind reconstruct_tree, from the table's
    attachments, without checks.

    Vertices carry a parent and a root distance.  Every placed table point
    sits at (v, r): root distance r on the edge from vertex v up to its
    parent, or at v itself when r is v's root distance; a point whose
    pendant would be empty stays such a designated point.  Root distances
    are matrix values doubled, so that Gromov products stay integers.
    """
    names, m = space.points, space._m
    anchor = names[0]
    parent: dict[str, str | None] = {anchor: None}
    root: dict[str, int] = {anchor: 0}
    at: dict[str, tuple[str, int]] = {anchor: (anchor, 0)}
    taken, counter = set(names), 0
    for i in range(1, len(names)):
        x, mi = names[i], m[i]
        t, best = attachments[i]
        best = names[best]
        # walk up from best to root distance t, which the replay holds to
        # best's own root distance at most
        vertex = at[best][0]
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
