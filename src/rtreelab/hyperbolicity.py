"""Metric tables, Gromov products, four-point hyperbolicity certification,
and realization of 0-hyperbolic tables as metric trees.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
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

    Every constructor validates eagerly.  A table read from rows is realized
    as a tree from its first point and every distance is replayed against
    that tree in integers, O(n²); when two or more rows are off, the reverse
    row order replays too, and the smaller off set is kept.  A row the tree
    does not reproduce is *off* the tree and left out of it; the other rows
    form a tree metric, hence a metric with no four-point defect, so every
    scan visits only tuples that touch ``_off``, less those that each off
    row's proxy (``_quiet_rows``) settles: O(n) triangles per loud row, and
    O(|off|·n) subsets once the defect is found, when one wrong distance
    explains each off row.  A tree's own distances are a tree metric, so
    ``from_tree`` has no row off and runs no replay.  With no row off,
    ``realized`` is set and no scan runs.
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
        # by default one name per place, as name_of picks it
        names = tree._names_by_address().values() if points is None else points
        table.points = tuple(sorted(set(names)))
        m = tree._scaled_distances(table.points)
        table._check_entries(m)
        table._adopt(m, tree._scale, [])
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
        ratios[k], per x, y, k of the index columns, checked and adopted with
        the smaller off set of the forward and the reverse replay.  A pair
        repeated in one order keeps its last value; in both orders it must
        agree, else the first row in its second order is the conflict."""
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
        off = _attachments(m, range(n))[1]
        if len(off) > 1:  # a wrong d(anchor, x) for an early x can put many later rows off
            off = min(off, sorted(_attachments(m, [0, *range(n - 1, 0, -1)])[1]), key=len)
        self._adopt(m, scale, off)

    def _adopt(self, m: list[list], scale: int, off: list[int]) -> None:
        """Take the checked matrix and its off rows (none for a tree's own
        distances), hang a proxy on each, and prove the triangle inequality:
        the other rows form a tree metric, and the scan covers the rest."""
        self._m, self.scale, self._off = m, scale, off
        self._index = {name: i for i, name in enumerate(self.points)}
        offs = set(off)
        # per off row o: its proxy, the rows of a tuple whose least off row is o, and the loud ones
        self._proxies = {o: _quiet_rows(m, offs, o) for o in off}
        self._pools = {o: [v for v in range(len(m)) if v > o or v not in offs] for o in off}
        self._louds = {o: [v for v in self._pools[o] if v not in self._proxies[o][0]] for o in off}
        self._triangle_scan()

    @property
    def realized(self) -> bool:
        """Whether the table is a tree metric, 0-hyperbolic: its realization
        reproduced every distance in the integer replay, or it was taken
        from a tree."""
        return not self._off

    def _triangle_scan(self) -> None:
        """Raise the first failing triangle in sorted point order: the least
        of the first failures per off row o, over the pairs a < b of its
        pool, met in the sorted order of (o, a, b).  With o's offset c >= 0,
        o and two quiet rows make a tree triangle with two sides lengthened
        by c, which holds, so only pairs with a loud row are checked, O(n)
        per loud row; with c < 0 every pair is."""
        m, firsts = self._m, []
        for o in self._off:
            (quiet, _, offset), pool, mo = self._proxies[o], self._pools[o], m[o]
            inner, loud = (quiet, self._louds[o]) if offset >= 0 else ((), pool)
            pairs = (
                (a, b) for i, a in enumerate(pool) for b in (loud[bisect_right(loud, a) :] if a in inner else pool[i + 1 :])
            )
            for a, b in pairs:
                if mo[a] > mo[b] + m[a][b] or mo[b] > mo[a] + m[a][b] or m[a][b] > mo[a] + mo[b]:
                    firsts.append(sorted((o, a, b)))
                    break
        if firsts:
            x, y, z = map(self.points.__getitem__, min(firsts))
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


def _quiet_rows(m: list[list], off: set[int], o: int) -> tuple[set[int], list[int], int]:
    """Off row o's proxy o′: its quiet class (the on-tree rows of its most
    common error), its errors e_j and its doubled offset 2c, in matrix
    units.  From base z, with a_j = d(z, j), o′ hangs on the on-tree rows'
    tree at doubled height h = min(t, 2 a_best) on the path to best, the
    first on-tree j to attain t = max a_o + a_j - m[o][j].  With e_j =
    m[o][j] - a_j + min(h, a_best + a_j - m[best][j]), d(o, j) = d(o′, j) +
    e_j - h/2 on on-tree rows, and c = mode - h/2; so the gap of {o, a, b,
    c} is at most the span of e_a, e_b and e_c (an off row's reads as the
    mode).  A wrong d(o, z) or d(o, best) moves o′, so the bases are the
    anchor, a middle and the last on-tree row, until one leaves at most one
    row loud."""
    on, mo, quiet = [j for j in range(len(m)) if j not in off], m[o], None
    for z in (on[0], on[len(on) // 2], on[-1]):
        a = m[z]
        products = [a[o] + a[j] - mo[j] for j in on]
        best = on[products.index(t := max(products))]
        h, ab, mb = min(t, 2 * a[best]), a[best], m[best]
        errors = [w - v + h if h + b < ab + v else w + ab - b for v, w, b in zip(a, mo, mb)]
        mode = Counter(errors).most_common(1)[0][0]
        rows = {j for j, e in enumerate(errors) if e == mode} - off
        if quiet is None or len(rows) > len(quiet):
            quiet, kept, offset = rows, [mode if j in off else e for j, e in enumerate(errors)], 2 * mode - h
        if len(quiet) + 1 >= len(on):
            break
    return quiet, kept, offset


def _four_point_scan(space: MetricTable, limit: int | None = None):
    """The four-point scan, in matrix units.  Write S(ab|cd) = d(a,b) +
    d(c,d); a 4-subset's gap is its largest pairing sum less the second.
    Twice min{(x,y)_w, (y,z)_w} - (x,z)_w is S(xz|yw) - max{S(xy|zw),
    S(yz|xw)}: (x, y, z, w) violates at delta exactly when {xz|yw} is the
    strictly largest pairing and the gap exceeds 2*delta, by gap/2 - delta.
    A subset's least such ordering has its smallest point as x, x's
    partner as z and the other pair in order as y and w.

    On-tree rows have gap 0; a subset with one off row o, at most the span
    of o's proxy errors over its other rows (``_quiet_rows``).  Each other
    subset with an off row is visited once, by smallest point x, smallest
    off point s (a level), then p < q, and a level whose subsets all have
    one off row skips, before any slice, itself or a p whose rows' errors
    span at most the bar (the best gap so far, or the limit).  O(|off|·n)
    with one off row once the bar is reached, O(|off|²·n²) with two, O(n⁴)
    when nearly every row is off.  With no ``limit`` it returns the largest
    gap, else the least violating (x, y, z, w, gap) of the first x with a
    gap above it, or None.
    """
    m, n, off, last_off = space._m, len(space.points), set(space._off), max(space._off, default=-1)
    proxies, pools, louds = space._proxies, space._pools, space._louds
    # per off row o: the largest and the least error over the rows from v on
    most = {o: list(accumulate(reversed(proxies[o][1]), max))[::-1] for o in off}
    least = {o: list(accumulate(reversed(proxies[o][1]), min))[::-1] for o in off}
    bar, first = limit or 0, None
    # a subset whose smallest point is after the last off row holds none
    for x in range(last_off + 1):
        mx, x_off = m[x], x in off
        for s in range(x + 1, n - 2) if x_off else space._off[bisect_right(space._off, x) :]:
            # o: the level's least off row, f: its other fixed row; lone: o is every subset's one off row
            o, f = (x, s) if x_off else (s, x)
            (quiet, errors, _), top, bottom = proxies[o], most[o], least[o]
            lone = f not in off and last_off <= s
            if lone and top[f] - bottom[f] <= bar:
                continue
            pool = range(s + 1, n) if x_off else pools[o][bisect_right(pools[o], x) :]
            loud = louds[o] if x_off else louds[o][bisect_right(louds[o], x) :]
            # with x and s, pairs p < q of pool, q loud if p is inner
            inner, loud = (quiet, loud) if f in quiet else ((), pool)
            ms, dxs, ef, last = m[s], mx[s], errors[f], loud[-1] if loud else -1
            for a, p in enumerate(pool):
                if p > last or first and min(s, p) > first[0]:
                    break  # no loud q > p is left, or y is at least min(s, p)
                if lone and max(ef, top[p]) - min(ef, bottom[p]) <= bar:
                    continue
                mp, dxp, dsp = m[p], mx[p], ms[p]
                for q in loud[bisect_right(loud, p) :] if p in inner else pool[a + 1 :]:
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
    row that the tree cannot explain (``_four_point_scan``).
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

    Whether the table is a tree metric was settled when it was built, so no
    four-point scan runs unless it is not, and then the first violating
    quadruple is raised.  The attachments are computed here, one O(n²)
    pass.
    """
    if not space.realized:
        witness = first_violation(space, 0)
        assert witness is not None
        raise NotZeroHyperbolicError(witness)
    return _realize(space, _attachments(space._m, range(len(space.points)))[0])


def _attachments(m: list[list], order) -> tuple[list[tuple[int, int]], list[int]]:
    """Per row i of ``order``, which starts at the anchor 0, (t, best): t =
    max over the rows j before i of 2 (x_i|x_j)_{x_0} in matrix units, first
    attained at j = best (0 when the max is 0).  The anchored realization
    hangs x_i at root distance t on the root path of x_best.

    Check that this tree reproduces every distance, and return with the
    attachments the rows where it does not, in order: such
    a row is off the tree and left out of the later rows' products, so
    every max runs over the on-tree rows before i.  While the tree reproduces
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
    for i in order[1:]:
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
    attachments, without checks: a parent map and root distances, rooted
    at the anchor, handed to ``MetricTree._rooted``.

    Every placed table point sits at (v, r): root distance r on the root
    path of vertex v, at or below the point; a point whose pendant would
    be empty stays such a designated point.  Root distances are matrix
    values doubled, so that Gromov products stay integers.
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
        # the replay holds t to best's own root distance at most, so best's
        # vertex lies at or below root distance t
        vertex = at[names[best]][0]
        if 2 * mi[0] <= t:
            at[x] = (vertex, t)
            continue
        while root[vertex] > t:
            below, vertex = vertex, parent[vertex]
        if root[vertex] != t:
            counter += 1
            while f".s{counter}" in taken:
                counter += 1
            vertex = f".s{counter}"
            parent[vertex], parent[below], root[vertex] = parent[below], vertex, t
        parent[x], root[x] = vertex, 2 * mi[0]
        at[x] = (x, root[x])
    points = {p: a for p, a in at.items() if p not in parent}
    return MetricTree._rooted(parent, root, 2 * space.scale, points)
