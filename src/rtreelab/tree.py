"""Finite metric trees: distances, centers, segments, germs.

A ``MetricTree`` is a finite combinatorial tree with strictly positive edge
lengths.  Points are addressed by name (vertex names and designated point
names share one namespace) or by an explicit :class:`Location` inside an
edge.  Edge lengths and offsets are exact: ints and Fractions, and a float
is taken at its exact binary value, as in ``qmap`` and ``blend``; every
operation is a pure function of the immutable tree.

Every query runs on one rooted index: each vertex keeps its parent and its
root distance (an int over one scale), and each designated point only its
address, its Location made on demand.  An edge list is rooted at its
smallest vertex, over the common denominator of its lengths and offsets,
each read once as an integer ratio (a tree file hands over its literals'
ratios, with no Fraction per literal).  A realized table comes as a
parent map with int root distances (``_rooted``), rooted where it was
built, and a blend as its first tree's edges with int lengths blended
edge by edge (``_blend``), rooted as that tree; all take one DFS
(``_build``), and no answer depends on the root.  Fraction lengths are
made only when ``edges``, ``edge_length`` or a segment asks for them.
Building costs O(V); each query walks parent pointers, O(depth), and root
distance alone says which side climbs; the pairwise meets of n points cost
one preorder DFS and n - 1 walks, between preorder neighbours, plus an
O(n²) sweep of running minima.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Num = Union[int, Fraction, float]


class TreeStructureError(ValueError):
    pass


class UnknownPointError(KeyError):
    pass


def _exact(x, error: type[ValueError], where: str, *names) -> Fraction:
    """x as a Fraction if it is an int, a Fraction or a finite float, else ``error`` at ``where``."""
    if isinstance(x, (int, Fraction)) or isinstance(x, float) and math.isfinite(x):
        return x if isinstance(x, Fraction) else Fraction(x)
    raise error(f"{where.format(*names)} must be an int, a Fraction or a finite float, got {x!r}")


def _ratio(x, where: str, *names) -> tuple[int, int]:
    """A tree's length or offset as (numerator, denominator), read once; a
    file's literal comes as that pair already."""
    if isinstance(x, tuple):
        return x
    if not isinstance(x, (int, Fraction)):
        x = _exact(x, TreeStructureError, where, *names)
    return x.as_integer_ratio()


def canonical_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Location:
    """A point strictly inside an edge, at ``offset`` from the smaller-named
    endpoint of ``edge``."""

    edge: tuple[str, str]
    offset: Num

    def __repr__(self) -> str:
        u, v = self.edge
        return f"{u}-{v}@{self.offset}"


Point = Union[str, Location]


@dataclass(frozen=True)
class SegmentPiece:
    """One edge sub-interval of a segment, traversed from ``start`` to
    ``end`` (offsets from the canonical edge orientation)."""

    edge: tuple[str, str]
    start: Num
    end: Num

    @property
    def length(self) -> Num:
        return abs(self.end - self.start)


class MetricTree:
    """Immutable finite tree with positive edge lengths and named points.

    Parameters
    ----------
    edges:
        iterable of ``(u, v, length)``.
    points:
        iterable of ``(name, u, v, offset)`` placing a designated point at
        ``offset`` from ``u`` along edge ``(u, v)``, or ``(name, vertex)``
        placing it at a vertex.
    vertices:
        extra isolated vertices (only useful for the single-vertex tree).
    """

    def __init__(
        self,
        edges: Iterable[tuple[str, str, Num]],
        points: Iterable[tuple] = (),
        *,
        vertices: Iterable[str] = (),
    ):
        # each length read once (a file's literal as its ratio already): the
        # numerators per edge and denominators in order, scaled to ints below
        lengths: dict[tuple[str, str], int] = {}
        dens: list[int] = []
        adj: dict[str, list[tuple[str, tuple[str, str]]]] = defaultdict(list, {v: [] for v in vertices})
        for u, v, raw in edges:
            if u == v:
                raise TreeStructureError(f"loop edge at {u!r}")
            num, den = raw if isinstance(raw, tuple) else _ratio(raw, "length of edge {}-{}", u, v)
            if num <= 0:
                shown = Fraction(num, den) if isinstance(raw, tuple) else raw
                raise TreeStructureError(f"edge {u}-{v} has nonpositive length {shown}")
            e = (u, v) if u <= v else (v, u)
            if e in lengths:
                raise TreeStructureError(f"duplicate edge {u}-{v}")
            lengths[e] = num
            dens.append(den)
            adj[u].append((v, e))
            adj[v].append((u, e))
        if not adj:
            raise TreeStructureError("tree needs at least one vertex")
        if len(lengths) != len(adj) - 1:
            raise TreeStructureError(f"{len(adj)} vertices and {len(lengths)} edges cannot form a tree")
        points = list(points)
        offsets = [_ratio(p[3], "offset of {}", p[0]) for p in points if len(p) == 4]
        # one denominator puts every vertex and designated point on the grid
        scale = math.lcm(*dens, *(den for _, den in offsets))
        lengths = {e: num * (scale // den) for (e, num), den in zip(lengths.items(), dens)}
        offsets = iter([num * (scale // den) for num, den in offsets])
        placed = ((*p, None) if len(p) == 2 else (p[0], *self._edge_address(p[1], p[2], next(offsets))) for p in points)
        self._build(dict(adj), scale, lengths, min(adj), placed)

    @classmethod
    def _rooted(cls, parent: dict, root: dict, scale: int, at: dict) -> MetricTree:
        """The tree of a parent map (None at the root) with int root distances
        over ``scale``, and designated points at addresses (v, r), v any vertex
        at or below the point; unchecked, as its caller built a tree."""
        tree, adj, lengths = cls.__new__(cls), {v: [] for v in parent}, {}
        for v, up in parent.items():
            if up is not None:
                e = canonical_edge(v, up)
                lengths[e] = root[v] - root[up]
                adj[v].append((up, e))
                adj[up].append((v, e))
        top = next(v for v, up in parent.items() if up is None)
        tree._build(adj, scale, lengths, top, ((name, *a) for name, a in at.items()))
        return tree

    def _blend(self, other: MetricTree, p: int, q: int) -> MetricTree:
        """blend_metric at p/q, rooted as this tree: ``other`` has its edges
        and each point at the same vertex or on the same edge."""
        tree, w0, w1 = MetricTree.__new__(MetricTree), (q - p) * other._scale, p * self._scale
        lengths = {e: w0 * n + w1 * other._lengths[e] for e, n in self._lengths.items()}
        at = {}
        for name in sorted(self._addr):  # its lower end v here is an end of its edge in other too
            (v, r), r1 = self._addr[name], other._addr[name][1]
            at[name] = v, w0 * (self._root[v] - r) + w1 * abs(other._root[v] - r1)
        points = ((name, v, tree._root[v] - d) for name, (v, d) in at.items())
        tree._build(self._adj, q * self._scale * other._scale, lengths, next(iter(self._parent)), points)
        return tree

    # -- construction helpers -------------------------------------------------

    def _build(self, adj: dict, scale: int, lengths: dict, root: str, points: Iterable[tuple]) -> None:
        """The one DFS from ``root`` for the rooted index (parent and scaled
        root distance per vertex), then the designated points, each given as
        (name, v, r): the point at root distance r on the root path of
        vertex v, or the vertex v itself where r is None."""
        self._adj, self._scale, self._lengths = adj, scale, lengths
        self._parent: dict[str, str | None] = {root: None}
        self._root = {root: 0}
        parent, rooted, stack = self._parent, self._root, [root]
        while stack:
            x = stack.pop()
            r = rooted[x]
            for y, e in adj[x]:
                if y not in parent:
                    parent[y], rooted[y] = x, r + lengths[e]
                    stack.append(y)
        if len(parent) != len(adj):
            raise TreeStructureError("edge graph is not connected")

        # a designated point keeps its address only; its Location is made on demand
        self._addr: dict[str, tuple[str, Num]] = {}
        for name, v, r in points:
            if r is None and v not in adj:
                raise UnknownPointError(v)
            if name in adj or name in self._addr:
                raise TreeStructureError(f"point name {name!r} already in use")
            self._addr[name] = self._canonical(v, rooted[v] if r is None else r)
        # set here, so that filling it later keeps the instance dict's shared keys
        self._names: dict[tuple[str, Num], str] | None = None

    def _edge_address(self, u: str, v: str, s: Num) -> tuple[str, Num]:
        """The address of the point s index units from u along edge u-v."""
        e = canonical_edge(u, v)
        length = self._lengths.get(e)
        if length is None:
            raise UnknownPointError(f"no edge {u}-{v}")
        if u != e[0]:
            s = length - s
        if s < 0 or s > length:
            raise TreeStructureError(
                f"offset {self._unscale(s)} outside edge {e} of length {self._unscale(length)}"
            )
        a, b = e
        if self._parent[b] == a:  # b hangs below a
            return self._canonical(b, self._root[a] + s)
        return self._canonical(a, self._root[a] - s)

    # -- the rooted index ------------------------------------------------------
    # A point is addressed as (v, r): root distance r, in units of 1/scale,
    # on the edge from vertex v up to its parent (r is v's own root
    # distance at v).

    def _scaled(self, x: Fraction) -> Num:
        """x in index units; an int whenever x lies on the grid."""
        steps, off_grid = divmod(self._scale, x.denominator)
        return x * self._scale if off_grid else x.numerator * steps

    def _unscale(self, x: Num) -> Fraction:
        return Fraction(x, self._scale)

    def _address(self, p: Point) -> tuple[str, Num]:
        """The address of a vertex or designated point name, or a Location."""
        if isinstance(p, str):
            r = self._root.get(p)
            if r is None and p not in self._addr:
                raise UnknownPointError(p)
            return (p, r) if r is not None else self._addr[p]
        offset = _exact(p.offset, TreeStructureError, "offset of {}", p)
        return self._edge_address(p.edge[0], p.edge[1], self._scaled(offset))

    def _meet(self, a: tuple[str, Num], b: tuple[str, Num]) -> Num:
        """Root distance at which the root paths of two addresses part; root
        distance grows strictly downward, so a side at least as far down climbs."""
        (u, x), (v, y) = a, b
        parent, root = self._parent, self._root
        ru, rv = root[u], root[v]
        while u != v:
            while ru > rv:
                u = parent[u]
                ru = root[u]
            if u != v:
                v = parent[v]
                rv = root[v]
        return min(ru, x, y)

    def _offset(self, v: str, r: Num) -> Num:
        """Offset, from the smaller-named end, of the point at root distance
        r on the edge from v up to its parent; 0 at that end."""
        up, root = self._parent[v], self._root
        off = root[v] - r if v < up else r - root[up]
        return self._unscale(off) if off else 0

    def _canonical(self, v: str, r: Num) -> tuple[str, Num]:
        """The address of the point at root distance r on the root path of
        vertex v, moved up to the lowest vertex at or below the point."""
        parent, root = self._parent, self._root
        while (up := parent[v]) is not None and r <= root[up]:
            v = up
        return v, r

    def _meets(self, points: list) -> tuple[list, list[list]]:
        """The addresses of the points and the matrix of their pairwise
        meets; the diagonal holds each point's own root distance.  In
        preorder, ancestors first, a meet is the least of the adjacent meets
        between the two points (Bender and Farach-Colton's range minimum), so
        only n - 1 adjacent pairs walk the tree."""
        addr = [self._address(p) for p in points]
        parent, pre, stack = self._parent, {}, [next(iter(self._parent))]
        while stack:
            x = stack.pop()
            pre[x] = len(pre)
            stack.extend(y for y, _ in self._adj[x] if y != parent[x])
        order = sorted(range(len(addr)), key=lambda i: (pre[addr[i][0]], addr[i][1]))
        steps = [self._meet(addr[i], addr[j]) for i, j in zip(order, order[1:])]
        rows = [[a[1]] * len(addr) for a in addr]
        for k, i in enumerate(order):
            row, m = rows[i], addr[i][1]
            for j, step in zip(order[k + 1:], steps[k:]):
                m = step if step < m else m
                row[j] = rows[j][i] = m
        return addr, rows

    def _scaled_distances(self, points: list) -> list[list]:
        """The matrix of pairwise distances of the points in index units:
        ints over the tree's scale."""
        addr, meets = self._meets(points)
        roots = [a[1] for a in addr]
        # the diagonal meet is the point's own root distance: 0 on the diagonal
        return [[ri + rj - 2 * m for rj, m in zip(roots, row)] for ri, row in zip(roots, meets)]

    def _names_by_address(self) -> dict[tuple[str, Num], str]:
        """Address to name, as name_of names a point: a vertex name first,
        then the first designated name in sorted order; made on first use."""
        if self._names is None:
            self._names = {(v, r): v for v, r in self._root.items()}
            for name in sorted(self._addr):
                self._names.setdefault(self._addr[name], name)
        return self._names

    def _point_at(self, v: str, r: Num) -> Point:
        """The point at root distance r on the root path of vertex v."""
        v, r = self._canonical(v, r)
        if r >= self._root[v]:
            return v
        return Location(canonical_edge(v, self._parent[v]), self._offset(v, r))

    def _climb(self, v: str, r: Num, top: Num) -> list[SegmentPiece]:
        """The pieces from address (v, r) up its root path to root distance top."""
        pieces = []
        while r > top:
            up = self._parent[v]
            end = max(top, self._root[up])
            piece = SegmentPiece(canonical_edge(v, up), self._offset(v, r), self._offset(v, end))
            pieces.append(piece)
            v, r = up, end
        return pieces

    # -- introspection ---------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self._adj))

    @property
    def edges(self) -> tuple[tuple[str, str, Num], ...]:
        return tuple((u, v, self._unscale(length)) for (u, v), length in sorted(self._lengths.items()))

    @property
    def point_names(self) -> tuple[str, ...]:
        """Designated point names and vertex names, sorted."""
        return tuple(sorted(self._adj)) + tuple(sorted(self._addr))

    @property
    def designated(self) -> dict[str, Point]:
        return {name: self._point_at(*addr) for name, addr in self._addr.items()}

    def edge_length(self, u: str, v: str) -> Num:
        length = self._lengths.get(canonical_edge(u, v))
        if length is None:
            raise UnknownPointError(f"no edge {u}-{v}")
        return self._unscale(length)

    def resolve(self, p: Point) -> Point:
        """Normalize a point reference: vertex name, or interior Location."""
        return p if isinstance(p, str) and p in self._adj else self._point_at(*self._address(p))

    def name_of(self, p: Point) -> str | None:
        """Name addressing this location, if any (vertex name wins)."""
        v, r = addr = self._address(p)
        return v if r == self._root[v] else self._names_by_address().get(addr)

    def same_point(self, p: Point, q: Point) -> bool:
        return self.resolve(p) == self.resolve(q)

    # -- metric ----------------------------------------------------------------

    def distance(self, p: Point, q: Point) -> Num:
        a, b = self._address(p), self._address(q)
        return self._unscale(a[1] + b[1] - 2 * self._meet(a, b))

    def segment(self, p: Point, q: Point) -> list[SegmentPiece]:
        """The unique arc from p to q as ordered edge sub-intervals."""
        a, b = self._address(p), self._address(q)
        meet = self._meet(a, b)
        down = [SegmentPiece(s.edge, s.end, s.start) for s in reversed(self._climb(*b, meet))]
        return self._climb(*a, meet) + down

    def point_along(self, p: Point, q: Point, t: Num) -> Point:
        """The point of [p, q] at distance t from p."""
        t = _exact(t, ValueError, "t")
        a, b = self._address(p), self._address(q)
        meet = self._meet(a, b)
        total = self._unscale(a[1] + b[1] - 2 * meet)
        if t < 0 or t > total:
            raise ValueError(f"t={t} outside [0, {total}]")
        s, rise = self._scaled(t), a[1] - meet
        if s <= rise:
            return self._point_at(a[0], a[1] - s)
        return self._point_at(b[0], meet + s - rise)

    def midpoint(self, p: Point, q: Point) -> Point:
        return self.point_along(p, q, self.distance(p, q) / 2)

    # -- centers ---------------------------------------------------------------

    def center(self, p1: Point, p2: Point, p3: Point) -> Point:
        """The unique point Z with d(Pi,Pj) = d(Pi,Z) + d(Z,Pj) for all pairs:
        the deepest of the three pairwise meets of the root paths."""
        a, b, c = self._address(p1), self._address(p2), self._address(p3)
        ab, ac, bc = self._meet(a, b), self._meet(a, c), self._meet(b, c)
        deepest = max(ab, ac, bc)
        return self._point_at(b[0] if bc == deepest else a[0], deepest)

    def gromov_product(self, x: Point, z: Point, w: Point) -> Num:
        return (self.distance(w, x) + self.distance(w, z) - self.distance(x, z)) / 2

    def center_condition(self, w: Point, p: Point, q: Point, r: Point) -> bool:
        """Whether the center of (p, q, r) is also the center of (w, p, q):
        the inequality (p,q)_w >= max{(p,r)_w, (q,r)_w}, verbatim."""
        return self.gromov_product(p, q, w) >= max(
            self.gromov_product(p, r, w), self.gromov_product(q, r, w)
        )

    def germs(self, p: Point, points: Iterable[Point]) -> list[str | None]:
        """The direction at p containing each point, as a label, or None
        where the point is p; p is resolved once.

        Two points lie in one component of the tree minus p exactly when
        their germs at p are equal and not None.  The label is the first
        vertex other than p on the way from p to r (for p inside an edge,
        the end of that edge toward r).  Only addresses are compared,
        exactly: r lies below p when its root path passes through p.
        """
        u, ra = self._address(p)
        address, parent, root = self._address, self._parent, self._root
        up, top, inside = parent[u], root[u], ra < root[u]
        out = []
        for r in points:
            v, rb = (r, root[r]) if r in root else address(r)
            child = None
            # up to the root distance of p's vertex, the lowest at or below p
            while root[v] > top:
                child, v = v, parent[v]
            if v != u or rb < ra:
                out.append(up)
            elif rb == ra:
                out.append(None)
            else:
                # below p: along p's own edge, or into the child of the vertex p
                out.append(u if inside else child)
        return out

    def __repr__(self) -> str:
        return (
            f"MetricTree({len(self._adj)} vertices, {len(self._lengths)} edges, "
            f"{len(self._addr)} designated points)"
        )


def path_tree(lengths: Iterable[Num], names: Iterable[str] | None = None) -> MetricTree:
    """A path v0 - v1 - ... with the given edge lengths."""
    lengths = list(lengths)
    names = list(names) if names is not None else [f"v{i}" for i in range(len(lengths) + 1)]
    if len(names) != len(lengths) + 1:
        raise ValueError("need one more name than edge lengths")
    return MetricTree((names[i], names[i + 1], l) for i, l in enumerate(lengths))


def star_tree(legs: Mapping[str, Num], hub: str = "hub") -> MetricTree:
    """A star with the given leaf -> leg-length map."""
    return MetricTree((hub, leaf, l) for leaf, l in sorted(legs.items()))
