"""Finite metric trees: distances, centers, segments, extremal points.

A ``MetricTree`` is a finite combinatorial tree with strictly positive edge
lengths.  Points are addressed by name (vertex names and designated point
names share one namespace) or by an explicit :class:`Location` inside an
edge.  Edge lengths and offsets are exact: ints and Fractions, and a float
is taken at its exact binary value, as in ``qmap`` and ``blend``; every
operation is a pure function of the immutable tree.

Every query runs on one rooted index: the tree is rooted at its smallest
vertex, and each vertex keeps its parent, depth and root distance (ints
over the common denominator of the lengths and offsets).
Building costs O(V); each query walks parent pointers, O(depth).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Union

Num = Union[int, Fraction, float]


class TreeStructureError(ValueError):
    pass


class UnknownPointError(KeyError):
    pass


def _exactify(x: Num) -> Num:
    # ints and floats (at their exact binary value) become Fractions, so
    # that arithmetic stays exact
    return Fraction(x) if isinstance(x, (int, float)) else x


def _exact(x, error: type[ValueError], where: str, *names) -> Fraction:
    """x as a Fraction if it is an int, a Fraction or a finite float, else ``error`` at ``where``."""
    if isinstance(x, (int, Fraction)) or isinstance(x, float) and math.isfinite(x):
        return x if isinstance(x, Fraction) else Fraction(x)
    raise error(f"{where.format(*names)} must be an int, a Fraction or a finite float, got {x!r}")


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
    open_ends:
        vertices flagged as removed boundary (half-open ends); produced by
        :meth:`interior_tree`.
    """

    def __init__(
        self,
        edges: Iterable[tuple[str, str, Num]],
        points: Iterable[tuple] = (),
        *,
        vertices: Iterable[str] = (),
        open_ends: Iterable[str] = (),
    ):
        self._lengths: dict[tuple[str, str], Num] = {}
        adj: dict[str, list[tuple[str, Num]]] = {}
        for v in vertices:
            adj.setdefault(v, [])
        for u, v, raw in edges:
            if u == v:
                raise TreeStructureError(f"loop edge at {u!r}")
            length = _exact(raw, TreeStructureError, "length of edge {}-{}", u, v)
            if not length > 0:
                raise TreeStructureError(f"edge {u}-{v} has nonpositive length {raw}")
            e = canonical_edge(u, v)
            if e in self._lengths:
                raise TreeStructureError(f"duplicate edge {u}-{v}")
            self._lengths[e] = length
            adj.setdefault(u, []).append((v, length))
            adj.setdefault(v, []).append((u, length))
        if not adj:
            raise TreeStructureError("tree needs at least one vertex")
        if len(self._lengths) != len(adj) - 1:
            raise TreeStructureError(
                f"{len(adj)} vertices and {len(self._lengths)} edges cannot form a tree"
            )
        self._adj = adj
        points = list(points)
        # one denominator puts every vertex and designated point on the grid
        offsets = [_exact(p[3], TreeStructureError, "offset of {}", p[0]) for p in points if len(p) == 4]
        self._scale = math.lcm(*(x.denominator for x in chain(self._lengths.values(), offsets)))

        # the rooted index: parent, depth and scaled root distance per vertex
        root = min(adj)
        self._parent: dict[str, str | None] = {root: None}
        self._depth = {root: 0}
        self._root = {root: 0}
        stack = [root]
        while stack:
            x = stack.pop()
            for y, length in adj[x]:
                if y not in self._parent:
                    self._parent[y] = x
                    self._depth[y] = self._depth[x] + 1
                    self._root[y] = self._root[x] + self._scaled(length)
                    stack.append(y)
        if len(self._parent) != len(adj):
            raise TreeStructureError("edge graph is not connected")

        self._points: dict[str, Point] = {}
        for entry in points:
            if len(entry) == 2:
                name, vertex = entry
                if vertex not in adj:
                    raise UnknownPointError(vertex)
                loc: Point = vertex
            else:
                name, u, v, off = entry
                loc = self._normalize_edge_point(u, v, _exactify(off))
            if name in adj or name in self._points:
                raise TreeStructureError(f"point name {name!r} already in use")
            self._points[name] = loc
        self.open_ends = frozenset(open_ends)
        for v in self.open_ends:
            if v not in adj:
                raise UnknownPointError(v)
        self._addr = {v: (v, r) for v, r in self._root.items()}
        for name in sorted(self._points):
            self._addr[name] = self._locate(self._points[name])

    # -- construction helpers -------------------------------------------------

    def _normalize_edge_point(self, u: str, v: str, off: Num) -> Point:
        e = canonical_edge(u, v)
        if e not in self._lengths:
            raise UnknownPointError(f"no edge {u}-{v}")
        length = self._lengths[e]
        if u != e[0]:
            off = length - off
        if off < 0 or off > length:
            raise TreeStructureError(f"offset {off} outside edge {e} of length {length}")
        if off == 0:
            return e[0]
        if off == length:
            return e[1]
        return Location(e, off)

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

    def _locate(self, loc: Point) -> tuple[str, Num]:
        """The address of a resolved point."""
        if isinstance(loc, str):
            return loc, self._root[loc]
        u, w = loc.edge
        off = self._scaled(loc.offset)
        if self._parent[u] == w:
            return u, self._root[u] - off
        return w, self._root[u] + off

    def _address(self, p: Point) -> tuple[str, Num]:
        addr = self._addr.get(p)
        return self._locate(self.resolve(p)) if addr is None else addr

    def _meet(self, a: tuple[str, Num], b: tuple[str, Num]) -> Num:
        """Root distance at which the root paths of two addresses part."""
        (u, ru), (v, rv) = a, b
        depth, parent = self._depth, self._parent
        while depth[u] > depth[v]:
            u = parent[u]
        while depth[v] > depth[u]:
            v = parent[v]
        while u != v:
            u, v = parent[u], parent[v]
        return min(self._root[u], ru, rv)

    def _offset(self, v: str, r: Num) -> Num:
        """Offset, from the smaller-named end, of the point at root distance
        r on the edge from v up to its parent; the ends give 0 and the
        stored length."""
        up, root = self._parent[v], self._root
        if v < up:
            if r == root[v]:
                return 0
            return self._lengths[(v, up)] if r == root[up] else self._unscale(root[v] - r)
        if r == root[up]:
            return 0
        return self._lengths[(up, v)] if r == root[v] else self._unscale(r - root[up])

    def _canonical(self, v: str, r: Num) -> tuple[str, Num]:
        """The address of the point at root distance r on the root path of
        vertex v, moved up to the lowest vertex at or below the point."""
        parent, root = self._parent, self._root
        while (up := parent[v]) is not None and r <= root[up]:
            v = up
        return v, r

    def _meets(self, points: list) -> tuple[list, list[list]]:
        """The addresses of the points and the matrix of their pairwise
        meets; the diagonal holds each point's own root distance."""
        addr = [self._address(p) for p in points]
        n, meet = len(addr), self._meet
        rows = [[a[1]] * n for a in addr]
        for i, a in enumerate(addr):
            row = rows[i]
            for j in range(i + 1, n):
                row[j] = rows[j][i] = meet(a, addr[j])
        return addr, rows

    def _scaled_distances(self, points: list) -> list[list]:
        """The matrix of pairwise distances of the points in index units:
        ints over the tree's scale."""
        addr, meets = self._meets(points)
        roots = [a[1] for a in addr]
        # the diagonal meet is the point's own root distance: 0 on the diagonal
        return [[ri + rj - 2 * m for rj, m in zip(roots, row)] for ri, row in zip(roots, meets)]

    def _meet_names(self, points: list) -> tuple[list[list], list[list]]:
        """The pairwise meets of the points and, per pair, the name of the
        meet point (vertex name first, then the first designated name) or
        None."""
        addr, meets = self._meets(points)
        names, canonical = self._names_by_address, self._canonical
        return meets, [[names.get(canonical(a[0], m)) for m in row] for a, row in zip(addr, meets)]

    @cached_property
    def _names_by_address(self) -> dict[tuple[str, Num], str]:
        """Address to name, as name_of names a point: a vertex name first,
        then the first designated name in sorted order."""
        names: dict[tuple[str, Num], str] = {}
        for name, addr in self._addr.items():
            names.setdefault(addr, name)
        return names

    def _point_at(self, v: str, r: Num) -> Point:
        """The point at root distance r on the root path of vertex v."""
        v, r = self._canonical(v, r)
        up, root = self._parent[v], self._root
        if r >= root[v]:
            return v
        return self._normalize_edge_point(v, up, self._unscale(root[v] - r))

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
        return tuple((u, v, self._lengths[(u, v)]) for u, v in sorted(self._lengths))

    @property
    def point_names(self) -> tuple[str, ...]:
        """Designated point names and vertex names, sorted."""
        return tuple(sorted(self._adj)) + tuple(sorted(self._points))

    @property
    def designated(self) -> dict[str, Point]:
        return dict(self._points)

    def edge_length(self, u: str, v: str) -> Num:
        e = canonical_edge(u, v)
        if e not in self._lengths:
            raise UnknownPointError(f"no edge {u}-{v}")
        return self._lengths[e]

    def degree(self, vertex: str) -> int:
        if vertex not in self._adj:
            raise UnknownPointError(vertex)
        return len(self._adj[vertex])

    def resolve(self, p: Point) -> Point:
        """Normalize a point reference: vertex name, or interior Location."""
        if isinstance(p, str):
            if p in self._adj:
                return p
            if p in self._points:
                return self._points[p]
            raise UnknownPointError(p)
        offset = _exact(p.offset, TreeStructureError, "offset of {}", p)
        return self._normalize_edge_point(p.edge[0], p.edge[1], offset)

    def name_of(self, p: Point) -> str | None:
        """Name addressing this location, if any (vertex name wins)."""
        loc = self.resolve(p)
        return loc if isinstance(loc, str) else self._names_by_address.get(self._locate(loc))

    def same_point(self, p: Point, q: Point) -> bool:
        return self.resolve(p) == self.resolve(q)

    def contains(self, p: Point) -> bool:
        """Membership, honoring half-open ends of an interior tree."""
        loc = self.resolve(p)
        if isinstance(loc, str):
            return loc not in self.open_ends
        return True

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

    def germ(self, p: Point, r: Point) -> str | None:
        """The direction at p containing r, as a label, or None when r is p.

        Two points lie in one component of the tree minus p exactly when
        their germs at p are equal and not None.  The label is the first
        vertex other than p on the way from p to r (for p inside an edge,
        the end of that edge toward r).  Only addresses and meets are
        compared, exactly.
        """
        a, b = self._address(p), self._address(r)
        u, ra = a
        if self._meet(a, b) < ra:
            return self._parent[u]
        v, rb = b
        if rb == ra:
            return None
        if ra < self._root[u]:
            return u
        # r lies below the vertex u: the child of u on r's root path
        depth, parent = self._depth, self._parent
        below = depth[u] + 1
        while depth[v] > below:
            v = parent[v]
        return v

    def point_on_segment(self, r: Point, p: Point, q: Point) -> bool:
        gp, gq = self.germ(r, p), self.germ(r, q)
        return gp is None or gq is None or gp != gq

    # -- extremal structure ------------------------------------------------------

    def is_extremal(self, p: Point) -> bool:
        """Whether removing p leaves the tree connected (leaves and the
        single-vertex case; interior edge points never qualify)."""
        loc = self.resolve(p)
        if isinstance(loc, Location):
            return False
        return len(self._adj[loc]) <= 1

    def interior_tree(self) -> "MetricTree":
        """The tree without its extremal points; removed leaf vertices are
        flagged as half-open ends rather than deleted."""
        if not self._lengths:
            raise TreeStructureError("a single-point tree has no interior")
        leaves = {v for v in self._adj if len(self._adj[v]) <= 1}
        kept_points = [
            (name, loc) if isinstance(loc, str) else (name, *loc.edge, loc.offset)
            for name, loc in self._points.items()
            if not (isinstance(loc, str) and loc in leaves)
        ]
        return MetricTree(
            ((u, v, self._lengths[(u, v)]) for u, v in sorted(self._lengths)),
            kept_points,
            open_ends=self.open_ends | leaves,
        )

    def __repr__(self) -> str:
        return (
            f"MetricTree({len(self._adj)} vertices, {len(self._lengths)} edges, "
            f"{len(self._points)} designated points)"
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
