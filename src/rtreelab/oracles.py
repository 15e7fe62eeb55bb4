"""Tree oracles: query interfaces admitting lazy infinite trees.

An oracle answers distance / center / midpoint queries about points of a
tree (or its completion-with-ends), without materializing the tree.  Three
oracles are provided: any finite :class:`~rtreelab.tree.MetricTree`, the
real line with coordinate points and its two ends, and the (possibly
lazily-infinite) multipod.  The line's ends, its only boundary points, are
the floats ``math.inf`` and ``-math.inf``, so the line with its ends is the
extended line and its ends compare exactly.  Two points are equal exactly
when their hashable ``canonical`` forms are.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import count
from typing import Iterator, Protocol, runtime_checkable

from .surds import LineCode
from .tree import Location, MetricTree, Num


LINE_PLUS = math.inf
LINE_MINUS = -math.inf


class BoundaryPointError(ValueError):
    pass


@runtime_checkable
class TreeOracle(Protocol):
    def distance(self, p, q) -> Num: ...

    def center(self, p, q, r): ...

    def midpoint(self, p, q): ...

    def is_boundary(self, p) -> bool: ...

    def points_equal(self, p, q) -> bool: ...

    def canonical(self, p): ...

    def germs(self, p, points) -> list: ...

    def common_segment_end(self, basepoint, points): ...

    def sample_stream(self) -> Iterator: ...


def _half(x: Num) -> Num:
    """x / 2 exactly: an int for an even int, a Fraction for an odd one."""
    if isinstance(x, int):
        return Fraction(x, 2) if x & 1 else x >> 1
    return x / 2


def _infinite(x) -> bool:
    # only a float is infinite; math.isinf would overflow on an int past the float range
    return isinstance(x, float) and math.isinf(x)


def _points_equal(oracle, p, q) -> bool:
    return oracle.canonical(p) == oracle.canonical(q)


def _center_fold(oracle, basepoint, points):
    """The endpoint R of the intersection [basepoint, R] of the segments
    [basepoint, p] over a nonempty list of points, by one center per point
    before the last, folded backward: with Q the basepoint, [Q, R] and
    [Q, P] meet in [Q, center(P, R, Q)]."""
    end = points[-1]
    for p in points[-2::-1]:
        end = oracle.center(p, end, basepoint)
    return end


class FiniteTreeOracle:
    """Oracle view of a finite MetricTree (no boundary)."""

    def __init__(self, tree: MetricTree):
        self.tree = tree

    def distance(self, p, q) -> Num:
        return self.tree.distance(p, q)

    def center(self, p, q, r):
        return self.tree.center(p, q, r)

    def midpoint(self, p, q):
        return self.tree.midpoint(p, q)

    def is_boundary(self, p) -> bool:
        return False

    def canonical(self, p):
        return self.tree.resolve(p)

    points_equal = _points_equal

    def germs(self, p, points) -> list:
        return self.tree.germs(p, points)

    common_segment_end = _center_fold

    def sample_stream(self) -> Iterator:
        seen = set()
        for name in self.tree.point_names:
            loc = self.tree.resolve(name)
            if loc not in seen:
                seen.add(loc)
                yield name
        for level in count(1):
            steps = 2**level
            for u, v, length in self.tree.edges:
                for j in range(1, steps, 2):
                    loc = self.tree.resolve(Location((u, v), length * Fraction(j, steps)))
                    if loc not in seen:
                        seen.add(loc)
                        yield loc


class LineOracle:
    """The real line as an oracle; points are numbers (ints, Fractions,
    floats and Surds; the observers commands pass ints, their file values
    times one scale, and a midpoint halves ints exactly), and the two ends
    are the floats ``LINE_PLUS`` (inf) and ``LINE_MINUS`` (-inf).

    A line built with a :class:`~rtreelab.surds.LineCode` takes its finite
    points as the code's ints, the exact numbers of an orbit.  Their
    integer order is the order of the numbers outside the code's window,
    and comparisons inside it are decided exactly.  Such a line answers the
    fold's queries (``common_segment_end``, ``center``, ``distance``) and
    the comparisons (``points_equal``, ``germs``), not ``midpoint``.
    """

    def __init__(self, code: LineCode | None = None):
        self.code = code

    def canonical(self, p):
        return p

    points_equal = _points_equal

    def _above(self, a, b) -> bool:
        """a > b for coordinates, exactly."""
        return a > b if self.code is None else self.code.sign(a - b) > 0

    def distance(self, p, q) -> Num:
        if self.code is not None:
            return p - q if self._above(p, q) else q - p
        if _infinite(p) or _infinite(q):
            return 0 if p == q else math.inf
        return abs(p - q)

    def center(self, p, q, r):
        coords = [p, q, r]
        if self.code is None:
            coords.sort()
        else:
            coords.sort(key=cmp_to_key(lambda a, b: self.code.sign(a - b)))
        return coords[1]

    def common_segment_end(self, basepoint, points):
        """The center fold in closed form: with Q the basepoint, the
        intersection of the segments [Q, p] ends at the largest point when
        every point is <= Q, at the smallest when every point is > Q, and at
        Q otherwise.  Ties go to the latest largest and the earliest smallest
        point, the objects the fold's stable medians keep.  A coded line
        holds only the code's ints, never an end, and settles its largest
        and smallest ints exactly within the window."""
        if len(points) == 1:
            return points[0]
        top = max(reversed(points))
        if self.code is not None:
            top = self.code.extreme(points, top, upper=True)
        if not self._above(top, basepoint):
            return top
        low = min(points)
        if self.code is not None:
            low = self.code.extreme(points, low, upper=False)
        return low if self._above(low, basepoint) else basepoint

    def midpoint(self, p, q):
        if self.code is not None:
            raise ValueError("a coded line has no midpoints")
        if _infinite(p) or _infinite(q):
            raise BoundaryPointError("midpoint needs finite points")
        return _half(p + q)

    is_boundary = staticmethod(_infinite)

    def germs(self, p, points) -> list:
        """The side of p that each point lies on: True above, False below,
        None at p."""
        above = self._above
        return [None if p == r else above(r, p) for r in points]

    def sample_stream(self) -> Iterator:
        # Farey-style enumeration of the rationals: dense, deterministic
        yield Fraction(0)
        seen = {Fraction(0)}
        for den in count(1):
            for num in range(-4 * den, 4 * den + 1):
                q = Fraction(num, den)
                if q not in seen:
                    seen.add(q)
                    yield q


class MultipodOracle:
    """A hub with ``arms`` intervals of length ``arm_length`` attached
    (``arms=None`` gives the lazily-infinite multipod).

    Points are ``"hub"`` or ``(arm_index, offset)`` with ``0 < offset <=
    arm_length``, compared directly (exact for ints, Fractions and floats);
    offset 0 normalizes to the hub.  No boundary points.  The observers
    commands pass int offsets on arms of length S, one scale per command.
    """

    HUB = "hub"

    def __init__(self, arms: int | None = None, arm_length: Num = 1):
        if arms is not None and arms < 1:
            raise ValueError("need at least one arm")
        if not arm_length > 0:
            raise ValueError("arm length must be positive")
        self.arms = arms
        self.arm_length = arm_length

    def _resolve(self, p):
        if p == self.HUB:
            return None
        arm, off = p
        if arm < 0 or (self.arms is not None and arm >= self.arms):
            raise ValueError(f"arm {arm} out of range")
        if off < 0 or off > self.arm_length:
            raise ValueError(f"offset {off} outside [0, {self.arm_length}]")
        return None if off == 0 else (arm, off)

    canonical = _resolve
    points_equal = _points_equal

    @staticmethod
    def _distance(a, b) -> Num:
        """The distance of two resolved points."""
        if a is None:
            return 0 if b is None else b[1]
        if b is None:
            return a[1]
        return abs(a[1] - b[1]) if a[0] == b[0] else a[1] + b[1]

    def distance(self, p, q) -> Num:
        return self._distance(self._resolve(p), self._resolve(q))

    def _point_along(self, a, b, t):
        """Point at distance t from a on [a, b]; a, b resolved."""
        if t == 0:
            return self.HUB if a is None else a
        if a is None:
            return (b[0], t)
        if b is None or a[0] != b[0]:
            if t <= a[1]:
                off = a[1] - t
                return (a[0], off) if off > 0 else self.HUB
            return (b[0], t - a[1])
        off = a[1] + t if b[1] >= a[1] else a[1] - t
        return (a[0], off) if off > 0 else self.HUB

    def center(self, p, q, r):
        a, b, c = self._resolve(p), self._resolve(q), self._resolve(r)
        d = self._distance
        return self._point_along(a, b, _half(d(a, b) + d(a, c) - d(b, c)))

    def midpoint(self, p, q):
        a, b = self._resolve(p), self._resolve(q)
        return self._point_along(a, b, _half(self._distance(a, b)))

    def is_boundary(self, p) -> bool:
        return False

    def germs(self, p, points) -> list:
        """The direction at p containing each point: the arm index at the
        hub, "out" or "in" along p's arm, and None where the point is p."""
        a, resolve = self._resolve(p), self._resolve
        out = []
        for r in points:
            b = resolve(r)
            if a == b:
                out.append(None)
            elif a is None:
                out.append(b[0])
            else:
                out.append("out" if b is not None and b[0] == a[0] and b[1] > a[1] else "in")
        return out

    common_segment_end = _center_fold

    def sample_stream(self) -> Iterator:
        yield self.HUB
        L = self.arm_length
        seen = set()
        for level in count(0):
            arm_limit = self.arms if self.arms is not None else level + 1
            steps = 2**level
            for arm in range(min(arm_limit, level + 1)):
                for j in range(1, steps + 1):
                    pt = (arm, L * Fraction(j, steps))
                    if pt not in seen:
                        seen.add(pt)
                        yield pt
