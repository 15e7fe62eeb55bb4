"""Tree oracles: query interfaces admitting lazy infinite trees.

An oracle answers distance / center / midpoint queries about points of a
tree (or its completion-with-ends), without materializing the tree.  Three
oracles are provided: any finite :class:`~rtreelab.tree.MetricTree`, the
real line with coordinate points and two ends, and the (possibly
lazily-infinite) multipod.  Boundary points at infinite distance are opaque
:class:`Ray` identifiers; their equality is exact, never metric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator, Protocol, runtime_checkable

from .tree import Location, MetricTree, Num


@dataclass(frozen=True)
class Ray:
    """A boundary point, named by the ray it represents."""

    label: str

    def __repr__(self) -> str:
        return f"Ray({self.label})"


LINE_PLUS = Ray("+")
LINE_MINUS = Ray("-")


class BoundaryPointError(ValueError):
    pass


@runtime_checkable
class TreeOracle(Protocol):
    def distance(self, p, q) -> Num: ...

    def center(self, p, q, r): ...

    def midpoint(self, p, q): ...

    def is_boundary(self, p) -> bool: ...

    def points_equal(self, p, q) -> bool: ...

    def sample_stream(self) -> Iterator: ...


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

    def points_equal(self, p, q) -> bool:
        return self.tree.same_point(p, q)

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
    """The real line as an oracle; points are numbers, the two ends are
    ``LINE_PLUS`` and ``LINE_MINUS``."""

    def _coord(self, p):
        if p == LINE_PLUS:
            return math.inf
        if p == LINE_MINUS:
            return -math.inf
        if isinstance(p, Ray):
            raise BoundaryPointError(f"unknown ray {p}")
        return p

    def _from_coord(self, c):
        if c == math.inf:
            return LINE_PLUS
        if c == -math.inf:
            return LINE_MINUS
        return c

    def distance(self, p, q) -> Num:
        a, b = self._coord(p), self._coord(q)
        if math.isinf(a) or math.isinf(b):
            return 0 if a == b else math.inf
        return abs(a - b)

    def center(self, p, q, r):
        coords = sorted((self._coord(p), self._coord(q), self._coord(r)))
        return self._from_coord(coords[1])

    def midpoint(self, p, q):
        a, b = self._coord(p), self._coord(q)
        if math.isinf(a) or math.isinf(b):
            raise BoundaryPointError("midpoint needs finite points")
        return (a + b) / 2

    def is_boundary(self, p) -> bool:
        return isinstance(p, Ray)

    def points_equal(self, p, q) -> bool:
        return self._coord(p) == self._coord(q)

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
    arm_length``; offset 0 normalizes to the hub.  No boundary points.
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
        if off == 0:
            return None
        return (arm, off)

    def distance(self, p, q) -> Num:
        a, b = self._resolve(p), self._resolve(q)
        if a is None and b is None:
            return 0
        if a is None:
            return b[1]
        if b is None:
            return a[1]
        if a[0] == b[0]:
            return abs(a[1] - b[1])
        return a[1] + b[1]

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
        a, b = self._resolve(p), self._resolve(q)
        self._resolve(r)
        t = (self.distance(p, q) + self.distance(p, r) - self.distance(q, r)) / 2
        return self._point_along(a, b, t)

    def midpoint(self, p, q):
        return self._point_along(self._resolve(p), self._resolve(q), self.distance(p, q) / 2)

    def is_boundary(self, p) -> bool:
        return False

    def points_equal(self, p, q) -> bool:
        return self._resolve(p) == self._resolve(q)

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
