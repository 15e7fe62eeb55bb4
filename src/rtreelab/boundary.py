"""Boundary points of a free group, the double boundary, and finite
lamination samples.

A boundary point is an infinite reduced word, exposed through its finite
prefixes.  Two concrete sources exist: eventually periodic points
(``prefix . block^infinity`` with exact arithmetic on the representation)
and programmatic letter generators (prefix access only).  Equality of
arbitrary boundary points is only semi-decidable and is exposed as
equality up to a depth; for two eventually periodic points it is decided
exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .words import (
    Basis,
    invert_letter,
    is_cyclically_reduced,
    is_reduced,
    reduce_word,
)


class BoundaryFormatError(ValueError):
    pass


class IndistinguishablePointsError(ValueError):
    pass


class BoundaryPoint:
    """An infinite reduced word over a basis, accessed by prefixes.

    Use :meth:`periodic` or :meth:`from_function` to construct.
    """

    def __init__(self, basis: Basis, fn: Callable[[int], str] | None, periodic: tuple[str, str] | None):
        self.basis = basis
        self._fn = fn  # None for a periodic point
        self._cache = ""
        self._inverse = None if fn is None else {c: invert_letter(c) for c in basis.letters}
        self.periodic_form = periodic  # (prefix, block) or None

    @classmethod
    def periodic(cls, basis: Basis, prefix: str, block: str) -> "BoundaryPoint":
        """The point prefix . block . block . ... (block repeated forever)."""
        basis.validate(prefix)
        basis.validate(block)
        if not block:
            raise BoundaryFormatError("periodic block must be nonempty")
        if not is_reduced(prefix):
            raise BoundaryFormatError(f"prefix {prefix!r} is not reduced")
        if not is_cyclically_reduced(block):
            raise BoundaryFormatError(f"block {block!r} is not cyclically reduced")
        if prefix and block and prefix[-1] == invert_letter(block[0]):
            raise BoundaryFormatError("prefix cancels into the block")
        return cls(basis, None, (prefix, block))

    @classmethod
    def from_function(cls, basis: Basis, fn: Callable[[int], str]) -> "BoundaryPoint":
        """A programmatic point; letters are validated as they are consumed."""
        return cls(basis, fn, None)

    def prefix(self, k: int) -> str:
        """The first k letters (always reduced; re-entrant).

        A periodic point slices them from its form, which :meth:`periodic`
        checked once.  For a programmatic point each generator output must
        be one letter of the basis that does not cancel the letter before
        it; the first faulty output raises, and the generator is not called
        past it."""
        if self.periodic_form is not None:
            head, block = self.periodic_form
            return (head + block * -(-max(0, k - len(head)) // len(block)))[:k]
        cache = self._cache
        if k <= len(cache):
            return cache[:k]
        fn, letters, inverse = self._fn, self.basis.letters, self._inverse
        last = cache[-1:]
        new = []
        for i in range(len(cache), k):
            c = fn(i)
            if c not in letters:
                if not isinstance(c, str) or len(c) != 1:
                    raise BoundaryFormatError(f"generator output at position {i} is not one letter: {c!r}")
                self.basis.validate(c)  # raises UnknownSymbolError
            if inverse[c] == last:
                raise BoundaryFormatError(f"generator produced a cancellation at position {i}")
            new.append(c)
            last = c
        self._cache = cache + "".join(new)
        return self._cache

    def __repr__(self) -> str:
        if self.periodic_form is not None:
            p, b = self.periodic_form
            return f"{p};{b}"
        return f"{self.prefix(8)}..."


def parse_boundary_point(text: str, basis: Basis) -> BoundaryPoint:
    """Parse ``prefix;block`` notation, e.g. ``ab;ba`` for ab(ba)^inf."""
    if ";" not in text:
        raise BoundaryFormatError(f"expected 'prefix;block', got {text!r}")
    prefix, block = text.split(";", 1)
    return BoundaryPoint.periodic(basis, prefix, block)


def act(w: str, x: BoundaryPoint) -> BoundaryPoint:
    """Left translation w . x with cancellation absorbed lazily.

    For an eventually periodic point the result stays eventually periodic
    (cancellation consumes at most |w| letters, so at most a rotation of
    the block survives at the junction).
    """
    basis = x.basis
    basis.validate(w)
    w = reduce_word(w)
    if not w:
        return x
    if x.periodic_form is not None:
        prefix, block = x.periodic_form
        need = len(w) + 1
        copies = -(-max(0, need - len(prefix)) // len(block))  # ceil
        head = prefix + block * copies
        cancel = 0
        while cancel < len(w) and cancel < len(head) and w[len(w) - 1 - cancel] == invert_letter(
            head[cancel]
        ):
            cancel += 1
        new_prefix = w[: len(w) - cancel]
        if cancel <= len(prefix):
            return BoundaryPoint.periodic(basis, new_prefix + prefix[cancel:], block)
        shift = (cancel - len(prefix)) % len(block)
        return BoundaryPoint.periodic(basis, new_prefix, block[shift:] + block[:shift])

    def fn(i: int, w=w, x=x) -> str:
        # cancellation is bounded by |w|, so |w| + i + |w| letters suffice
        s = reduce_word(w + x.prefix(i + 2 * len(w)))
        return s[i]

    return BoundaryPoint.from_function(basis, fn)


def points_equal_to_depth(x: BoundaryPoint, y: BoundaryPoint, depth: int) -> bool:
    return x.prefix(depth) == y.prefix(depth)


def _periodic_equal(x: BoundaryPoint, y: BoundaryPoint) -> bool:
    px, bx = x.periodic_form
    py, by = y.periodic_form
    bound = len(px) + len(py) + 2 * math.lcm(len(bx), len(by))
    return x.prefix(bound) == y.prefix(bound)


@dataclass(frozen=True)
class BoundaryPair:
    """An ordered pair of distinct boundary points (distinctness is
    certified at construction: exactly for two periodic points, else up to
    ``distinct_by`` letters)."""

    x: BoundaryPoint
    y: BoundaryPoint
    distinct_by: int = 64

    def __post_init__(self):
        if self.x.periodic_form is not None and self.y.periodic_form is not None:
            if _periodic_equal(self.x, self.y):
                raise IndistinguishablePointsError("the two components are equal")
        elif points_equal_to_depth(self.x, self.y, self.distinct_by):
            raise IndistinguishablePointsError(
                f"components agree to depth {self.distinct_by}; cannot certify a pair"
            )

    def key(self, depth: int) -> tuple[str, str]:
        return (self.x.prefix(depth), self.y.prefix(depth))


def flip(pair: BoundaryPair) -> BoundaryPair:
    return BoundaryPair(pair.y, pair.x, pair.distinct_by)


def act_pair(w: str, pair: BoundaryPair) -> BoundaryPair:
    return BoundaryPair(act(w, pair.x), act(w, pair.y), pair.distinct_by)


@dataclass
class LaminationSample:
    """A finite, flip-closed stand-in for a subset of the double boundary.

    ``pairs`` are deduplicated by their prefix keys at ``depth``;
    ``provenance`` records how the sample was produced.  ``annotations``
    carries per-pair metadata keyed like the pairs.
    """

    pairs: tuple[BoundaryPair, ...]
    depth: int
    provenance: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)

    def keys(self) -> frozenset[tuple[str, str]]:
        return frozenset(p.key(self.depth) for p in self.pairs)

    def contains(self, pair: BoundaryPair) -> bool:
        return pair.key(self.depth) in self.keys()

    def audit(self) -> "AuditResult":
        """Check flip closure."""
        keys = self.keys()
        flip_violations = [p.key(self.depth) for p in self.pairs if flip(p).key(self.depth) not in keys]
        return AuditResult(not flip_violations, tuple(flip_violations))


@dataclass(frozen=True)
class AuditResult:
    closed: bool
    flip_violations: tuple = ()
