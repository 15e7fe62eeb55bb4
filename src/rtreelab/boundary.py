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
from typing import Callable, Iterable

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

    def __init__(self, basis: Basis, fn: Callable[[int], str], periodic: tuple[str, str] | None):
        self.basis = basis
        self._fn = fn
        self._cache = ""
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

        def fn(i: int) -> str:
            if i < len(prefix):
                return prefix[i]
            return block[(i - len(prefix)) % len(block)]

        return cls(basis, fn, (prefix, block))

    @classmethod
    def from_function(cls, basis: Basis, fn: Callable[[int], str]) -> "BoundaryPoint":
        """A programmatic point; letters are validated as they are consumed."""
        return cls(basis, fn, None)

    def prefix(self, k: int) -> str:
        """The first k letters (always reduced; re-entrant)."""
        if k <= len(self._cache):
            return self._cache[:k]
        last = self._cache[-1:]
        new = []
        for i in range(len(self._cache), k):
            c = self._fn(i)
            self.basis.validate(c)
            if last and last == invert_letter(c):
                raise BoundaryFormatError(
                    f"generator produced a cancellation at position {i}"
                )
            new.append(c)
            last = c
        self._cache += "".join(new)
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


def format_boundary_point(x: BoundaryPoint) -> str:
    if x.periodic_form is None:
        raise BoundaryFormatError("only eventually periodic points have a text form")
    return f"{x.periodic_form[0]};{x.periodic_form[1]}"


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


def common_prefix(x: BoundaryPoint, y: BoundaryPoint, k: int) -> int:
    """Length of the longest common prefix of x and y, capped at k."""
    if k < 1:
        raise ValueError("cap must be >= 1")
    a, b = x.prefix(k), y.prefix(k)
    n = 0
    while n < k and a[n] == b[n]:
        n += 1
    return n


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


class SaturationOverflowError(RuntimeError):
    pass


@dataclass
class LaminationSample:
    """A finite, flip-closed stand-in for a subset of the double boundary.

    ``pairs`` are dedplicated by their prefix keys at ``depth``; ``words``
    is the action word list the sample is closed under (possibly empty);
    ``provenance`` records how the sample was produced.  ``annotations``
    carries per-pair metadata keyed like the pairs.
    """

    pairs: tuple[BoundaryPair, ...]
    depth: int
    words: tuple[str, ...] = ()
    provenance: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)

    def keys(self) -> frozenset[tuple[str, str]]:
        return frozenset(p.key(self.depth) for p in self.pairs)

    def contains(self, pair: BoundaryPair) -> bool:
        return pair.key(self.depth) in self.keys()

    def audit(self) -> "AuditResult":
        """Check flip closure and closure under the recorded action words."""
        keys = self.keys()
        flip_violations = []
        action_violations = []
        for p in self.pairs:
            if flip(p).key(self.depth) not in keys:
                flip_violations.append(p.key(self.depth))
            for w in self.words:
                if act_pair(w, p).key(self.depth) not in keys:
                    action_violations.append((w, p.key(self.depth)))
        return AuditResult(
            not flip_violations and not action_violations,
            tuple(flip_violations),
            tuple(action_violations),
        )


@dataclass(frozen=True)
class AuditResult:
    closed: bool
    flip_violations: tuple = ()
    action_violations: tuple = ()


def saturate(
    sample: LaminationSample,
    action_words: Iterable[str],
    depth: int,
    max_size: int = 100_000,
) -> LaminationSample:
    """Close a sample under the flip and under the listed word actions,
    deduplicating by prefix keys at ``depth`` (the finite key space makes
    the closure terminate; ``max_size`` guards runaway growth).
    """
    action_words = tuple(action_words)
    seen: dict[tuple[str, str], BoundaryPair] = {}
    work: list[BoundaryPair] = list(sample.pairs)
    while work:
        p = work.pop()
        k = p.key(depth)
        if k in seen:
            continue
        seen[k] = p
        if len(seen) > max_size:
            raise SaturationOverflowError(f"closure exceeded {max_size} pairs")
        work.append(flip(p))
        for w in action_words:
            work.append(act_pair(w, p))
    ordered = tuple(seen[k] for k in sorted(seen))
    return LaminationSample(
        ordered,
        depth,
        words=action_words,
        provenance={
            "operation": "saturate",
            "seed_size": len(sample.pairs),
            "parent": sample.provenance,
        },
        annotations=dict(sample.annotations),
    )
