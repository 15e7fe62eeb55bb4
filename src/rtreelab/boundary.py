"""Boundary points of a free group, the double boundary, and finite
lamination samples.

A boundary point is an infinite reduced word, exposed through its finite
prefixes.  Every point here is eventually periodic, ``prefix .
block^infinity``, and two points are equal exactly when their least forms
are: the block cut to its primitive root, and the prefix's last letter
rotated into the root while it equals the root's last letter.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False, repr=False)
class BoundaryPoint:
    """An eventually periodic infinite reduced word over a basis, accessed
    by prefixes.  Use :meth:`periodic` to construct."""

    basis: Basis
    periodic_form: tuple[str, str]  # (prefix, block)

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
        return cls(basis, (prefix, block))

    def prefix(self, k: int) -> str:
        """The first k letters, sliced from the form that :meth:`periodic`
        checked once (so always reduced)."""
        head, block = self.periodic_form
        return (head + block * -(-max(0, k - len(head)) // len(block)))[:k]

    def _least(self) -> tuple[str, str]:
        """The one (prefix, block) of this word with the shortest prefix and
        the shortest block: the block cut to its primitive root, then the
        prefix's last letter rotated into the root while they are equal."""
        head, block = self.periodic_form
        root = block[: (block + block).find(block, 1)]
        while head and head[-1] == root[-1]:
            head, root = head[:-1], root[-1] + root[:-1]
        return head, root

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundaryPoint):
            return NotImplemented
        return self.basis == other.basis and self._least() == other._least()

    def __hash__(self) -> int:
        return hash(self._least())

    def __repr__(self) -> str:
        p, b = self.periodic_form
        return f"{p};{b}"


def parse_boundary_point(text: str, basis: Basis) -> BoundaryPoint:
    """Parse ``prefix;block`` notation, e.g. ``ab;ba`` for ab(ba)^inf."""
    if ";" not in text:
        raise BoundaryFormatError(f"expected 'prefix;block', got {text!r}")
    prefix, block = text.split(";", 1)
    return BoundaryPoint.periodic(basis, prefix, block)


def act(w: str, x: BoundaryPoint) -> BoundaryPoint:
    """Left translation w . x.  The result stays eventually periodic:
    cancellation consumes at most |w| letters, so at most a rotation of the
    block survives at the junction."""
    basis = x.basis
    basis.validate(w)
    w = reduce_word(w)
    if not w:
        return x
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


@dataclass(frozen=True)
class BoundaryPair:
    """An ordered pair of distinct boundary points (distinctness is
    decided exactly at construction)."""

    x: BoundaryPoint
    y: BoundaryPoint

    def __post_init__(self):
        if self.x == self.y:
            raise IndistinguishablePointsError("the two components are equal")


def flip(pair: BoundaryPair) -> BoundaryPair:
    return BoundaryPair(pair.y, pair.x)


def act_pair(w: str, pair: BoundaryPair) -> BoundaryPair:
    return BoundaryPair(act(w, pair.x), act(w, pair.y))


@dataclass
class LaminationSample:
    """A finite, flip-closed stand-in for a subset of the double boundary.

    ``pairs`` are distinct; ``provenance`` records how the sample was
    produced.  ``annotations`` carries per-pair metadata keyed by the pairs.
    """

    pairs: tuple[BoundaryPair, ...]
    depth: int
    provenance: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)

    def contains(self, pair: BoundaryPair) -> bool:
        return pair in self.pairs

    def audit(self) -> "AuditResult":
        """Check flip closure."""
        pairs = set(self.pairs)
        flip_violations = tuple(p for p in self.pairs if flip(p) not in pairs)
        return AuditResult(not flip_violations, flip_violations)


@dataclass(frozen=True)
class AuditResult:
    closed: bool
    flip_violations: tuple = ()
