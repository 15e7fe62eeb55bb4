"""Reduced words of a finite-rank free group, written as strings.

Generators are lowercase letters, inverses the corresponding uppercase
letters (``a`` has inverse ``A``).  The empty string is the identity.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_INV = {c: c.upper() for c in _ALPHABET} | {c.upper(): c for c in _ALPHABET}


class UnknownSymbolError(ValueError):
    pass


def invert_letter(letter: str) -> str:
    return _INV.get(letter) or (letter.upper() if letter.islower() else letter.lower())


def invert_word(word: str) -> str:
    # case flip is exactly letter inversion for single-letter symbols
    return word.swapcase()[::-1]


@dataclass(frozen=True)
class Basis:
    """Free basis of rank >= 2 with single-letter symbols."""

    rank: int
    symbols: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"rank must be >= 2, got {self.rank}")
        if not self.symbols:
            if self.rank > len(_ALPHABET):
                raise ValueError("default symbols support rank <= 26")
            object.__setattr__(self, "symbols", tuple(_ALPHABET[: self.rank]))
        if len(self.symbols) != self.rank:
            raise ValueError("need exactly one symbol per generator")
        if len(set(self.symbols)) != self.rank:
            raise ValueError("symbols must be distinct")
        for s in self.symbols:
            if len(s) != 1 or not s.islower():
                raise ValueError(f"symbols must be single lowercase letters, got {s!r}")

    @cached_property
    def letters(self) -> tuple[str, ...]:
        """All 2N letters, generators then inverses."""
        return self.symbols + tuple(s.upper() for s in self.symbols)

    def validate(self, word: str) -> None:
        extra = set(word).difference(self.letters)
        if extra:
            bad = sorted(extra)[0]
            raise UnknownSymbolError(f"symbol {bad!r} not in basis {self.symbols}")


def reduce_word(word: str, basis: Basis | None = None) -> str:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    if basis is not None:
        basis.validate(word)
    out: list[str] = []
    inv = _INV
    for c in word:
        if out and out[-1] == inv.get(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def is_reduced(word: str) -> bool:
    inv = _INV
    return all(word[i + 1] != inv.get(word[i]) for i in range(len(word) - 1))


def reduced_product(u: str, v: str) -> str:
    """Reduced form of u*v for already-reduced u and v (cancellation can
    only happen at the junction)."""
    i, n = len(u), len(v)
    j = 0
    inv = _INV
    while i > 0 and j < n and u[i - 1] == inv.get(v[j]):
        i -= 1
        j += 1
    return u[:i] + v[j:]


def cyclic_reduce(word: str) -> str:
    """Strip matching inverse pairs from the two ends of a reduced word."""
    w = word if is_reduced(word) else reduce_word(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == invert_letter(w[j - 1]):
        i += 1
        j -= 1
    return w[i:j]


def is_cyclically_reduced(word: str) -> bool:
    return is_reduced(word) and (len(word) < 2 or word[0] != invert_letter(word[-1]))


def rotations(word: str) -> list[str]:
    return [word[i:] + word[:i] for i in range(max(1, len(word)))]


def canonical_rotation(word: str) -> str:
    """Lexicographically smallest rotation; canonical conjugacy-class tag."""
    return min(rotations(word))


def abelianization(word: str, basis: Basis) -> tuple[int, ...]:
    """Signed letter counts (one entry per generator)."""
    basis.validate(word)
    return tuple(word.count(s) - word.count(s.upper()) for s in basis.symbols)


def reduced_words(basis: Basis, maxlen: int) -> list[str]:
    """All reduced words of length 1..maxlen, ordered by (length, lex)."""
    out: list[str] = []
    frontier = [""]
    for _ in range(maxlen):
        nxt = []
        for w in frontier:
            for c in sorted(basis.letters):
                if not w or c != invert_letter(w[-1]):
                    nxt.append(w + c)
        nxt.sort()
        out.extend(nxt)
        frontier = nxt
    return out


def cyclically_reduced_words(basis: Basis, maxlen: int) -> list[str]:
    return [w for w in reduced_words(basis, maxlen) if is_cyclically_reduced(w)]


def word_ball(basis: Basis, maxlen: int) -> list[str]:
    """Reduced words of length <= maxlen including the identity.

    Closed under inversion, and under those pairwise products whose reduced
    form stays within the length bound.
    """
    return [""] + reduced_words(basis, maxlen)


def commutator(u: str, v: str) -> str:
    return reduce_word(u + v + invert_word(u) + invert_word(v))


def enumerate_integer_vectors(rank: int, total: int):
    """All integer vectors with |n_1| + ... + |n_rank| <= total."""
    if rank == 0:
        yield ()
        return
    for head in range(-total, total + 1):
        for rest in enumerate_integer_vectors(rank - 1, total - abs(head)):
            yield (head,) + rest


def word_from_vector(vector: tuple[int, ...], basis: Basis) -> str:
    """A cyclically reduced word realizing the given abelianization."""
    parts = []
    for n, s in zip(vector, basis.symbols):
        if n > 0:
            parts.append(s * n)
        elif n < 0:
            parts.append(s.upper() * (-n))
    return "".join(parts)
