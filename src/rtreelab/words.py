"""Reduced words of a finite-rank free group, written as strings.

Generators are lowercase letters, inverses the corresponding uppercase
letters (``a`` has inverse ``A``).  The empty string is the identity.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add, mul, sub

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
            # the word functions invert letters by ASCII case
            if len(s) != 1 or s not in _ALPHABET:
                raise ValueError(f"symbols must be single lowercase letters a-z, got {s!r}")

    @cached_property
    def letters(self) -> tuple[str, ...]:
        """All 2N letters, generators then inverses."""
        return self.symbols + tuple(s.upper() for s in self.symbols)

    @cached_property
    def alphabet(self) -> str:
        return "".join(self.letters)

    @cached_property
    def followers(self) -> dict[str, list[str]]:
        """Each letter in sorted order, with the sorted letters that may follow it."""
        return {c: [d for d in sorted(self.letters) if d != _INV[c]] for c in sorted(self.letters)}

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
    """Free reduction, then the matching inverse pairs stripped from the
    two ends."""
    reduced = word if is_reduced(word) else reduce_word(word)
    i, j = 0, len(reduced)
    inv = _INV
    while j - i >= 2 and reduced[i] == inv.get(reduced[j - 1]):
        i += 1
        j -= 1
    return reduced[i:j]


def is_cyclically_reduced(word: str) -> bool:
    return is_reduced(word) and (len(word) < 2 or word[0] != invert_letter(word[-1]))


def abelianization(word: str, basis: Basis) -> tuple[int, ...]:
    """Signed letter counts (one entry per generator)."""
    # strip leaves a word nonempty exactly when it has an unknown symbol
    if word.strip(basis.alphabet):
        basis.validate(word)
    return tuple(map(sub, map(word.count, basis.symbols), map(word.count, basis.alphabet[basis.rank :])))


def _steps(basis: Basis, maxlen: int) -> dict[str, int]:
    """Each letter's step, +-B^k for generator k with B = 2*maxlen + 1.  The
    key of a word of length <= maxlen is the sum of its letters' steps; its
    letter counts are the balanced base-B digits of the key, so two words
    share a key exactly when their abelianizations are equal."""
    steps = {s: (2 * maxlen + 1) ** k for k, s in enumerate(basis.symbols)}
    return steps | {s.upper(): -step for s, step in steps.items()}


def _keyed_class_representatives(basis: Basis, maxlen: int, distance: dict[int, int]):
    """The least rotation of every cyclically reduced word of length
    1..maxlen and its key, by (length, lex), pruned by ``distance`` (see
    :func:`_distances_to`).  Necklace generation
    (Fredricksen-Kessler-Maiorana; Duval 1988): a prenecklace w carries the
    length p of its longest Lyndon prefix, grows by letters c >= w[-p], and
    is a necklace when p divides len(w).  A prenecklace of length n is kept
    only while its key's distance is at most maxlen - n, the letters it may
    still gain: no cut subtree holds a key at distance 0, and the rest keep
    their order and Lyndon-prefix lengths.  An empty ``distance`` keeps none."""
    steps, after = _steps(basis, maxlen), basis.followers
    level = [(c, 1, steps[c]) for c in after if distance.get(steps[c], maxlen) < maxlen]
    for n in range(1, maxlen + 1):
        yield from ((w, key) for w, p, key in level if n % p == 0 and w[0] != _INV[w[-1]])
        if n < maxlen:
            grow = ((w, p, key + steps[c], c) for w, p, key in level for c in after[w[-1]] if c >= w[-p])
            level = [(w + c, n + 1 if c > w[-p] else p, key) for w, p, key, c in grow if distance[key] < maxlen - n]


def _distances_to(basis: Basis, maxlen: int, near) -> tuple[dict, dict[int, int]]:
    """The box of vectors |v|_1 <= maxlen by key (see :func:`_steps`), and
    each key's L1 distance to the nearest box vector that ``near`` holds for
    (empty when there is none), by breadth-first search over letter steps
    inside the box.  In an L1 ball the steps that shrink coordinates, then
    those that grow them, stay inside, so the two distances agree; a step
    out of the box lands on no box key."""
    steps = _steps(basis, maxlen)
    powers = [steps[s] for s in basis.symbols]
    box = {sum(map(mul, vec, powers)): vec for vec in enumerate_integer_vectors(basis.rank, maxlen)}
    queue = [key for key, vec in box.items() if near(vec)]
    distance = dict.fromkeys(queue, 0)
    for key in queue:  # a list grown while it is read: the search's queue
        for step in steps.values():
            if key + step in box and key + step not in distance:
                distance[key + step] = distance[key] + 1
                queue.append(key + step)
    return box, distance


def reduced_words(basis: Basis, maxlen: int) -> list[str]:
    """All reduced words of length 1..maxlen, ordered by (length, lex)."""
    # the empty word is followed by every letter; a sorted level extended in sorted order is sorted
    after = {"": sorted(basis.letters)} | basis.followers
    words, level = [], [""]
    for _ in range(maxlen):
        level = [w + c for w in level for c in after[w[-1:]]]
        words += level
    return words


def cyclically_reduced_words(basis: Basis, maxlen: int) -> list[str]:
    # the words are reduced, so only the two end letters can cancel
    return [w for w in reduced_words(basis, maxlen) if w[0] != _INV[w[-1]]]


def _largest_cyclic_word(basis: Basis, maxlen: int, vectors) -> str | None:
    """The string-largest cyclically reduced word of length 1..maxlen whose
    abelianization is in ``vectors``, or None: a depth-first walk, largest
    letter first and a prefix's extensions (which sort above it) before the
    prefix, that keeps a prefix of length n only while its letter counts lie
    within L1 distance maxlen - n of ``vectors``."""
    letters = sorted(basis.letters, reverse=True)
    step = {c: abelianization(c, basis) for c in letters}
    # each entry is a prefix, its letter counts and the letters it has yet to try
    stack = [("", (0,) * basis.rank, iter(letters))]
    while stack:
        w, vec, todo = stack[-1]
        for c in todo:
            if c != _INV.get(w[-1:]):
                counts = tuple(map(add, vec, step[c]))
                if min((sum(map(abs, map(sub, counts, t))) for t in vectors), default=maxlen) < maxlen - len(w):
                    stack.append((w + c, counts, iter(letters)))
                    break
        else:
            stack.pop()
            if w and vec in vectors and w[0] != _INV[w[-1]]:
                return w
    return None


def enumerate_integer_vectors(rank: int, total: int):
    """All integer vectors with |n_1| + ... + |n_rank| <= total, in lex order."""
    # partial vectors carry the total they have left; the last coordinate streams
    rows = [((), total)]
    for _ in range(rank - 1):
        rows = [(vec + (n,), left - abs(n)) for vec, left in rows for n in range(-left, left + 1)]
    return (vec + (n,) for vec, left in rows for n in range(-left, left + 1)) if rank else iter([()])


def word_from_vector(vector: tuple[int, ...], basis: Basis) -> str:
    """A cyclically reduced word realizing the given abelianization."""
    # a string times a count below 1 is empty
    return "".join(s * n + s.upper() * -n for n, s in zip(vector, basis.symbols))
