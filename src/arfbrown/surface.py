"""Closed surfaces presented as polygon gluing words.

A word is a cyclic sequence of signed letters in which every letter occurs
exactly twice; it encodes a polygon whose sides are identified in pairs.
This module computes the Euler characteristic, orientability, the canonical
word from the classification of surfaces, and the mod-2 intersection form on
first homology, one int mask per Gram row, on which enhancements live: a
one-vertex word's own form (``intersection_form``), or for any word the form
of a one-vertex word of the same surface (``surface_form``).  Each is one
pass over the word; ``classify`` gives the classification, the canonical
word and ``surface_form`` from one ``analyze``.  A scheme holds only its
word: a caller that needs a form more than once keeps it.
"""

from __future__ import annotations

import operator
from itertools import count
from typing import Iterable, NamedTuple

__all__ = [
    "GluingScheme",
    "SurfaceInfo",
    "IntersectionForm",
    "analyze",
    "normalize",
    "classify",
    "orientable_scheme",
    "nonorientable_scheme",
    "intersection_form",
    "surface_form",
    "MalformedWord",
    "MultipleVertices",
]


class MalformedWord(ValueError):
    """Some letter does not occur exactly twice."""


class MultipleVertices(ValueError):
    """The scheme identifies the polygon corners to more than one vertex."""


class GluingScheme:
    """A closed connected surface as an edge-identification word.

    The word is a tuple of (letter, exponent) pairs with exponent +1 or -1.
    In text form an apostrophe marks the inverse: "a b a' b'".
    """

    __slots__ = ("_word",)

    def __init__(self, word: Iterable[tuple[str, int]]):
        w = tuple((str(letter), operator.index(exp)) for letter, exp in word)
        counts: dict[str, int] = {}
        for letter, exp in w:
            if exp not in (1, -1):
                raise MalformedWord(f"exponent must be +1 or -1, got {exp}")
            if not letter:
                raise MalformedWord("empty letter id")
            counts[letter] = counts.get(letter, 0) + 1
        if not w:
            raise MalformedWord("word is empty")
        bad = [letter for letter, c in counts.items() if c != 2]
        if bad:
            raise MalformedWord(
                f"every letter must occur exactly twice; offending: {sorted(bad)}"
            )
        self._word = w

    @classmethod
    def _unchecked(cls, word: list[tuple[str, int]]) -> GluingScheme:
        """A scheme from a word that is valid by construction."""
        s = object.__new__(cls)
        s._word = tuple(word)
        return s

    @classmethod
    def from_text(cls, text: str) -> GluingScheme:
        """Parse a whitespace-separated word, apostrophe = inverse."""
        word = []
        for tok in text.split():
            if tok.endswith("'"):
                letter, exp = tok[:-1], -1
            else:
                letter, exp = tok, 1
            word.append((letter, exp))
        return cls(word)

    @property
    def word(self) -> tuple[tuple[str, int], ...]:
        return self._word

    @property
    def letters(self) -> tuple[str, ...]:
        """Distinct letter ids in order of first occurrence."""
        seen: dict[str, None] = {}
        for letter, _ in self._word:
            seen.setdefault(letter)
        return tuple(seen)

    def text(self) -> str:
        return " ".join(
            letter if exp == 1 else letter + "'" for letter, exp in self._word
        )

    def __len__(self) -> int:
        return len(self._word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GluingScheme) and self._word == other._word

    def __hash__(self) -> int:
        return hash(self._word)

    def __repr__(self) -> str:
        return f"GluingScheme.from_text({self.text()!r})"


class SurfaceInfo(NamedTuple):
    euler_char: int
    orientable: bool
    betti1_mod2: int
    vertex_count: int


class IntersectionForm(NamedTuple):
    """The mod-2 intersection pairing on H_1, as Gram row masks over GF(2):
    bit j of rows[i] is I(e_i, e_j), e_i being basis_labels[i]."""

    basis_labels: tuple[str, ...]
    rows: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis_labels)


def _root(parent: list[int], x: int) -> int:
    """The representative of corner x's class, halving the path walked."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def analyze(s: GluingScheme) -> SurfaceInfo:
    """Euler characteristic, orientability, and mod-2 first Betti number.

    One pass over the word.  Side i runs from polygon corner i to corner
    i + 1, its arrow along that direction iff the exponent is +1.  At a
    letter's second occurrence its two sides are glued tail to tail and head
    to head; each gluing that joins two corner classes removes one vertex.
    The surface is orientable iff every letter occurs with both exponents.
    """
    word = s.word
    length = len(word)
    parent = list(range(length))
    first: dict[str, int] = {}
    vertices = length
    orientable = True
    for j, (letter, exp) in enumerate(word):
        i = first.setdefault(letter, j)
        if i == j:
            continue
        same = exp == word[i][1]
        orientable = orientable and not same
        i1, j1 = (i + 1) % length, (j + 1) % length
        for x, y in ((i, j), (i1, j1)) if same else ((i, j1), (i1, j)):
            rx, ry = _root(parent, x), _root(parent, y)
            if rx != ry:
                parent[ry] = rx
                vertices -= 1
    euler = vertices - length // 2 + 1
    return SurfaceInfo(
        euler_char=euler,
        orientable=orientable,
        betti1_mod2=2 - euler,
        vertex_count=vertices,
    )


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _letter_names() -> Iterable[str]:
    yield from _ALPHABET
    for i in count(1):
        for ch in _ALPHABET:
            yield f"{ch}{i}"


def orientable_scheme(genus: int) -> GluingScheme:
    """The canonical one-vertex word of the orientable genus-g surface.

    Genus 0 is the sphere word "a a'"; genus g >= 1 is the product of g
    commutators a_i b_i a_i' b_i'.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    names = _letter_names()
    if genus == 0:
        a = next(names)
        return GluingScheme._unchecked([(a, 1), (a, -1)])
    word: list[tuple[str, int]] = []
    for _ in range(genus):
        a, b = next(names), next(names)
        word += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return GluingScheme._unchecked(word)


def nonorientable_scheme(crosscaps: int) -> GluingScheme:
    """The canonical word a1 a1 a2 a2 ... with k >= 1 crosscaps."""
    if crosscaps < 1:
        raise ValueError("a non-orientable surface needs at least one crosscap")
    names = _letter_names()
    word: list[tuple[str, int]] = []
    for _ in range(crosscaps):
        a = next(names)
        word += [(a, 1), (a, 1)]
    return GluingScheme._unchecked(word)


def _canonical_word(info: SurfaceInfo) -> GluingScheme:
    """The canonical word with the classification in info."""
    if info.orientable:
        return orientable_scheme(info.betti1_mod2 // 2)
    return nonorientable_scheme(info.betti1_mod2)


def normalize(s: GluingScheme) -> GluingScheme:
    """The canonical word of the homeomorphic surface.

    By the classification of closed surfaces the target word is determined
    by the Euler characteristic and orientability alone, so it is emitted
    directly; both invariants are preserved by construction and checked by
    tests.
    """
    return _canonical_word(analyze(s))


def _form(s: GluingScheme, info: SurfaceInfo) -> IntersectionForm:
    """The form of a one-vertex word s classified by info, in one pass.

    A running mask holds the letters seen once so far.  Between a letter's
    two occurrences the letters that interleave with it are those seen an
    odd number of times, so its Gram row is the mask at its second
    occurrence XOR the mask at its first, plus the diagonal bit.
    """
    if info.betti1_mod2 == 0:
        return IntersectionForm(basis_labels=(), rows=())
    index: dict[str, int] = {}
    first_exp: list[int] = []
    rows: list[int] = []  # mask at the first occurrence, then the Gram row
    seen_once = 0
    for letter, exp in s.word:
        i = index.get(letter)
        if i is None:
            i = index[letter] = len(rows)
            seen_once ^= 1 << i
            rows.append(seen_once)
            first_exp.append(exp)
        else:
            rows[i] = (rows[i] ^ seen_once) | ((exp == first_exp[i]) << i)
            seen_once ^= 1 << i
    return IntersectionForm(basis_labels=tuple(index), rows=tuple(rows))


def intersection_form(s: GluingScheme) -> IntersectionForm:
    """Mod-2 intersection form of a one-vertex scheme.

    Basis: the letters, in first-occurrence order.  Diagonal entry 1 iff the
    letter's two occurrences carry the same sign (a one-sided curve).
    Off-diagonal entry 1 iff the occurrences of the two letters interleave
    around the polygon.  For a sphere word (betti1 = 0) the empty form is
    returned, since H_1 = 0 leaves nothing to pair; other schemes must have
    exactly one vertex (normalize first, or use ``surface_form``).
    """
    info = analyze(s)
    if info.betti1_mod2 and info.vertex_count != 1:
        raise MultipleVertices(
            f"scheme has {info.vertex_count} vertices; normalize first"
        )
    return _form(s, info)


def classify(s: GluingScheme) -> tuple[SurfaceInfo, GluingScheme, IntersectionForm]:
    """``analyze``, ``normalize`` and ``surface_form`` of s, from one pass."""
    info = analyze(s)
    normal = _canonical_word(info)
    return info, normal, _form(s if info.vertex_count == 1 else normal, info)


def surface_form(s: GluingScheme) -> IntersectionForm:
    """The intersection form used for enhancements on this scheme: its own
    if the word has one vertex (or is a sphere), else the normal form's."""
    return classify(s)[2]
