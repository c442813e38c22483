"""The word-to-form path as first written: the oracle for the one-pass
scans in ``arfbrown.surface``.

Vertices come from a union-find over the polygon corners with a tail/head
rule per side, and the Gram matrix from a scan of every pair of letters that
counts the occurrences of one between the occurrences of the other, so the
form costs O(dim^2) steps.  ``assert_matches_oracle`` compares the package
with it on one word; ``random_scheme`` draws the words.
"""

from itertools import islice

from arfbrown.surface import (
    GluingScheme,
    IntersectionForm,
    MultipleVertices,
    SurfaceInfo,
    _letter_names,
    analyze,
    intersection_form,
    nonorientable_scheme,
    normalize,
    orientable_scheme,
    surface_form,
)


def random_scheme(rng, n_letters: int) -> GluingScheme:
    """A uniformly shuffled valid word on n_letters letters."""
    slots = list(islice(_letter_names(), n_letters)) * 2
    rng.shuffle(slots)
    return GluingScheme([(letter, rng.choice((1, -1))) for letter in slots])


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def count(self) -> int:
        return sum(1 for i in range(len(self.parent)) if self.find(i) == i)


def vertex_count(s: GluingScheme) -> int:
    """Corners of the polygon identified by the side gluings."""
    word = s.word
    length = len(word)
    uf = UnionFind(length)
    # side i runs from polygon corner i to corner i+1; +1 means the arrow
    # agrees with that direction, -1 means it is reversed
    occurrences: dict[str, list[int]] = {}
    for i, (letter, _) in enumerate(word):
        occurrences.setdefault(letter, []).append(i)

    def tail(i: int) -> int:
        return i if word[i][1] == 1 else (i + 1) % length

    def head(i: int) -> int:
        return (i + 1) % length if word[i][1] == 1 else i

    for p, q in occurrences.values():
        uf.union(tail(p), tail(q))
        uf.union(head(p), head(q))
    return uf.count()


def oracle_analyze(s: GluingScheme) -> SurfaceInfo:
    vertices = vertex_count(s)
    euler = vertices - len(s.word) // 2 + 1
    signs: dict[str, list[int]] = {}
    for letter, exp in s.word:
        signs.setdefault(letter, []).append(exp)
    orientable = all(sorted(v) == [-1, 1] for v in signs.values())
    return SurfaceInfo(
        euler_char=euler,
        orientable=orientable,
        betti1_mod2=2 - euler,
        vertex_count=vertices,
    )


def oracle_intersection_form(s: GluingScheme) -> IntersectionForm:
    """The pairwise interleaving scan; raises MultipleVertices like the
    package on a word with more than one vertex and b1 > 0."""
    info = oracle_analyze(s)
    if info.betti1_mod2 == 0:
        return IntersectionForm(basis_labels=(), rows=())
    if info.vertex_count != 1:
        raise MultipleVertices(f"scheme has {info.vertex_count} vertices")
    labels = s.letters
    positions: dict[str, list[int]] = {}
    signs: dict[str, list[int]] = {}
    for i, (letter, exp) in enumerate(s.word):
        positions.setdefault(letter, []).append(i)
        signs.setdefault(letter, []).append(exp)
    dim = len(labels)
    rows = [0] * dim
    for i, a in enumerate(labels):
        if signs[a][0] == signs[a][1]:
            rows[i] |= 1 << i
        p1, p2 = positions[a]
        for j in range(i + 1, dim):
            inside = sum(1 for q in positions[labels[j]] if p1 < q < p2)
            if inside % 2:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return IntersectionForm(basis_labels=labels, rows=tuple(rows))


def oracle_surface_form(s: GluingScheme) -> IntersectionForm:
    """The word's own form if it has one, else the canonical word's."""
    info = oracle_analyze(s)
    if info.vertex_count == 1 or info.betti1_mod2 == 0:
        return oracle_intersection_form(s)
    if info.orientable:
        return oracle_intersection_form(orientable_scheme(info.betti1_mod2 // 2))
    return oracle_intersection_form(nonorientable_scheme(info.betti1_mod2))


def assert_matches_oracle(s: GluingScheme) -> None:
    """analyze, intersection_form and surface_form agree with the oracle,
    and a multi-vertex word's surface_form is its normal form's form."""
    info = analyze(s)
    assert info == oracle_analyze(s), s
    try:
        want = oracle_intersection_form(s)
    except MultipleVertices:
        want = None
    if want is None:
        try:
            intersection_form(s)
        except MultipleVertices:
            pass
        else:
            raise AssertionError(f"{s}: no MultipleVertices on {info}")
    else:
        assert intersection_form(s) == want, s
    form = surface_form(s)
    assert form == oracle_surface_form(s), s
    if info.vertex_count != 1:
        assert form == intersection_form(normalize(s)), s
