"""Root systems from the standard Cartan matrix of each accepted type, and their Weyl groups.

Everything is exact: roots live in the root lattice (integer coordinates in the
simple-root basis) and the simple reflections are permutations of the finite
root list.  A group keeps each element as its index and its reduced word.  The
enumeration finds an element by its images of the simple roots, which fix it
(Geck-Pfeiffer 2000, ch. 1-2), and keeps none of them.  Per simple reflection
s_i a group keeps the index maps y -> y*s_i, recorded while it is enumerated,
and y -> s_i*y*s_i.  A product is a walk through these maps along a reduced
word, an image of a root a walk through the simple reflections (Geck-Pfeiffer
2000, ch. 2).  The actions on the whole root list are built only on request,
as root_actions: one bytes per element, one translate each.
"""
from __future__ import annotations

from functools import cached_property
from math import inf, prod
from typing import Callable, NamedTuple, Sequence

from .errors import DEFAULT_MAX_ORDER, InternalError, InvalidType, SizeLimit

Coords = tuple[int, ...]
Perm = tuple[int, ...]

MAX_ROOTS = 10_000


def _chain(n: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
        if i + 1 < n:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    return m


class _Type(NamedTuple):
    """An irreducible type: the ranks it is accepted at, and its data as functions of the rank n."""

    min_rank: int
    max_rank: float  # inf: every rank from min_rank on
    coxeter_number: Callable[[int], int]
    degrees: Callable[[int], tuple[int, ...]]
    # the Cartan entries (i, j, a) in which the type differs from _chain(n)
    cartan_entries: Callable[[int], tuple[tuple[int, int, int], ...]]


_TYPES = {
    "A": _Type(1, inf, lambda n: n + 1, lambda n: tuple(range(2, n + 2)), lambda n: ()),
    "B": _Type(2, inf, lambda n: 2 * n, lambda n: tuple(range(2, 2 * n + 1, 2)),
               lambda n: ((n - 1, n - 2, -2),)),
    "C": _Type(3, inf, lambda n: 2 * n, lambda n: tuple(range(2, 2 * n + 1, 2)),
               lambda n: ((n - 2, n - 1, -2),)),
    # branch node: the last two simple roots both attach to node n-3
    "D": _Type(4, inf, lambda n: 2 * n - 2, lambda n: tuple(range(2, 2 * n - 1, 2)) + (n,),
               lambda n: ((n - 1, n - 2, 0), (n - 2, n - 1, 0), (n - 1, n - 3, -1), (n - 3, n - 1, -1))),
    "G": _Type(2, 2, lambda n: 6, lambda n: (2, 6), lambda n: ((1, 0, -3),)),
    "F": _Type(4, 4, lambda n: 12, lambda n: (2, 6, 8, 12), lambda n: ((2, 1, -2),)),
}

ACCEPTED_TYPES = ", ".join(
    f"{t}({row.min_rank})" if row.max_rank == row.min_rank else f"{t}(n>={row.min_rank})"
    for t, row in _TYPES.items()
)


def _type(type_label: str, rank: int) -> _Type:
    """The row of an accepted pair; InvalidType for any other pair, a label no str or a rank no int included."""
    row = _TYPES.get(type_label) if isinstance(type_label, str) else None
    if row is None or type(rank) is not int or not row.min_rank <= rank <= row.max_rank:
        raise InvalidType(f"unsupported type {type_label}{rank!r}; accepted: {ACCEPTED_TYPES}")
    return row


def coxeter_number(type_label: str, rank: int) -> int:
    """The Coxeter number h of an accepted pair; its root system has rank * h roots.

    InvalidType for any other pair.  Nothing of size rank is built, so a huge
    rank is cheap to check.
    """
    return _type(type_label, rank).coxeter_number(rank)


def standard_cartan_matrix(type_label: str, rank: int) -> tuple[Coords, ...]:
    """Standard Cartan matrix of an irreducible type, entry(i,j) = <a_j, a_i^v>."""
    entries = _type(type_label, rank).cartan_entries(rank)
    m = _chain(rank)
    for i, j, a in entries:
        m[i][j] = a
    return tuple(tuple(row) for row in m)


def fundamental_degrees(type_label: str, rank: int) -> tuple[int, ...]:
    """Degrees of the basic invariants of an accepted pair; their product is the group order."""
    return _type(type_label, rank).degrees(rank)


def _check_rank(rank: int) -> None:
    """InvalidType unless rank is an int of at least 1; a bool or a float is refused."""
    if type(rank) is not int or rank < 1:
        raise InvalidType(f"rank must be a positive integer, got {rank!r}")


class _CartanFields(NamedTuple):
    type_label: str
    rank: int
    cartan_matrix: tuple[Coords, ...]


class CartanDatum(_CartanFields):
    """An accepted type and rank with its standard Cartan matrix.

    Validated on every construction, _replace included: the matrix must equal
    standard_cartan_matrix(type_label, rank), so another numbering of the
    nodes is refused, and the datum stores that standard matrix.
    """

    __slots__ = ()

    def __new__(cls, type_label: str, rank: int, cartan_matrix: tuple[Coords, ...]) -> CartanDatum:
        _check_rank(rank)
        # the type and length are compared first, so a wrong rank builds no rank x rank matrix
        fits = isinstance(cartan_matrix, tuple) and len(cartan_matrix) == rank
        standard = standard_cartan_matrix(type_label, rank) if fits else None
        if standard is None or cartan_matrix != standard:
            raise InvalidType(f"the matrix given is not the Cartan matrix of {type_label}{rank}")
        return super().__new__(cls, type_label, rank, standard)

    @classmethod
    def _make(cls, iterable) -> CartanDatum:
        return cls(*iterable)

    @property
    def label(self) -> str:
        return f"{self.type_label}{self.rank}"


def _check_root_count(label: str, n_roots: int) -> None:
    if n_roots > MAX_ROOTS:
        raise SizeLimit(f"{label} has {n_roots} roots, more than the limit of {MAX_ROOTS}")


def build_cartan(type_label: str, rank: int) -> CartanDatum:
    """Standard Cartan datum for an irreducible pair, rejecting aliases (C2, D2, D3).

    SizeLimit if the root system would have more than MAX_ROOTS roots, raised
    before the rank x rank matrix is built.
    """
    _check_rank(rank)
    _check_root_count(f"{type_label}{rank}", rank * coxeter_number(type_label, rank))
    matrix = standard_cartan_matrix(type_label, rank)
    return CartanDatum(type_label, rank, matrix)


class RootSystem(NamedTuple):
    """The finite root set, in simple-root coordinates, with the simple reflections.

    Roots are ordered: positive roots first, sorted by (height, coordinates),
    then the negatives in the matching order.  This ordering is what makes every
    downstream permutation, and hence every table, deterministic.
    """

    cartan: CartanDatum
    roots: tuple[Coords, ...]
    n_positive: int
    simple_reflection_perms: tuple[Perm, ...]

    @property
    def simple_root_columns(self) -> tuple[int, ...]:
        """Root-list positions of the simple roots, in simple-root order.

        The simple roots are the roots of height 1, so they come first, and
        sorting them by coordinates puts a_r first and a_1 last.
        """
        return tuple(range(self.cartan.rank - 1, -1, -1))


def _reflect(cartan: CartanDatum, v: Coords, i: int) -> Coords:
    pairing = sum(cartan.cartan_matrix[i][j] * v[j] for j in range(cartan.rank))
    out = list(v)
    out[i] -= pairing
    return tuple(out)


def check_group_order(cartan: CartanDatum, max_order: int) -> int:
    """The group order the fundamental degrees give for the type of cartan.

    InvalidType if max_order is not an int (a bool included), SizeLimit if the
    order is more than max_order; nothing of the order's size is built, so
    this can run before the closure.
    """
    if type(max_order) is not int:
        raise InvalidType(f"the group-order limit must be an int, got {max_order!r}")
    expected = prod(fundamental_degrees(cartan.type_label, cartan.rank))
    if expected > max_order:
        raise SizeLimit(f"{cartan.label} has order {expected}, more than the limit of {max_order}")
    return expected


def build_root_system(cartan: CartanDatum) -> RootSystem:
    """Close the simple roots under the simple reflections.

    The root system has rank * h roots for the Coxeter number h of its type:
    SizeLimit if that exceeds MAX_ROOTS, raised before any closing, and
    InternalError if the closure has another number of roots.
    """
    rank = cartan.rank
    n_roots = rank * coxeter_number(cartan.type_label, rank)
    _check_root_count(cartan.label, n_roots)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen: set[Coords] = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                w = _reflect(cartan, v, i)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    if len(seen) != n_roots:
        raise InternalError(f"the closure of {cartan.label} has {len(seen)} roots, not {n_roots}")

    positives = sorted(
        (v for v in seen if all(c >= 0 for c in v)),
        key=lambda v: (sum(v), v),
    )
    negatives = [tuple(-c for c in v) for v in positives]
    roots = tuple(positives + negatives)

    index = {r: k for k, r in enumerate(roots)}
    perms = []
    for i in range(rank):
        perms.append(tuple(index[_reflect(cartan, r, i)] for r in roots))
    rs = RootSystem(cartan, roots, len(positives), tuple(perms))

    # s_i negates a_i and permutes the remaining positive roots
    for i, p in enumerate(perms):
        col = rs.simple_root_columns[i]
        if p[col] != col + rs.n_positive or any(
            p[r] >= rs.n_positive for r in range(rs.n_positive) if r != col
        ):
            raise InternalError(
                f"s{i + 1} does not negate a{i + 1} and permute the other positive roots"
            )
    return rs


class WeylGroup:
    """The full reflection group: each element is its index and its reduced word.

    Elements are indexed 0..order-1 in canonical order: by length, then by the
    lexicographic image of the root list.  Index 0 is the identity.
    words[y] is a reduced word of y, so lengths[y] is its length, and
    right_maps[i][y] is the index of y*s_i.  The elements' actions on the
    whole root list are built only when first asked for.
    """

    def __init__(
        self,
        rootsystem: RootSystem,
        words: tuple[tuple[int, ...], ...],
        right_maps: tuple[tuple[int, ...], ...],
        inverses: tuple[int, ...],
    ):
        self.rootsystem = rootsystem
        self.cartan = rootsystem.cartan
        self.lengths = tuple(map(len, words))
        self.words = words
        self.right_maps = right_maps
        self._inverses = inverses
        self.identity_index = 0
        self.generator_indices = tuple(r[self.identity_index] for r in right_maps)
        self.group_id = rootsystem.cartan.label
        self.cache: dict = {}

    @property
    def order(self) -> int:
        return len(self.lengths)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @cached_property
    def root_actions(self) -> tuple[bytes, ...]:
        """Byte k of root_actions[y] is the index of y(root k); enumerate_group allows at most 256 roots.

        y = (y*s_i)*s_i for y's last letter i, and y*s_i is one shorter, so it
        comes earlier: y's bytes are s_i's translated by those of y*s_i.
        """
        n_roots = len(self.rootsystem.roots)
        pad = bytes(256 - n_roots)  # translate tables have 256 entries
        gens = [bytes(g) for g in self.rootsystem.simple_reflection_perms]
        words, right = self.words, self.right_maps
        actions = [bytes(range(n_roots))]
        for y in range(1, self.order):
            i = words[y][-1]
            actions.append(gens[i].translate(actions[right[i][y]] + pad))
        return tuple(actions)

    @cached_property
    def conjugation_maps(self) -> tuple[tuple[int, ...], ...]:
        """conjugation_maps[i][y] is the index of s_i*y*s_i = (y^-1*s_i)^-1 * s_i."""
        inv = self._inverses
        return tuple(tuple(r[inv[r[inv[y]]]] for y in range(self.order)) for r in self.right_maps)

    def mul(self, a: int, b: int) -> int:
        """Index of the product a*b, b acting first: a walked along the reduced word of b."""
        right = self.right_maps
        for i in self.words[b]:
            a = right[i][a]
        return a

    def inv(self, a: int) -> int:
        return self._inverses[a]

    def conjugate(self, x: int, y: int) -> int:
        """Index of x*y*x^-1: y conjugated by the letters of x's reduced word, last first."""
        maps = self.conjugation_maps
        for i in reversed(self.words[x]):
            y = maps[i][y]
        return y

    def conjugate_sweep(self, w: int, xs: Sequence[int] | None = None) -> list[int]:
        """Indices of x*w*x^-1 for every x in xs (all elements by default)."""
        xs = range(self.order) if xs is None else xs
        return [self.conjugate(x, w) for x in xs]

    def word_str(self, e: int) -> str:
        """Reduced word of an element, e.g. 's1*s2'; the identity is 'e'."""
        word = self.words[e]
        if not word:
            return "e"
        return "*".join(f"s{i + 1}" for i in word)

    def inversions(self, e: int) -> int:
        """Number of positive roots sent to negative roots."""
        npos = self.rootsystem.n_positive
        return len(self.root_actions[e][:npos].translate(None, bytes(range(npos))))

    @cached_property
    def longest_element(self) -> int:
        npos = self.rootsystem.n_positive
        longest = [e for e in range(self.order) if self.lengths[e] == npos]
        if len(longest) != 1:
            raise InternalError(f"{len(longest)} elements have the maximal length {npos}")
        return longest[0]


def enumerate_group(rootsystem: RootSystem, max_order: int = DEFAULT_MAX_ORDER) -> WeylGroup:
    """Breadth-first closure of the simple reflections; length = search depth.

    The group's order is the product of the fundamental degrees of its type:
    SizeLimit if that exceeds max_order, raised before any product is formed,
    and InternalError if the search finds another number of elements, raised
    as soon as it finds one too many.  The search finds each element y by its
    key, y^-1 applied to the first r roots (the simple roots: see
    RootSystem.simple_root_columns), which fixes y.
    Keys are bytes of root indices, so the key of y*s_i is the key of y
    translated by the permutation s_i, one call.  The search records y*s_i for
    every element y, which become the group's right_maps.
    """
    cartan = rootsystem.cartan
    expected = check_group_order(cartan, max_order)
    n_roots = len(rootsystem.roots)
    if n_roots > 256:
        # keys hold root indices in bytes; every such group has over 10^11 elements
        raise SizeLimit(f"{cartan.label} has {n_roots} roots, more than the 256 a search key holds")
    # translate tables have 256 entries; those past the last root are never read
    gens = [bytes(g) + bytes(256 - n_roots) for g in rootsystem.simple_reflection_perms]
    identity = bytes(range(cartan.rank))
    found = {identity: 0}
    keys = [identity]
    words: list[tuple[int, ...]] = [()]
    successors: list[list[int]] = [[] for _ in gens]
    # keys grows while it is walked, so it is visited in breadth-first order
    for k, key in enumerate(keys):
        for i, g in enumerate(gens):
            moved = key.translate(g)
            j = found.get(moved)
            if j is None:
                j = found[moved] = len(keys)
                if j >= expected:
                    raise InternalError(f"enumerated more than {expected} elements for {cartan.label}")
                keys.append(moved)
                words.append(words[k] + (i,))
            successors[i].append(j)
    del found

    n = len(keys)
    if n != expected:
        raise InternalError(
            f"enumerated {n} elements for {cartan.label}, expected {expected}"
        )
    # the inverse of s_i1*...*s_ik is s_ik*...*s_i1
    inverses = []
    for word in words:
        y = 0
        for i in reversed(word):
            y = successors[i][y]
        inverses.append(y)
    # y's images of the first r roots are the key of y^-1; they order distinct
    # elements as the images of the whole root list do
    ordering = sorted(range(n), key=lambda k: (len(words[k]), keys[inverses[k]]))
    del keys
    position = [0] * n
    for pos, k in enumerate(ordering):
        position[k] = pos
    return WeylGroup(
        rootsystem,
        tuple(words[k] for k in ordering),
        tuple(tuple(position[succ[k]] for k in ordering) for succ in successors),
        tuple(position[inverses[k]] for k in ordering),
    )


def build_weyl_group(type_label: str, rank: int, *, max_order: int = DEFAULT_MAX_ORDER) -> WeylGroup:
    """Convenience: cartan -> root system -> enumerated group."""
    cartan = build_cartan(type_label, rank)
    check_group_order(cartan, max_order)
    return enumerate_group(build_root_system(cartan), max_order=max_order)
