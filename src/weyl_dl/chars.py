"""Exact class functions, character tables, and the virtual-character lattice.

Character tables are computed by simultaneous eigenspace splitting of the
class-multiplication matrices, tallied from walks through the group's
simple-reflection maps.  Those matrices are integer, so each eigenspace
is an integer kernel from fraction-free elimination (ratlinalg.nullspace), and
only the final rescaling to character values is rational.  Weyl-group
character values are rational integers, so every step either stays exact or
raises IrrationalityError; nothing is ever rounded.

Class-function values are Python ints.  Inner products, decomposition and
realization are integer sums, and the one division by |G| in an inner product
is exact; a Fraction appears only where a value really is non-integral.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import GroupMismatch, InternalError, IrrationalityError, NotVirtual
from .grp import ConjugacyClasses, conjugacy_classes
from .ratlinalg import fraction_sqrt, nullspace
from .rootsys import WeylGroup
from . import symchars

MAX_SPLIT_ATTEMPTS = 64


@dataclass(frozen=True)
class ClassFunction:
    """Exact function on the conjugacy classes of one group.

    Values are Python ints; a Fraction only where a value is non-integral.
    """

    group_id: str
    values: tuple[int | Fraction, ...]

    def _check(self, other: "ClassFunction") -> None:
        if self.group_id != other.group_id:
            raise GroupMismatch(
                f"class functions on {self.group_id} and {other.group_id}"
            )

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.group_id, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.group_id, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.group_id, tuple(a * b for a, b in zip(self.values, other.values)))


@dataclass(frozen=True)
class VirtualCharacter:
    """Integer vector over the canonical irreducible basis of one group."""

    group_id: str
    coeffs: tuple[int, ...]

    def _check(self, other: "VirtualCharacter") -> None:
        if self.group_id != other.group_id:
            raise GroupMismatch(
                f"virtual characters on {self.group_id} and {other.group_id}"
            )

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        self._check(other)
        return VirtualCharacter(self.group_id, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "VirtualCharacter":
        return VirtualCharacter(self.group_id, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return self + (-other)


@dataclass(eq=False)
class CharacterTable:
    """All irreducible characters of one group, in canonical order.

    Canonical order: ascending degree, then value lists compared high-to-low,
    which puts the trivial character first.  labels is per-row partition labels
    for irreducible type A, else None.
    """

    group_id: str
    classes: ConjugacyClasses
    irreducibles: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    labels: tuple[tuple[int, ...], ...] | None = None

    @property
    def n_irreducibles(self) -> int:
        return len(self.irreducibles)

    def values_row(self, i: int) -> tuple[int, ...]:
        return self.irreducibles[i].values


def exact_quotient(num: int | Fraction, den: int) -> int | Fraction:
    """num / den as an int when the division is exact, else as a Fraction."""
    q, r = divmod(num, den)
    return q if r == 0 else Fraction(num, den)


def inner_product(classes: ConjugacyClasses, f: ClassFunction, g: ClassFunction) -> int | Fraction:
    """<f, g> = (1/|G|) sum over classes of |C| f(C) g(C^-1-class)."""
    if f.group_id != classes.group_id or g.group_id != classes.group_id:
        raise GroupMismatch("class functions do not live on the given classes")
    fv, gv = f.values, g.values
    total = sum(
        size * fv[c] * gv[i]
        for c, (size, i) in enumerate(zip(classes.sizes, classes.inverse_class))
    )
    return exact_quotient(total, classes.order)


def trivial(classes: ConjugacyClasses) -> ClassFunction:
    return ClassFunction(classes.group_id, (1,) * classes.n_classes)


def sign(W: WeylGroup, classes: ConjugacyClasses) -> ClassFunction:
    """(-1)^length, evaluated on class representatives."""
    vals = tuple((-1) ** W.lengths[r] for r in classes.reps)
    return ClassFunction(classes.group_id, vals)


def reflection(W: WeylGroup, classes: ConjugacyClasses) -> ClassFunction:
    """Trace on the rank-dimensional reflection representation, exactly."""
    rs = W.rootsystem
    vals = []
    for r in classes.reps:
        perm = W.elements[r]
        trace = 0
        for j in range(W.rank):
            image = rs.roots[perm[rs.simple_root_columns[j]]]
            trace += image[j]
        vals.append(trace)
    return ClassFunction(classes.group_id, tuple(vals))


def regular(classes: ConjugacyClasses) -> ClassFunction:
    vals = [0] * classes.n_classes
    vals[classes.identity_class] = classes.order
    return ClassFunction(classes.group_id, tuple(vals))


def _class_multiplication_matrices(W: WeylGroup, classes: ConjugacyClasses) -> list[list[list[int]]]:
    """A[i][j][m] = #{x in C_i : x^-1 z_m in C_j} for class representatives z_m.

    With y = x^-1 this tallies (class of y^-1, class of y*z_m) over the members
    y, whose products with z_m are one walk through right_maps along its word.
    """
    k = classes.n_classes
    class_of = classes.class_of_arr
    inverse_classes = [class_of[W.inv(y)] for y in classes.members]
    A = [[[0] * k for _ in range(k)] for _ in range(k)]
    for m, rep in enumerate(classes.reps):
        products = classes.members
        for s in W.words[rep]:
            right = W.right_maps[s]
            products = [right[y] for y in products]
        for i, z in zip(inverse_classes, products):
            A[i][class_of[z]][m] += 1
    return A


def _eigenvalue_candidates(M: list[list[int]]) -> list[int]:
    """Integer eigenvalue candidates from a floating-point solve.

    Candidates are only proposals; each is certified (or discarded) by an exact
    nullspace computation, so no floating-point value ever reaches a result.
    numpy is imported here, only when a table is split.
    """
    import numpy as np

    arr = np.array(M, dtype=np.float64)
    eigs = np.linalg.eigvals(arr)
    return sorted({int(round(x)) for x in eigs.real})


def _split_eigenvectors(
    mats: list[list[list[int]]], k: int, seed: int
) -> list[list[int]]:
    """Common eigenvectors of the commuting class matrices, via random combinations.

    A random small-integer combination generically has k distinct integer
    eigenvalues whose one-dimensional eigenspaces are the common eigenvectors;
    collisions trigger a retry with fresh coefficients.
    """
    rng = random.Random(seed)
    for _ in range(MAX_SPLIT_ATTEMPTS):
        coeffs = [rng.randrange(1, 64) for _ in range(k)]
        M = [
            [sum(c * mats[i][j][m] for i, c in enumerate(coeffs)) for m in range(k)]
            for j in range(k)
        ]
        vectors: list[list[int]] = []
        collision = False
        for lam in _eigenvalue_candidates(M):
            shifted = [
                [M[j][m] - (lam if j == m else 0) for m in range(k)]
                for j in range(k)
            ]
            basis = nullspace(shifted)
            if len(basis) > 1:
                collision = True
                break
            if basis:
                vectors.append(basis[0])
        if not collision and len(vectors) == k:
            return vectors
    raise IrrationalityError(
        f"failed to split {k} rational eigenspaces after {MAX_SPLIT_ATTEMPTS} attempts"
    )


def _lift_to_character(
    classes: ConjugacyClasses, vec: list[int]
) -> tuple[int, ...]:
    """Turn a central-character vector, known up to scale, into integer character values."""
    ident = classes.identity_class
    if vec[ident] == 0:
        raise IrrationalityError("eigenvector vanishes on the identity class")
    scale = Fraction(1) / vec[ident]
    omega = [v * scale for v in vec]
    norm = Fraction(0)
    for j, size in enumerate(classes.sizes):
        norm += omega[j] * omega[classes.inverse_class[j]] / size
    degree_sq = Fraction(classes.order) / norm
    degree = fraction_sqrt(degree_sq)
    if degree is None or degree.denominator != 1 or degree <= 0:
        raise IrrationalityError(f"degree^2 = {degree_sq} is not a perfect square")
    values = []
    for j, size in enumerate(classes.sizes):
        v = degree * omega[j] / size
        if v.denominator != 1:
            raise IrrationalityError(f"non-integral character value {v}")
        values.append(int(v))
    return tuple(values)


def orthogonality(classes: ConjugacyClasses, rows: Sequence[Sequence[int]]) -> tuple[bool, bool]:
    """(row orthonormality, column orthogonality) of an integer table, exactly.

    Rows: sum over classes of |C| chi_i(C) chi_j(C^-1) is |G| or 0.  Columns:
    sum over irreducibles of chi(C) chi(D^-1) is |G|/|C| or 0.  A table that is
    not k x k for the k classes fails both.
    """
    k = classes.n_classes
    if len(rows) != k or any(len(row) != k for row in rows):
        return False, False
    order, sizes, inv = classes.order, classes.sizes, classes.inverse_class
    weighted = [[sizes[c] * row[inv[c]] for c in range(k)] for row in rows]
    rows_ok = all(
        sum(a * b for a, b in zip(rows[i], weighted[j])) == (order if i == j else 0)
        for i in range(k)
        for j in range(k)
    )
    cols = list(zip(*rows))
    cols_ok = all(
        sum(a * b for a, b in zip(cols[c], cols[inv[d]])) == (order // sizes[c] if c == d else 0)
        for c in range(k)
        for d in range(k)
    )
    return rows_ok, cols_ok


def canonical_rows(classes: ConjugacyClasses, rows: Sequence[Sequence[int]]) -> list[Sequence[int]]:
    """Rows in canonical order: ascending degree, then value lists compared high-to-low."""
    ident = classes.identity_class
    return sorted(rows, key=lambda row: (row[ident], [-v for v in row]))


def table_labels(
    W: WeylGroup, classes: ConjugacyClasses, rows: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...] | None:
    """Partition labels of the rows of W's own table for irreducible type A, else None.

    Each row is matched against the Murnaghan-Nakayama table of S_{rank+1};
    IrrationalityError if a row matches no partition or several.
    """
    if W.cartan.type_label != "A" or classes.order != W.order:
        return None
    parts, mn_rows = symchars.sn_character_table(W.rank + 1)
    col_of_class = []
    for rep in classes.reps:
        ct = symchars.cycle_type(symchars.natural_permutation(W, rep))
        col_of_class.append(parts.index(ct))
    labels = []
    for row in rows:
        hits = [
            lam
            for lam, mn_row in zip(parts, mn_rows)
            if all(row[c] == mn_row[col_of_class[c]] for c in range(len(row)))
        ]
        if len(hits) != 1:
            raise IrrationalityError(f"row {row} matches {len(hits)} partitions")
        labels.append(hits[0])
    return tuple(labels)


def character_table(
    W: WeylGroup, classes: ConjugacyClasses | None = None, *, seed: int = 0
) -> CharacterTable:
    """Exact integer character table of W or of one of its subgroups.

    Pass the classes of a subgroup to get that subgroup's table; by default the
    full group's table is computed.  Tables are cached on the group; the seed
    only picks the random combinations that split eigenspaces, not the table,
    so it is not part of the key.
    """
    if classes is None:
        classes = conjugacy_classes(W)
    key = ("character_table", classes.group_id)
    if key in W.cache:
        return W.cache[key]

    k = classes.n_classes
    mats = _class_multiplication_matrices(W, classes)
    vectors = _split_eigenvectors(mats, k, seed)
    rows = canonical_rows(classes, [_lift_to_character(classes, v) for v in vectors])

    degrees = tuple(row[classes.identity_class] for row in rows)
    if sum(d * d for d in degrees) != classes.order:
        raise IrrationalityError("degree squares do not sum to the group order")
    rows_ok, cols_ok = orthogonality(classes, rows)
    if not rows_ok:
        raise IrrationalityError("row orthogonality fails")
    if not cols_ok:
        raise IrrationalityError("column orthogonality fails")

    table = CharacterTable(
        group_id=classes.group_id,
        classes=classes,
        irreducibles=tuple(ClassFunction(classes.group_id, row) for row in rows),
        degrees=degrees,
        labels=table_labels(W, classes, rows),
    )
    W.cache[key] = table
    return table


def decompose(table: CharacterTable, f: ClassFunction) -> VirtualCharacter:
    """Coordinates of f in the irreducible basis; NotVirtual if f is not a lattice point."""
    if f.group_id != table.group_id:
        raise GroupMismatch(f"{f.group_id} vs table on {table.group_id}")
    coeffs = []
    for chi in table.irreducibles:
        c = inner_product(table.classes, f, chi)
        if not isinstance(c, int):
            raise NotVirtual(f"pairing {c} with an irreducible is not an integer")
        coeffs.append(c)
    if _combine(table, coeffs) != f.values:
        raise NotVirtual("reconstruction from irreducible pairings failed")
    return VirtualCharacter(table.group_id, tuple(coeffs))


def _combine(table: CharacterTable, coeffs: Sequence[int]) -> tuple[int, ...]:
    """Values of sum of coeffs[i] * chi_i, as integer sums."""
    vals = [0] * table.classes.n_classes
    for c, chi in zip(coeffs, table.irreducibles):
        if c:
            vals = [a + c * v for a, v in zip(vals, chi.values)]
    return tuple(vals)


def realize(table: CharacterTable, v: VirtualCharacter) -> ClassFunction:
    """The class function of a virtual character."""
    if v.group_id != table.group_id:
        raise GroupMismatch(f"{v.group_id} vs table on {table.group_id}")
    return ClassFunction(table.group_id, _combine(table, v.coeffs))


def tensor(table: CharacterTable, v: VirtualCharacter, w: VirtualCharacter) -> VirtualCharacter:
    """Product in the representation ring: pointwise product, re-decomposed."""
    product = realize(table, v) * realize(table, w)
    try:
        return decompose(table, product)
    except NotVirtual as exc:  # product of characters is always a character
        raise InternalError("tensor of virtual characters left the lattice") from exc


def unit(table: CharacterTable, i: int) -> VirtualCharacter:
    coeffs = [0] * table.n_irreducibles
    coeffs[i] = 1
    return VirtualCharacter(table.group_id, tuple(coeffs))
