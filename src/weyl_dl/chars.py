"""Exact class functions, character tables, and the virtual-character lattice.

Character tables are computed by simultaneous eigenspace splitting of the
class-multiplication matrices, tallied from walks through the group's
simple-reflection maps.  Any commuting family of class matrices splits
(Dixon 1967), and which ones are used sets the cost (Schneider 1990): the
split and the certificate take the central involutions first, then the
classes of the simple reflections, then the rest by size, never the identity,
and each stops once the rows are lines.  The split runs modulo a prime p that
does not divide the group order, and each character value is the symmetric
residue of its value mod p; the rows are then certified over the integers,
with only the class matrices that separate them.  Any failure raises
IrrationalityError; nothing is ever rounded.

Class-function values are Python ints.  Inner products, decomposition and
realization are integer sums, and the one division by |G| in an inner product
is exact; a Fraction appears only where a value really is non-integral.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property, reduce
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import GroupMismatch, InternalError, IrrationalityError, NotVirtual
from .grp import ConjugacyClasses, _check_index, _check_weyl, conjugacy_classes
from .ratlinalg import nullspace, split_prime
from .rootsys import WeylGroup
from . import symchars

if TYPE_CHECKING:
    from fractions import Fraction


def _record_eq(self, other) -> bool:
    """Equal fields of the same class: never equal to a plain tuple or another record class."""
    return type(other) is type(self) and tuple.__eq__(self, other)


def _record_ne(self, other) -> bool:
    return not _record_eq(self, other)


def _refuse(self, other):
    """Stands in for tuple concatenation and repetition, which are no arithmetic on characters."""
    return NotImplemented


def _refuse_concatenation(self, other):
    """tuple + record: tuple.__add__ would concatenate after a NotImplemented, so raise here."""
    raise TypeError(
        f"unsupported operand type(s) for +: '{type(other).__name__}' and '{type(self).__name__}'"
    )


class ClassFunction(NamedTuple):
    """Exact function on the conjugacy classes of one group.

    Values are Python ints; a Fraction only where a value is non-integral.
    Equal, and hashed, by (group_id, values).  No arithmetic: combine .values;
    f + g, n * f and t + f are refused rather than joining or repeating tuples.
    """

    group_id: str
    values: tuple[int | Fraction, ...]

    __add__ = __mul__ = __rmul__ = _refuse
    __radd__ = _refuse_concatenation
    __eq__, __ne__, __hash__ = _record_eq, _record_ne, tuple.__hash__


class VirtualCharacter(NamedTuple):
    """Integer vector over the canonical irreducible basis of one group.

    Equal, and hashed, by (group_id, coeffs).  No arithmetic: combine .coeffs;
    v + w, n * v and t + v are refused rather than joining or repeating tuples.
    """

    group_id: str
    coeffs: tuple[int, ...]

    __add__ = __mul__ = __rmul__ = _refuse
    __radd__ = _refuse_concatenation
    __eq__, __ne__, __hash__ = _record_eq, _record_ne, tuple.__hash__


def check_on(x: ClassFunction | VirtualCharacter, classes: ConjugacyClasses) -> None:
    """GroupMismatch unless x has the group id of classes and one value, or coefficient, per class."""
    n, k = len(x[1]), classes.n_classes
    if x.group_id != classes.group_id or n != k:
        raise GroupMismatch(f"{n} entries on {x.group_id} do not live on the {k} classes of {classes.group_id}")


class CharacterTable:
    """All irreducible characters of one group, in canonical order.

    Canonical order: ascending degree, then value lists compared high-to-low,
    which puts the trivial character first.  labels is per-row partition labels
    for irreducible type A, else None.
    """

    def __init__(
        self,
        classes: ConjugacyClasses,
        irreducibles: tuple[ClassFunction, ...],
        degrees: tuple[int, ...],
        labels: tuple[tuple[int, ...], ...] | None = None,
    ):
        self.classes = classes
        self.irreducibles = irreducibles
        self.degrees = degrees
        self.labels = labels

    @property
    def group_id(self) -> str:
        return self.classes.group_id

    @property
    def n_irreducibles(self) -> int:
        return len(self.irreducibles)

    @cached_property
    def weighted_conjugates(self) -> tuple[tuple[int, ...], ...]:
        """Per irreducible chi, |C| chi(C^-1) over the classes C: <f, chi> = sum(f * it) / |G|."""
        sizes, inv = self.classes.sizes, self.classes.inverse_class
        return tuple(
            tuple(map(mul, sizes, map(chi.values.__getitem__, inv))) for chi in self.irreducibles
        )


def exact_quotient(num: int | Fraction, den: int) -> int | Fraction:
    """num / den as an int when the division is exact, else as a Fraction."""
    q, r = divmod(num, den)
    if r == 0:
        return q
    from fractions import Fraction  # kept off the import path: it loads decimal

    return Fraction(num, den)


def inner_product(classes: ConjugacyClasses, f: ClassFunction, g: ClassFunction) -> int | Fraction:
    """<f, g> = (1/|G|) sum over classes of |C| f(C) g(C^-1-class)."""
    check_on(f, classes)
    check_on(g, classes)
    weighted = map(mul, classes.sizes, f.values)
    total = sum(map(mul, weighted, map(g.values.__getitem__, classes.inverse_class)))
    return exact_quotient(total, classes.order)


def trivial(classes: ConjugacyClasses) -> ClassFunction:
    return ClassFunction(classes.group_id, (1,) * classes.n_classes)


def class_indicators(classes: ConjugacyClasses) -> tuple[ClassFunction, ...]:
    """The indicator 1_c of each class c, 1 on c and 0 elsewhere: a basis of the class functions."""
    n = classes.n_classes
    return tuple(ClassFunction(classes.group_id, (0,) * c + (1,) + (0,) * (n - 1 - c)) for c in range(n))


def sign(W: WeylGroup, classes: ConjugacyClasses) -> ClassFunction:
    """(-1)^length, evaluated on class representatives."""
    _check_weyl(classes, W.group_id)
    vals = tuple((-1) ** W.lengths[r] for r in classes.reps)
    return ClassFunction(classes.group_id, vals)


def reflection(W: WeylGroup, classes: ConjugacyClasses) -> ClassFunction:
    """Trace on the reflection representation: the sum over j of coordinate j of w(a_j), exactly."""
    _check_weyl(classes, W.group_id)
    rs = W.rootsystem
    vals = []
    for r in classes.reps:
        trace = 0
        for j, root in enumerate(rs.simple_root_columns):
            for i in reversed(W.words[r]):  # a_j walked through w's reduced word, last letter first
                root = rs.simple_reflection_perms[i][root]
            trace += rs.roots[root][j]
        vals.append(trace)
    return ClassFunction(classes.group_id, tuple(vals))


ClassMatrix = tuple[tuple[int, ...], ...]


def _class_matrix(W: WeylGroup, classes: ConjugacyClasses, i: int) -> ClassMatrix:
    """A[j][m] = #{x in C_i : x^-1 z_m in C_j} for class representatives z_m.

    Each x^-1 z_m is a walk of x^-1 through right_maps along the word of z_m.
    Cached on W, so the split and the certificate tally each matrix once.
    """
    key = ("class_matrix", classes.group_id, i)
    if key in W.cache:
        return W.cache[key]
    class_of = classes.class_index
    inverses = [W.inv(x) for x in classes.members if class_of[x] == i]
    A = [[0] * classes.n_classes for _ in classes.reps]
    for m, rep in enumerate(classes.reps):
        products = inverses
        for s in W.words[rep]:
            right = W.right_maps[s]
            products = [right[y] for y in products]
        for j, count in Counter(map(class_of.__getitem__, products)).items():
            A[j][m] = count
    W.cache[key] = tuple(map(tuple, A))
    return W.cache[key]


def _mat_vec(A: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in A]


def _eigenvalues(A: ClassMatrix, ident: int, p: int) -> list[int]:
    """Distinct eigenvalues of a class matrix mod p: the roots of the minimal polynomial of e_ident.

    e_ident = sum over chi of (chi(1)^2/|H|) omega_chi with no coefficient 0 mod p,
    so its Krylov space meets every eigenspace.  The first kernel vector of
    [e, Ae, ..., A^k e] holds the polynomial's coefficients, constant term first.
    """
    krylov = [[int(j == ident) for j in range(len(A))]]
    for _ in A:
        krylov.append([x % p for x in _mat_vec(A, krylov[-1])])
    poly = nullspace(list(zip(*krylov)), p)[0]
    return [x for x in range(p) if reduce(lambda v, c: (v * x + c) % p, reversed(poly), 0) == 0]


def _class_order(W: WeylGroup, classes: ConjugacyClasses) -> list[int]:
    """The classes whose matrices split and certify a table, in the order they are used.

    First the central classes other than the identity: in a Weyl group such a
    class is an involution like w0 = -1, whose matrix has eigenvalues +-1, so
    it splits a space at the cost of at most two kernels.  Then the classes of
    the subgroup's simple reflections (none for an explicit subgroup), then
    the rest by size, since a matrix costs a walk of its class.  The identity
    class is left out: its matrix is the identity and splits nothing.
    """
    ident, sizes = classes.identity_class, classes.sizes
    order = [i for i in range(classes.n_classes) if sizes[i] == 1 and i != ident]
    for s in classes.generators or ():
        i = classes.class_index[W.generator_indices[s]]
        if i not in order:
            order.append(i)
    rest = [i for i in range(classes.n_classes) if i != ident and i not in order]
    return order + sorted(rest, key=sizes.__getitem__)


def _split_eigenvectors(W: WeylGroup, classes: ConjugacyClasses, p: int) -> list[list[int]]:
    """Common eigenvectors mod p of the class matrices, one per irreducible.

    The centre of F_p H is split semisimple for p not dividing |H|, so the joint
    eigenspaces are k lines.  Class matrices, in _class_order, cut each
    subspace into the kernels of its restriction R - lambda until every
    subspace is a line.  A basis vector is 1 at its last nonzero entry, where
    the others are 0, so coordinates are read at those ends; kernel vectors
    keep this shape.
    """
    k = classes.n_classes
    spaces = [[[int(i == j) for j in range(k)] for i in range(k)]]
    for i in _class_order(W, classes):
        if all(len(basis) == 1 for basis in spaces):
            break
        A = _class_matrix(W, classes, i)
        eigenvalues = _eigenvalues(A, classes.identity_class, p)
        pieces = [basis for basis in spaces if len(basis) == 1]
        for basis in [basis for basis in spaces if len(basis) > 1]:
            ends = [max(c for c, x in enumerate(b) if x) for b in basis]
            R = [_mat_vec(basis, A[e]) for e in ends]  # R[t][s]: coordinate t of A*b_s
            found = 0
            for lam in eigenvalues:
                shifted = [[x - lam * (s == t) for s, x in enumerate(row)] for t, row in enumerate(R)]
                kernel = nullspace(shifted, p)
                if kernel:
                    pieces.append([[sum(map(mul, v, col)) % p for col in zip(*basis)] for v in kernel])
                    found += len(kernel)
                if found == len(basis):
                    break
        spaces = pieces
    if any(len(basis) > 1 for basis in spaces):
        raise InternalError(f"the class matrices do not split {k} lines mod {p}")
    return [basis[0] for basis in spaces]


def _lift_to_character(classes: ConjugacyClasses, vec: list[int], p: int) -> tuple[int, ...]:
    """Integer character values from a central-character vector mod p, known up to scale.

    With omega = vec / vec[ident], chi(1)^2 = |H| / (sum of omega_j omega_j* / |C_j|),
    chi(1) is its root in (0, p/2), and chi_j the symmetric residue of chi(1) omega_j / |C_j|.
    """
    inv_sizes = [pow(size, -1, p) for size in classes.sizes]
    try:
        omega = [v * pow(vec[classes.identity_class], -1, p) % p for v in vec]
        norm = sum(w * omega[j] * inv for w, j, inv in zip(omega, classes.inverse_class, inv_sizes))
        square = classes.order * pow(norm, -1, p) % p
        degree = next(d for d in range(1, p // 2 + 1) if d * d % p == square)
    except (ValueError, StopIteration):
        raise IrrationalityError(f"eigenvector {vec} lifts to no character mod {p}") from None
    values = (degree * w * inv % p for w, inv in zip(omega, inv_sizes))
    return tuple(v - p if 2 * v > p else v for v in values)


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
    weighted = [list(map(mul, sizes, map(row.__getitem__, inv))) for row in rows]
    rows_ok = all(
        sum(map(mul, rows[i], weighted[j])) == (order if i == j else 0)
        for i in range(k)
        for j in range(k)
    )
    cols = list(zip(*rows))
    cols_ok = all(
        sum(map(mul, cols[c], cols[inv[d]])) == (order // sizes[c] if c == d else 0)
        for c in range(k)
        for d in range(k)
    )
    return rows_ok, cols_ok


def certify_characters(W: WeylGroup, classes: ConjugacyClasses, rows: Sequence[Sequence[int]]) -> None:
    """Prove over Z that rows are the irreducible characters; IrrationalityError if not.

    Rows and columns must be orthogonal, the degree squares must sum to |H|,
    and every row must have positive degree.  Then w = (|C_j| chi_j) of each
    row must be an eigenvector of enough class matrices A_i to separate the
    rows.  (A_i w)[ident] = w_i, so the eigenvalue can only be w_i / w_ident,
    and the classes are taken in _class_order.  A class whose column
    w_i / w_ident splits no two rows that the matrices checked so far leave
    together is skipped, untallied; once every row has its own tuple of
    eigenvalues, the rest are not needed.

    Proof.  The class matrices commute and are simultaneously diagonalizable,
    with the k lines of the central characters w_chi as their joint
    eigenlines.  So a joint eigenspace of the checked matrices is a sum of
    such lines, and so is every other class matrix's restriction to it: the
    unchecked matrices preserve the joint eigenlines of the checked ones.  The
    k nonzero rows lie in k joint eigenspaces with distinct eigenvalue tuples,
    each holding at least one of the k lines, so each holds exactly one, and
    w = c w_chi: the row is c chi.  Its norm 1 gives c^2 = 1 and its positive
    degree c = 1, so each row is an irreducible character, each a different
    one.
    """
    if not all(orthogonality(classes, rows)):
        raise IrrationalityError("row or column orthogonality fails")
    ident = classes.identity_class
    if sum(row[ident] ** 2 for row in rows) != classes.order:
        raise IrrationalityError("degree squares do not sum to the group order")
    for r, row in enumerate(rows):
        if row[ident] <= 0:
            raise IrrationalityError(f"row {r} has degree {row[ident]}")
    ws = [[size * x for size, x in zip(classes.sizes, row)] for row in rows]
    eigenvalues: list[tuple] = [()] * len(rows)
    for i in _class_order(W, classes):
        if len(set(eigenvalues)) == len(rows):
            return
        # the key only picks the classes to check: a character's w_i / w_ident is an
        # integer, and the proof rests on the checked classes alone
        refined = [e + (divmod(w[i], w[ident]),) for e, w in zip(eigenvalues, ws)]
        if len(set(refined)) == len(set(eigenvalues)):
            continue
        A = _class_matrix(W, classes, i)
        for r, w in enumerate(ws):
            if _mat_vec(A, w) != [w[i] // w[ident] * x for x in w]:
                raise IrrationalityError(f"row {r} is not an eigenvector of class matrix {i}")
        eigenvalues = refined
    if len(set(eigenvalues)) != len(rows):
        raise IrrationalityError("the class matrices do not separate the rows")


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


def character_table(W: WeylGroup, classes: ConjugacyClasses | None = None) -> CharacterTable:
    """Exact integer character table of W or of one of its subgroups.

    Pass the classes of a subgroup to get that subgroup's table; by default the
    full group's table is computed.  The split mod p is deterministic, and the
    rows it lifts are certified over the integers.  Tables are cached on the
    group, by table_from_rows, which a cache hit also goes through.
    """
    if classes is None:
        classes = conjugacy_classes(W)
    _check_weyl(classes, W.group_id)
    key = ("character_table", classes.group_id)
    if key in W.cache:
        return W.cache[key]

    p = split_prime(classes.order)
    vectors = _split_eigenvectors(W, classes, p)
    rows = canonical_rows(classes, [_lift_to_character(classes, v, p) for v in vectors])
    return table_from_rows(W, classes, rows)


def table_from_rows(
    W: WeylGroup, classes: ConjugacyClasses, rows: Sequence[Sequence[int]]
) -> CharacterTable:
    """The table whose irreducibles are rows, once certify_characters proves them; cached on W.

    Degrees are read at the identity class and labels come from table_labels;
    IrrationalityError if the rows are not the irreducible characters or not
    in canonical order; GroupMismatch if classes partition a subgroup of another W.
    """
    _check_weyl(classes, W.group_id)
    certify_characters(W, classes, rows)
    if list(rows) != canonical_rows(classes, rows):
        raise IrrationalityError("the rows are not in canonical order")
    table = W.cache[("character_table", classes.group_id)] = CharacterTable(
        classes=classes,
        irreducibles=tuple(ClassFunction(classes.group_id, tuple(row)) for row in rows),
        degrees=tuple(row[classes.identity_class] for row in rows),
        labels=table_labels(W, classes, rows),
    )
    return table


def irreducible_labels(table: CharacterTable) -> tuple[str, ...]:
    """Display labels in canonical order: a partition in type A, degree+ordinal otherwise."""
    out = []
    seen_by_degree: dict[int, int] = {}
    for i, deg in enumerate(table.degrees):
        if table.labels is not None:
            display = "(" + ",".join(str(p) for p in table.labels[i]) + ")"
        else:
            ordinal = seen_by_degree.get(deg, 0) + 1
            seen_by_degree[deg] = ordinal
            display = f"d{deg}.{ordinal}"
        out.append(display)
    return tuple(out)


def decompose(table: CharacterTable, f: ClassFunction) -> VirtualCharacter:
    """Coordinates of f in the irreducible basis; NotVirtual if f is not a lattice point."""
    check_on(f, table.classes)
    coeffs = []
    for weighted in table.weighted_conjugates:
        c = exact_quotient(sum(map(mul, f.values, weighted)), table.classes.order)
        if not isinstance(c, int):
            raise NotVirtual(f"pairing {c} with an irreducible is not an integer")
        coeffs.append(c)
    if _combine([chi.values for chi in table.irreducibles], coeffs) != f.values:
        raise NotVirtual("reconstruction from irreducible pairings failed")
    return VirtualCharacter(table.group_id, tuple(coeffs))


def _combine(rows: Sequence[Sequence[int]], coeffs: Sequence[int]) -> tuple[int, ...]:
    """sum of coeffs[i] * rows[i]: irreducibles' values, or the rows of an operator's matrix."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = [a + c * v for a, v in zip(out, row)]
    return tuple(out)


def realize(table: CharacterTable, v: VirtualCharacter) -> ClassFunction:
    """The class function of a virtual character."""
    check_on(v, table.classes)
    rows = [chi.values for chi in table.irreducibles]
    return ClassFunction(table.group_id, _combine(rows, v.coeffs))


def tensor(table: CharacterTable, v: VirtualCharacter, w: VirtualCharacter) -> VirtualCharacter:
    """Product in the representation ring: pointwise product, re-decomposed."""
    values = map(mul, realize(table, v).values, realize(table, w).values)
    try:
        return decompose(table, ClassFunction(table.group_id, tuple(values)))
    except NotVirtual as exc:  # product of characters is always a character
        raise InternalError("tensor of virtual characters left the lattice") from exc


def unit(table: CharacterTable, i: int) -> VirtualCharacter:
    """The irreducible with index i; InvalidType unless i is an int in 0..k-1."""
    _check_index(i, table.n_irreducibles, "irreducible")
    coeffs = [0] * table.n_irreducibles
    coeffs[i] = 1
    return VirtualCharacter(table.group_id, tuple(coeffs))
