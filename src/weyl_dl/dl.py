"""The Deligne-Lusztig operator on the virtual-character lattice.

DL(V) = sum over subsets I of J of (-1)^|I| ind res V, on the table of W_J,
for W (J all simple reflections) or a standard parabolic (Alvis 1979; Curtis
1980).  By the projection formula, ind res chi = chi * 1_{W_I}^{W_J}, so DL
multiplies pointwise by one class function, sum of (-1)^|I| 1_{W_I}^{W_J}
(the sign character, by Solomon's identity), read from induction counts alone.
It is verified to coincide with tensoring by the sign character, to square to
the identity, and to induce the transpose pairing on partition labels in type
A.  Cohomological shift bookkeeping appears only through the parity ledger:
the inverse-side signs (-1)^(d_empty + d_I) collapse to (-1)^|I|, since
d_0 + d_k = 2(central_rank + sigma_size) - k.  There is one assembly;
dl_inverse_matrix checks the ledger on every layer and returns it.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

from .chars import (
    CharacterTable, ClassFunction, VirtualCharacter, _combine, check_on, decompose,
    exact_quotient, irreducible_labels, sign, unit,
)
from .errors import GroupMismatch, InternalError, InvalidType, NotVirtual
from .grp import _check_weyl, parabolic
from .indres import induction_counts
from .rootsys import WeylGroup


class ShiftLedger(NamedTuple):
    """The central-torus dimensions d_i = central_rank + sigma_size - i.

    d_I depends only on |I|; the parity (-1)^(d_0 + d_|I|) is the sign carried
    by the inverse-side layers and must equal (-1)^|I|.
    """

    central_rank: int
    sigma_size: int

    def shift(self, i: int) -> int:
        if type(i) is not int or not 0 <= i <= self.sigma_size:
            raise InvalidType(f"layer {i!r} is outside 0..{self.sigma_size}")
        return self.central_rank + self.sigma_size - i

    @property
    def d(self) -> tuple[int, ...]:
        return tuple(self.shift(i) for i in range(self.sigma_size + 1))

    def inverse_side_sign(self, subset_size: int) -> int:
        return (-1) ** ((self.shift(0) + self.shift(subset_size)) % 2)

    def parity_identity_holds(self, subset_size: int) -> bool:
        return self.inverse_side_sign(subset_size) == (-1) ** subset_size


def subsets(rank: int) -> list[tuple[int, ...]]:
    """Every subset of the simple reflections 0..rank-1, by size, then lexicographically."""
    return list(
        itertools.chain.from_iterable(
            itertools.combinations(range(rank), k) for k in range(rank + 1)
        )
    )


def _alternating_matrix(W: WeylGroup, table: CharacterTable) -> tuple[tuple[int, ...], ...]:
    """Columns are the images of the irreducibles of W_J under sum over I in J of (-1)^|I| ind res.

    ind res chi = chi * 1_{W_I}^{W_J} (the projection formula), and
    1_{W_I}^{W_J}(w_r) is (1/|W_I|) * the sum of n over the triples (r, c, n)
    of induction_counts(W_J, W_I).  So DL chi = eps * chi / |W_J| pointwise,
    for the integer class function eps[r] += (-1)^|I| * |W_J|/|W_I| * n.
    """
    G = table.classes
    _check_weyl(G, W.group_id)
    gens = G.generators
    if gens is None:
        raise GroupMismatch(f"table on {G.group_id} is on an explicit subgroup, not a standard parabolic")
    eps = [0] * G.n_classes
    for positions in subsets(len(gens)):
        P = parabolic(W, tuple(gens[k] for k in positions))
        scale = (-1) ** len(positions) * (G.order // P.order)
        for r, _, n in induction_counts(G, P):
            eps[r] += scale * n
    images = []
    for i, chi in enumerate(table.irreducibles):
        values = tuple(exact_quotient(e * v, G.order) for e, v in zip(eps, chi.values))
        try:
            images.append(decompose(table, ClassFunction(table.group_id, values)).coeffs)
        except NotVirtual as exc:  # DL maps the virtual characters onto themselves
            raise InternalError(f"DL image of irreducible #{i} on {G.group_id} is not virtual: {exc}") from exc
    return tuple(images)


def dl_matrix(W: WeylGroup, table: CharacterTable) -> tuple[tuple[int, ...], ...]:
    """dl_matrix[i] is the coefficient vector of DL applied to irreducible i."""
    key = ("dl_matrix", table)
    if key not in W.cache:
        W.cache[key] = _alternating_matrix(W, table)
    return W.cache[key]


def dl_inverse_matrix(W: WeylGroup, table: CharacterTable) -> tuple[tuple[int, ...], ...]:
    """The operator assembled from the inverse-side shift parities: dl_matrix itself.

    On W_J the ledger is (rank - |J|, |J|).  Each layer's ledger sign must be
    (-1)^|I|, the sign dl_matrix assembles with; InternalError if one is not.
    """
    matrix = dl_matrix(W, table)
    sigma = len(table.classes.generators)
    ledger = ShiftLedger(W.rank - sigma, sigma)
    for size in range(sigma + 1):
        if not ledger.parity_identity_holds(size):
            raise InternalError(f"the inverse-side sign of layer {size} is not (-1)^{size}")
    return matrix


def dl_operator(W: WeylGroup, table: CharacterTable, v: VirtualCharacter) -> VirtualCharacter:
    """Apply DL to a virtual character, exactly."""
    check_on(v, table.classes)
    return VirtualCharacter(table.group_id, _combine(dl_matrix(W, table), v.coeffs))


def sign_tensor_permutation(W: WeylGroup, table: CharacterTable) -> tuple[int, ...]:
    """The permutation of the irreducibles given by tensoring with sign.

    sign * chi_i is irreducible, so it is found as the table row equal to it
    pointwise.  This computes it afresh; sign_permutation keeps the result on W.
    A table with repeated rows, or a twist that is no row, is an engine bug:
    InternalError.
    """
    sgn = sign(W, table.classes).values
    row_index = {chi.values: j for j, chi in enumerate(table.irreducibles)}
    if len(row_index) != table.n_irreducibles:
        raise InternalError(f"table on {table.group_id} has repeated rows")
    perm = []
    for i, chi in enumerate(table.irreducibles):
        twisted = tuple(s * v for s, v in zip(sgn, chi.values))
        if twisted not in row_index:
            raise InternalError(f"sign tensor irreducible #{i} is not a row of the table")
        perm.append(row_index[twisted])
    return tuple(perm)


def sign_permutation(W: WeylGroup, table: CharacterTable) -> tuple[int, ...]:
    """sign_tensor_permutation, computed once per table and cached on W."""
    key = ("sign_tensor_permutation", table)
    if key not in W.cache:
        W.cache[key] = sign_tensor_permutation(W, table)
    return W.cache[key]


def verify_sign_twist(W: WeylGroup, table: CharacterTable) -> tuple[str, ...]:
    """DL on each irreducible equals sign tensor that irreducible, exactly; the violations, or ()."""
    matrix = dl_matrix(W, table)
    perm = sign_permutation(W, table)
    violations = []
    for i in range(table.n_irreducibles):
        expected = unit(table, perm[i]).coeffs
        if matrix[i] != expected:
            violations.append(
                f"irreducible #{i}: DL image {matrix[i]} != sign-tensor image {expected}"
            )
    return tuple(violations)


def verify_involution(W: WeylGroup, table: CharacterTable) -> tuple[str, ...]:
    """The matrix of DL squares to the identity, exactly; the violations, or ()."""
    matrix = dl_matrix(W, table)
    k = len(matrix)
    violations = []
    for i in range(k):
        twice = _combine(matrix, matrix[i])
        expected = tuple(1 if j == i else 0 for j in range(k))
        if twice != expected:
            violations.append(f"column #{i}: DL^2 image is {twice}")
    return tuple(violations)


def springer_table(W: WeylGroup, table: CharacterTable) -> tuple[tuple[str, str], ...]:
    """The pairing alpha -> sign tensor alpha, rendered in labels.

    In type A this is transposition of partitions.
    """
    labels = irreducible_labels(table)
    perm = sign_permutation(W, table)
    return tuple((labels[i], labels[perm[i]]) for i in range(table.n_irreducibles))
