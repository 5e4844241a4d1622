"""The Deligne-Lusztig operator on the virtual-character lattice.

DL(V) = sum over subsets I of J of (-1)^|I| ind res V, on the table of W_J,
for W (J all simple reflections) or a standard parabolic (Alvis 1979; Curtis
1980).  The operator is assembled exactly, verified to coincide with
tensoring by the sign character, to square to the identity, and to induce the
transpose pairing on partition labels in type A.  Cohomological shift
bookkeeping appears only through the parity ledger: the inverse-side signs
(-1)^(d_empty + d_I) collapse to (-1)^|I|, since d_0 + d_k = 2(central_rank +
sigma_size) - k.  There is one assembly; dl_inverse_matrix checks the ledger
on every layer and returns it.
"""
from __future__ import annotations

import itertools
from operator import add, sub
from typing import NamedTuple

from .chars import (
    CharacterTable, ClassFunction, VirtualCharacter, decompose, irreducible_labels, sign, unit,
)
from .errors import GroupMismatch, InternalError, InvalidType
from .grp import parabolic
from .indres import induce, restrict
from .rootsys import WeylGroup


class ShiftLedger(NamedTuple):
    """The central-torus dimensions d_i = central_rank + sigma_size - i.

    d_I depends only on |I|; the parity (-1)^(d_0 + d_|I|) is the sign carried
    by the inverse-side layers and must equal (-1)^|I|.
    """

    central_rank: int
    sigma_size: int

    def shift(self, i: int) -> int:
        if not 0 <= i <= self.sigma_size:
            raise InvalidType(f"layer {i} is outside 0..{self.sigma_size}")
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
    """Columns are the images of the irreducibles of W_J under sum over I in J of (-1)^|I| ind res."""
    G = table.classes
    gens = G.generators
    if gens is None or any(i >= W.rank for i in gens) or parabolic(W, gens) is not G:
        raise GroupMismatch(f"table on {G.group_id} is not on {W.group_id} or a standard parabolic")
    sums = [[0] * G.n_classes for _ in table.irreducibles]
    for positions in subsets(len(gens)):
        subset = tuple(gens[k] for k in positions)
        P = parabolic(W, subset)
        op = sub if len(subset) % 2 else add
        for i, chi in enumerate(table.irreducibles):
            term = induce(restrict(chi, P, G), P, G)
            sums[i] = list(map(op, sums[i], term.values))
    return tuple(
        decompose(table, ClassFunction(table.group_id, tuple(acc))).coeffs for acc in sums
    )


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


def _apply(matrix: tuple[tuple[int, ...], ...], v: VirtualCharacter) -> tuple[int, ...]:
    k = len(matrix)
    out = [0] * k
    for i, c in enumerate(v.coeffs):
        if c:
            for j in range(k):
                out[j] += c * matrix[i][j]
    return tuple(out)


def dl_operator(W: WeylGroup, table: CharacterTable, v: VirtualCharacter) -> VirtualCharacter:
    """Apply DL to a virtual character, exactly."""
    if v.group_id != table.group_id:
        raise GroupMismatch(f"{v.group_id} vs table on {table.group_id}")
    return VirtualCharacter(table.group_id, _apply(dl_matrix(W, table), v))


def dl_inverse_operator(W: WeylGroup, table: CharacterTable, v: VirtualCharacter) -> VirtualCharacter:
    """Apply the inverse-side assembly of DL; equals dl_operator on the nose."""
    if v.group_id != table.group_id:
        raise GroupMismatch(f"{v.group_id} vs table on {table.group_id}")
    return VirtualCharacter(table.group_id, _apply(dl_inverse_matrix(W, table), v))


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
        twice = _apply(matrix, VirtualCharacter(table.group_id, matrix[i]))
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
