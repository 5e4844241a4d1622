"""Exact linear algebra over F_p, for a prime p that does not divide the group order.

Character tables are split mod p (Dixon, Numer. Math. 10 (1967) 446-450): each
eigenspace is a kernel from Gauss-Jordan elimination on residues.
"""
from __future__ import annotations

from math import isqrt
from typing import Sequence


def split_prime(order: int) -> int:
    """Smallest prime above 2*isqrt(order) + 2 that does not divide order.

    Character values are at most isqrt(order) in absolute value, so each is a
    symmetric residue mod p.
    """
    p = 2 * isqrt(order) + 3
    while order % p == 0 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += 1
    return p


def nullspace(mat: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel of a matrix over F_p, one vector per free column.

    Gauss-Jordan elimination brings mat to reduced row echelon form mod p; the
    vector for free column fc is 1 at fc, 0 at the other free columns, and
    -m[r][fc] at the pivot column of row r.  Entries are residues in [0, p).
    """
    m = [[a % p for a in row] for row in mat]
    cols = len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        pivot_row = m[r] = [a * inv % p for a in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = [(a - row[c] * b) % p for a, b in zip(row, pivot_row)]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return basis
