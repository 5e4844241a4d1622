"""Small exact linear algebra: integer kernels and rational square roots.

Kernels are found by fraction-free Gauss-Jordan elimination over Python ints
(Bareiss, Math. Comp. 22 (1968) 565-578): every intermediate entry is a minor
of the input, so each division is exact and no rational number is formed.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence


def nullspace(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer basis of the right kernel of an integer matrix, one vector per row.

    Each elimination step replaces every other row by
    (pivot * row - row[c] * pivot_row) // previous_pivot.  At the end every
    pivot equals the last one, d, so the vector for a free column fc has
    d at fc and -m[r][fc] at the pivot column of row r.
    """
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p, pivot_row = m[r][c], m[r]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], pivot_row)]
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = prev
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)
