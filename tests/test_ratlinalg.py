from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_dl.ratlinalg import nullspace, split_prime


def echelon_pivots(mat, p):
    """Pivot columns of a plain row echelon form mod p: the oracle for nullspace."""
    m = [[x % p for x in row] for row in mat]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


@st.composite
def low_rank_matrices(draw):
    """M = A @ B with A rows x k and B k x cols, so rank M <= k."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    k = draw(st.integers(0, min(rows, cols)))
    entry = st.integers(-9, 9)
    A = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=rows, max_size=rows))
    B = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=k, max_size=k))
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]


@settings(max_examples=300, deadline=None)
@given(low_rank_matrices(), st.sampled_from([2, 3, 5, 7, 71, 127]))
def test_nullspace_mod_p_properties(M, p):
    cols = len(M[0])
    original = [row[:] for row in M]
    basis = nullspace(M, p)
    assert M == original
    pivots = echelon_pivots(M, p)
    free = [c for c in range(cols) if c not in pivots]
    assert len(basis) == cols - len(pivots)
    for q, v in enumerate(basis):
        assert len(v) == cols
        assert all(0 <= x < p for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in M)
        assert [v[fc] for fc in free] == [int(q == r) for r in range(len(free))]


def test_nullspace_known_kernel():
    assert nullspace([[1, 2, 3], [2, 4, 6]], 7) == [[5, 1, 0], [4, 0, 1]]
    assert nullspace([[2, 0], [0, 3]], 7) == []
    assert nullspace([[2, 0], [0, 3]], 3) == [[0, 1]]
    assert nullspace([[0, 0]], 7) == [[1, 0], [0, 1]]


def test_split_prime():
    assert [split_prime(n) for n in (1152, 3840, 40320)] == [71, 127, 409]
    for order in (1, 2, 6, 8, 12, 48, 384, 1920, 5040, 46080):
        p = split_prime(order)
        assert p > 2 * isqrt(order) + 2 and order % p
        assert all(p % d for d in range(2, p))
        assert not any(
            order % q and all(q % d for d in range(2, q))
            for q in range(2 * isqrt(order) + 3, p)
        )
