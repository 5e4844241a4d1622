from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_dl.ratlinalg import nullspace


def rational_rank(mat):
    """Rank by plain Gauss elimination over Fraction: the oracle for nullspace."""
    m = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rational_nullspace(mat, cols):
    """Kernel basis over Fraction from the reduced row echelon form."""
    m = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


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
@given(low_rank_matrices())
def test_integer_nullspace_properties(M):
    cols = len(M[0])
    original = [row[:] for row in M]
    basis = nullspace(M)
    assert M == original
    rank = rational_rank(M)
    assert len(basis) == cols - rank
    for v in basis:
        assert len(v) == cols
        assert all(type(x) is int for x in v)
        assert any(v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in M)
    # same span as the Fraction oracle: stacking the two bases adds no rank
    oracle = rational_nullspace(M, cols)
    assert len(oracle) == len(basis)
    if basis:
        assert rational_rank(basis) == len(basis)
        assert rational_rank(basis + oracle) == len(basis)


def test_nullspace_known_kernel():
    assert nullspace([[1, 2, 3], [2, 4, 6]]) == [[-2, 1, 0], [-3, 0, 1]]
    assert nullspace([[2, 0], [0, 3]]) == []
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]

