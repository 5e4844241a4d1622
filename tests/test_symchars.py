from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_dl import InvalidType
from weyl_dl.symchars import (
    class_size,
    cycle_type,
    dimension,
    mn_character,
    natural_permutation,
    partitions,
    sn_character_table,
    transpose,
)


def test_partition_order_and_count():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(6)) == 11
    assert len(partitions(8)) == 22


def test_transpose_examples():
    assert transpose((3,)) == (1, 1, 1)
    assert transpose((2, 1)) == (2, 1)
    assert transpose((4, 2, 1)) == (3, 2, 1, 1)


partition_strategy = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.sampled_from(partitions(n))
)


@given(partition_strategy)
def test_transpose_is_involution(lam):
    assert transpose(transpose(lam)) == lam


def test_s3_table_frozen():
    parts, rows = sn_character_table(3)
    table = dict(zip(parts, rows))
    # columns are cycle types in partitions(3) order: (3), (2,1), (1,1,1)
    assert table[(3,)] == [1, 1, 1]
    assert table[(1, 1, 1)] == [1, -1, 1]
    assert table[(2, 1)] == [-1, 0, 2]


@pytest.mark.parametrize("lam, mu", [((2, 1), (2,)), ((1,), (1, 1)), ((), (1,))])
def test_mn_character_refuses_partitions_of_different_sizes(lam, mu):
    """A package error, not a bare ValueError: callers catch the package's own classes."""
    with pytest.raises(InvalidType, match="have unequal sizes"):
        mn_character(lam, mu)


def test_s4_dimensions():
    parts, rows = sn_character_table(4)
    ident = parts.index((1, 1, 1, 1))
    dims = {lam: row[ident] for lam, row in zip(parts, rows)}
    assert dims == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}


@given(partition_strategy)
@settings(deadline=None)
def test_mn_dimension_matches_hooks(lam):
    n = sum(lam)
    assert mn_character(lam, (1,) * n) == dimension(lam)


@given(partition_strategy)
@settings(deadline=None)
def test_transpose_twists_by_sign(lam):
    n = sum(lam)
    for mu in partitions(n):
        sign = (-1) ** (n - len(mu))
        assert mn_character(transpose(lam), mu) == sign * mn_character(lam, mu)


def test_mn_orthogonality_small():
    for n in range(1, 7):
        parts, rows = sn_character_table(n)
        sizes = [class_size(mu) for mu in parts]
        k = len(parts)
        for i in range(k):
            for j in range(k):
                ip = Fraction(
                    sum(s * rows[i][c] * rows[j][c] for c, s in enumerate(sizes)),
                    factorial(n),
                )
                assert ip == (1 if i == j else 0)


def test_natural_permutation_roundtrip(groups):
    W = groups("A", 3)
    perms = {natural_permutation(W, e) for e in range(W.order)}
    assert len(perms) == 24
    identity = natural_permutation(W, W.identity_index)
    assert identity == (0, 1, 2, 3)
    # generator i is the adjacent transposition (i, i+1)
    for i, g in enumerate(W.generator_indices):
        sigma = natural_permutation(W, g)
        expected = list(range(4))
        expected[i], expected[i + 1] = expected[i + 1], expected[i]
        assert sigma == tuple(expected)


def decoded_permutation(W, e):
    """The point permutation decoded from e's images of the simple roots, read off W.root_actions.

    A root with coordinate support [lo..hi] is the difference of the coordinate
    vectors at the points lo and hi+1; chaining the images of a_1..a_n gives
    the image of every point.
    """
    roots = W.rootsystem.roots

    def pair_of(root):
        if all(c >= 0 for c in root):
            support = [i for i, c in enumerate(root) if c == 1]
            return support[0], support[-1] + 1
        hi, lo = pair_of(tuple(-c for c in root))
        return lo, hi

    sigma = [None] * (W.rank + 1)
    for i in range(W.rank):
        column = roots.index(tuple(int(j == i) for j in range(W.rank)))
        a, b = pair_of(roots[W.root_actions[e][column]])
        assert sigma[i] in (None, a), "the images of a_i and a_(i+1) do not chain"
        sigma[i], sigma[i + 1] = a, b
    return tuple(sigma)


@pytest.mark.parametrize("rank", range(1, 7))
def test_natural_permutation_matches_the_decoded_root_images(groups, rank):
    """The reduced word's transpositions give the permutation the root images give, on every element."""
    W = groups("A", rank)
    assert all(natural_permutation(W, e) == decoded_permutation(W, e) for e in range(W.order))


def test_natural_permutation_is_homomorphism(groups):
    W = groups("A", 2)
    for a in range(W.order):
        for b in range(W.order):
            sa = natural_permutation(W, a)
            sb = natural_permutation(W, b)
            sab = natural_permutation(W, W.mul(a, b))
            assert sab == tuple(sa[sb[i]] for i in range(3))


def test_cycle_type():
    assert cycle_type((1, 0, 2, 3)) == (2, 1, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type((0, 1)) == (1, 1)
