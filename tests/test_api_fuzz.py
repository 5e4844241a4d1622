"""The functions that take indices refuse bad ones with the package's own error.

parabolic and both sides of double_cosets take simple reflection indices,
subgroup_classes element indices and unit an irreducible index.  Whatever
they are given, each either returns or raises InvalidType: never a bare
IndexError, KeyError, TypeError or ZeroDivisionError, and never
InternalError, which marks an engine bug rather than bad input.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_dl import InvalidType, double_cosets, parabolic, subgroup_classes, unit

INDEX = st.one_of(
    st.integers(-3, 30),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=True),
    st.none(),
    st.text(max_size=2),
)
INDICES = st.lists(INDEX, max_size=6)


def returns_or_refuses(call):
    try:
        call()
    except InvalidType:
        pass


@pytest.fixture(scope="module")
def a3(tables):
    return tables("A", 3)


@settings(deadline=None, max_examples=200)
@given(indices=INDICES)
def test_subset_arguments(a3, indices):
    W, _, _ = a3
    returns_or_refuses(lambda: parabolic(W, indices))
    returns_or_refuses(lambda: double_cosets(W, indices, [0]))
    returns_or_refuses(lambda: double_cosets(W, [1], indices))


@settings(deadline=None, max_examples=200)
@given(members=INDICES | st.lists(st.integers(0, 23), max_size=6).map(lambda m: [0] + m))
def test_subgroup_members(a3, members):
    W, _, _ = a3
    returns_or_refuses(lambda: subgroup_classes(W, members))


@settings(deadline=None, max_examples=100)
@given(i=INDEX)
def test_irreducible_index(a3, i):
    _, _, t = a3
    returns_or_refuses(lambda: unit(t, i))
