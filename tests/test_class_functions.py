"""The integer class-function core against a Fraction-accumulating oracle.

Every sum in the oracle starts at Fraction(0) and divides by the group or
subgroup order as a Fraction, so it is exact for any rational values.  The
engine must agree with it, and must hand back Python ints wherever the result
is integral.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_dl import (
    NotVirtual,
    VirtualCharacter,
    character_table,
    decompose,
    induce,
    inner_product,
    parabolic,
    realize,
)
from weyl_dl.chars import ClassFunction
from weyl_dl.dl import subsets

TYPES = [("A", 3), ("B", 3)]


def oracle_inner_product(classes, f, g):
    total = Fraction(0)
    for c, size in enumerate(classes.sizes):
        total += size * Fraction(f[c]) * Fraction(g[classes.inverse_class[c]])
    return total / classes.order


def oracle_realize(table, coeffs):
    vals = [Fraction(0)] * table.classes.n_classes
    for c, chi in zip(coeffs, table.irreducibles):
        for j, v in enumerate(chi.values):
            vals[j] += c * Fraction(v)
    return tuple(vals)


def oracle_induce(W, P, ambient, f):
    """(ind f)(w) = (1/|H|) sum over x in W of f(x w x^-1), over conjugates in H."""
    vals = []
    for rep in ambient.reps:
        total = Fraction(0)
        for x in range(W.order):
            y = W.mul(W.mul(x, rep), W.inv(x))
            if y in P.class_index:
                total += Fraction(f[P.class_index[y]])
        vals.append(total / P.order)
    return tuple(vals)


def all_int(values):
    return all(type(v) is int for v in values)


integers = st.integers(min_value=-6, max_value=6)
halves = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.just(2))


def class_function_values(data, n, values):
    return tuple(data.draw(st.lists(values, min_size=n, max_size=n)))


def with_half(data, n):
    """Integer values with one class moved by 1/2: never a virtual character."""
    vals = list(class_function_values(data, n, integers))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    vals[c] += Fraction(1, 2)
    return tuple(vals)


@pytest.mark.parametrize("key", TYPES)
def test_table_rows_are_int(tables, key):
    W, cc, t = tables(*key)
    assert all(all_int(chi.values) for chi in t.irreducibles)
    for I in subsets(W.rank):
        sub = character_table(W, parabolic(W, I))
        assert all(all_int(chi.values) for chi in sub.irreducibles)


@settings(deadline=None, max_examples=40)
@given(key=st.sampled_from(TYPES), data=st.data())
def test_realize_decompose_roundtrip(tables, key, data):
    _, cc, t = tables(*key)
    coeffs = class_function_values(data, t.n_irreducibles, integers)
    f = realize(t, VirtualCharacter(t.group_id, coeffs))
    assert all_int(f.values)
    assert f.values == oracle_realize(t, coeffs)
    assert decompose(t, f).coeffs == coeffs


@settings(deadline=None, max_examples=40)
@given(key=st.sampled_from(TYPES), data=st.data())
def test_inner_product_matches_oracle(tables, key, data):
    _, cc, _ = tables(*key)
    n = cc.n_classes
    f = class_function_values(data, n, integers)
    g = class_function_values(data, n, st.one_of(integers, halves))
    got = inner_product(cc, ClassFunction(cc.group_id, f), ClassFunction(cc.group_id, g))
    expected = oracle_inner_product(cc, f, g)
    assert got == expected
    assert type(got) is (int if expected.denominator == 1 else Fraction)


@settings(deadline=None, max_examples=30)
@given(key=st.sampled_from(TYPES), data=st.data())
def test_induce_irreducible_matches_oracle(tables, key, data):
    W, cc, _ = tables(*key)
    P = parabolic(W, data.draw(st.sampled_from(subsets(W.rank))))
    sub = character_table(W, P)
    chi = sub.irreducibles[data.draw(st.integers(0, sub.n_irreducibles - 1))]
    ind = induce(chi, P, cc)
    assert all_int(ind.values)
    assert ind.values == oracle_induce(W, P, cc, chi.values)


@settings(deadline=None, max_examples=30)
@given(key=st.sampled_from(TYPES), data=st.data())
def test_rational_class_functions_match_oracle(tables, key, data):
    W, cc, t = tables(*key)
    P = parabolic(W, data.draw(st.sampled_from(subsets(W.rank))))
    f = with_half(data, P.n_classes)
    ind = induce(ClassFunction(P.group_id, f), P, cc)
    expected = oracle_induce(W, P, cc, f)
    assert ind.values == expected
    assert all(type(v) is (int if e.denominator == 1 else Fraction)
               for v, e in zip(ind.values, expected))

    g = with_half(data, cc.n_classes)
    for chi in t.irreducibles:
        got = inner_product(cc, ClassFunction(cc.group_id, g), chi)
        assert got == oracle_inner_product(cc, g, chi.values)
    with pytest.raises(NotVirtual):
        decompose(t, ClassFunction(cc.group_id, g))
