import itertools
from fractions import Fraction

import pytest

from weyl_dl import (
    ClassFunction,
    GroupMismatch,
    character_table,
    decompose,
    double_cosets,
    frobenius_check,
    induce,
    induce_between,
    inner_product,
    mackey_check,
    parabolic,
    reflection,
    restrict,
    restrict_between,
    sign,
    subgroup_classes,
    trivial,
)
from weyl_dl.indres import induction_counts


def subsets(rank):
    return list(itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    ))


def test_restrict_trivial(tables):
    W, cc, _ = tables("A", 2)
    P = parabolic(W, (0,))
    assert restrict(trivial(cc), P).values == (Fraction(1), Fraction(1))


def test_restrict_reflection(tables):
    W, cc, _ = tables("A", 2)
    P = parabolic(W, (0,))
    res = restrict(reflection(W, cc), P)
    assert res.values == (Fraction(2), Fraction(0))
    # equals trivial + sign of the subgroup
    expected = trivial(P.classes) + sign(W, P.classes)
    assert res.values == expected.values


def test_restrict_full_is_identity(tables):
    W, cc, _ = tables("A", 2)
    P = parabolic(W, (0, 1))
    f = reflection(W, cc)
    assert restrict(f, P).values == f.values


def test_restrict_group_mismatch(tables):
    W, _, _ = tables("A", 2)
    W3, cc3, _ = tables("A", 3)
    P = parabolic(W, (0,))
    with pytest.raises(GroupMismatch):
        restrict(trivial(cc3), P)


def test_induce_examples(tables):
    W, cc, t = tables("A", 2)
    P = parabolic(W, (0,))
    ind_triv = induce(trivial(P.classes), P, W)
    assert ind_triv.values == (Fraction(3), Fraction(1), Fraction(0))
    assert decompose(t, ind_triv).coeffs == (1, 0, 1)  # trivial + reflection
    ind_sgn = induce(sign(W, P.classes), P, W)
    assert ind_sgn.values == (Fraction(3), Fraction(-1), Fraction(0))
    assert decompose(t, ind_sgn).coeffs == (0, 1, 1)  # sign + reflection


def test_induce_from_trivial_subgroup_is_regular(tables):
    W, cc, _ = tables("A", 2)
    P = parabolic(W, ())
    ind = induce(trivial(P.classes), P, W)
    expected = [Fraction(0)] * cc.n_classes
    expected[cc.identity_class] = Fraction(W.order)
    assert ind.values == tuple(expected)


def test_induce_preserves_virtual(tables):
    W, _, t = tables("B", 3)
    for I in subsets(3):
        P = parabolic(W, I)
        sub_table = character_table(W, P.classes)
        for chi in sub_table.irreducibles:
            decompose(t, induce(chi, P, W))  # NotVirtual would raise


def test_frobenius_a2(tables):
    W, cc, t = tables("A", 2)
    P = parabolic(W, (0,))
    tp = character_table(W, P.classes)
    report = frobenius_check(W, P, t, tp)
    assert report.ok
    # <ind triv, reflection> = 1 = <triv, res reflection>
    refl = reflection(W, cc)
    lhs = inner_product(cc, induce(trivial(P.classes), P, W), refl)
    rhs = inner_product(P.classes, trivial(P.classes), restrict(refl, P))
    assert lhs == rhs == 1


def test_frobenius_empty_subset_pairs_degrees(tables):
    W, cc, t = tables("A", 2)
    P = parabolic(W, ())
    ind = induce(trivial(P.classes), P, W)
    for i, psi in enumerate(t.irreducibles):
        assert inner_product(cc, ind, psi) == t.degrees[i]


def test_frobenius_all_subsets(tables):
    for key in [("A", 3), ("B", 3), ("G", 2)]:
        W, _, t = tables(*key)
        for I in subsets(W.rank):
            P = parabolic(W, I)
            tp = character_table(W, P.classes)
            assert frobenius_check(W, P, t, tp).ok


def test_mackey_a2_worked_example(tables):
    W, _, t = tables("A", 2)
    P = parabolic(W, (0,))
    report = mackey_check(W, (0,), (0,), trivial(P.classes))
    assert report.ok
    assert report.left.values == (Fraction(3), Fraction(1))  # 2*trivial + sign


def test_mackey_empty_and_full(tables):
    W, _, _ = tables("B", 2)
    P0 = parabolic(W, ())
    assert mackey_check(W, (), (0,), trivial(P0.classes)).ok
    P1 = parabolic(W, (0,))
    assert mackey_check(W, (0,), (0, 1), sign(W, P1.classes)).ok


def test_mackey_all_pairs_a3(tables):
    W, _, _ = tables("A", 3)
    for I in subsets(3):
        P = parabolic(W, I)
        sub_table = character_table(W, P.classes)
        for J in subsets(3):
            for chi in sub_table.irreducibles:
                assert mackey_check(W, I, J, chi).ok


def test_transitivity_chains(tables):
    for key in [("A", 3), ("B", 3)]:
        W, _, _ = tables(*key)
        for J in subsets(W.rank):
            PJ = parabolic(W, J)
            tj = character_table(W, PJ.classes)
            for I in subsets(W.rank):
                if not set(J) <= set(I):
                    continue
                PI = parabolic(W, I)
                for chi in tj.irreducibles:
                    step = induce_between(W, PJ.classes, PI.classes, chi)
                    assert induce(step, PI, W).values == induce(chi, PJ, W).values


def test_restrict_between_matches_parabolic_path(tables):
    W, cc, _ = tables("B", 3)
    P = parabolic(W, (0, 1))
    f = reflection(W, cc)
    via_parabolic = restrict(f, P)
    via_generic = restrict_between(cc, P.classes, f)
    assert via_parabolic.values == via_generic.values


def indicator(classes, c):
    vals = [0] * classes.n_classes
    vals[c] = 1
    return ClassFunction(classes.group_id, tuple(vals))


def brute_force_counts(W, sup, sub):
    """counts[r][c] = #{x in sup : x w_r x^-1 in class c of sub}, by sweeping every x."""
    counts = []
    for rep in sup.reps:
        row = [0] * sub.n_classes
        for y in W.conjugate_sweep(rep, sup.members):
            if sub.class_of_arr[y] >= 0:
                row[sub.class_of_arr[y]] += 1
        counts.append(tuple(row))
    return tuple(counts)


def assert_induce_between_matches_sweep(W, sub, sup):
    counts = brute_force_counts(W, sup, sub)
    for c in range(sub.n_classes):
        induced = induce_between(W, sub, sup, indicator(sub, c))
        assert induced.values == tuple(Fraction(row[c], sub.order) for row in counts)


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3)])
def test_induction_counts_match_sweep(tables, type_label, rank):
    W, cc, _ = tables(type_label, rank)
    for I in subsets(rank):
        P = parabolic(W, I)
        assert induction_counts(W, P) == brute_force_counts(W, cc, P.classes)


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3)])
def test_induce_between_matches_sweep(tables, type_label, rank):
    W, _, _ = tables(type_label, rank)
    for I in subsets(rank):
        PI = parabolic(W, I)
        for J in subsets(rank):
            if set(J) <= set(I):
                assert_induce_between_matches_sweep(W, parabolic(W, J).classes, PI.classes)


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3)])
def test_induce_between_matches_sweep_on_intersections(tables, type_label, rank):
    W, _, _ = tables(type_label, rank)
    for I in subsets(rank):
        for J in subsets(rank):
            PJ = parabolic(W, J)
            for _, members in double_cosets(W, J, I):
                assert_induce_between_matches_sweep(W, subgroup_classes(W, members), PJ.classes)
